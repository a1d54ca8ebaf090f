"""Independent-oracle validation: our PageRank vs networkx's.

networkx implements strongly preferential PageRank independently of
this codebase; agreement on random graphs is strong evidence the whole
K2->K3 chain (normalisation semantics included) is correct, not just
self-consistent.  Its degree views are, likewise, an independent account
of what Kernel 2's filter must remove.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

networkx = pytest.importorskip("networkx")

from repro.backends.registry import get_backend
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset
from repro.pagerank.variants import (
    pagerank_strongly_preferential,
    pagerank_weakly_preferential,
)
from repro.sort.inmemory import sort_edges


def _normalised_matrix(g):
    n = g.number_of_nodes()
    u = np.array([e[0] for e in g.edges()], dtype=np.int64)
    v = np.array([e[1] for e in g.edges()], dtype=np.int64)
    counts = sp.coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n)).tocsr()
    dout = np.asarray(counts.sum(axis=1)).ravel()
    inv = np.where(dout > 0, 1.0 / np.where(dout > 0, dout, 1.0), 1.0)
    return (sp.diags(inv) @ counts).tocsr()


def _graph_and_matrix(seed: int, n: int = 60, p: float = 0.08):
    g = networkx.gnp_random_graph(n, p, seed=seed, directed=True)
    return g, _normalised_matrix(g)


@pytest.mark.parametrize("seed", [1, 7, 23])
class TestAgainstNetworkx:
    def test_power_iteration_matches(self, seed):
        g, matrix = _graph_and_matrix(seed)
        ours = pagerank_strongly_preferential(matrix, tol=1e-12)
        theirs = networkx.pagerank(g, alpha=0.85, tol=1e-12, max_iter=500)
        expected = np.array([theirs[i] for i in range(matrix.shape[0])])
        assert ours.converged
        assert np.allclose(ours.rank, expected, atol=1e-8)

    def test_personalised_matches(self, seed):
        g, matrix = _graph_and_matrix(seed)
        n = matrix.shape[0]
        teleport = np.zeros(n)
        teleport[: n // 4] = 1.0
        ours = pagerank_strongly_preferential(
            matrix, teleport=teleport, tol=1e-12
        )
        personalization = {i: float(teleport[i]) for i in range(n)}
        theirs = networkx.pagerank(
            g, alpha=0.85, tol=1e-12, max_iter=500,
            personalization=personalization,
            dangling=personalization,
        )
        expected = np.array([theirs[i] for i in range(n)])
        assert np.allclose(ours.rank, expected, atol=1e-8)

    def test_weakly_preferential_matches(self, seed):
        # Teleport to a quarter of the vertices, but let dangling mass
        # spread uniformly: networkx's separate ``dangling`` weights.
        g, _ = _graph_and_matrix(seed)
        n = g.number_of_nodes()
        g.remove_edges_from(list(g.out_edges(range(0, n, 6))))
        matrix = _normalised_matrix(g)
        teleport = np.zeros(n)
        teleport[: n // 4] = 1.0
        ours = pagerank_weakly_preferential(
            matrix, teleport=teleport, tol=1e-12
        )
        theirs = networkx.pagerank(
            g, alpha=0.85, tol=1e-12, max_iter=500,
            personalization={i: float(teleport[i]) for i in range(n)},
            dangling={i: 1.0 for i in range(n)},
        )
        expected = np.array([theirs[i] for i in range(n)])
        assert ours.converged
        assert np.allclose(ours.rank, expected, atol=1e-8)


def _kernel2_details(tmp_path, backend: str, g) -> dict:
    """Run ``backend``'s Kernel 2 on ``g``'s edges, written as Kernel 1 would."""
    u = np.array([e[0] for e in g.edges()], dtype=np.int64)
    v = np.array([e[1] for e in g.edges()], dtype=np.int64)
    u, v = sort_edges(u, v)
    dataset = EdgeDataset.write(
        tmp_path / "k1", u, v, num_vertices=g.number_of_nodes()
    )
    _, details = get_backend(backend).kernel2(PipelineConfig(scale=6), dataset)
    return details


def _expected_kernel2_details(g) -> dict:
    """Kernel 2's bookkeeping, from networkx's degree views alone.

    Parallel edges count towards a column's in-degree, as ``sparse``
    sums duplicates, but collapse to one stored entry.
    """
    din = dict(g.in_degree())
    max_in = max(din.values())
    supernodes = {x for x, d in din.items() if d == max_in}
    leaves = {x for x, d in din.items() if d == 1}
    eliminated = supernodes | leaves
    surviving = {(x, y) for x, y in g.edges() if y not in eliminated}
    return {
        "max_in_degree": float(max_in),
        "supernode_columns": len(supernodes),
        "leaf_columns": len(leaves),
        "eliminated_columns": len(eliminated),
        "nonzero_rows": len({x for x, _ in surviving}),
        "nnz": len(surviving),
        "pre_filter_entry_total": float(g.number_of_edges()),
    }


def _multigraph():
    g = networkx.MultiDiGraph(networkx.gnp_random_graph(40, 0.1, seed=3,
                                                        directed=True))
    g.add_edges_from(list(g.edges())[::4])  # every fourth edge twice
    return g


def _self_loops():
    g = networkx.gnp_random_graph(40, 0.1, seed=5, directed=True)
    g.add_edges_from((x, x) for x in range(0, 40, 3))
    return g


def _isolated_vertices():
    g = networkx.gnp_random_graph(30, 0.15, seed=9, directed=True)
    g.add_nodes_from(range(30, 50))  # no edges at all
    return g


#: Graphs whose structure puts Kernel 2's filter on its edge cases.
_STRUCTURED_GRAPHS = {
    # Maximum in-degree 1: every super-node column is also a leaf.
    "path": lambda: networkx.path_graph(12, create_using=networkx.DiGraph),
    # Every column is a super-node, so the filter clears the matrix.
    "complete": lambda: networkx.complete_graph(8, create_using=networkx.DiGraph),
    # One super-node and no leaves; every row dangles afterwards.
    "in-star": lambda: networkx.DiGraph((x, 0) for x in range(1, 10)),
    "multigraph": _multigraph,
    "self-loops": _self_loops,
    "isolated-vertices": _isolated_vertices,
}


@pytest.mark.parametrize(
    "backend", ["python", "numpy", "scipy", "dataframe", "graphblas"]
)
class TestKernel2AgainstNetworkxDegrees:
    def test_details_match_networkx_degrees(self, tmp_path, backend):
        g, _ = _graph_and_matrix(seed=11)
        expected = _expected_kernel2_details(g)
        details = _kernel2_details(tmp_path, backend, g)
        # Both filter classes are exercised.
        assert expected["supernode_columns"] and expected["leaf_columns"]
        assert {key: details[key] for key in expected} == expected

    @pytest.mark.parametrize("shape", sorted(_STRUCTURED_GRAPHS))
    def test_structured_graph_details(self, tmp_path, backend, shape):
        g = _STRUCTURED_GRAPHS[shape]()
        expected = _expected_kernel2_details(g)
        details = _kernel2_details(tmp_path, backend, g)
        assert {key: details[key] for key in expected} == expected
