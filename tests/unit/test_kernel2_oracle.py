"""The paper's Matlab Kernel 2, transcribed literally, as the oracle.

``matlab_kernel2`` is the ``coo_matrix → diags → @`` body the scipy
backend's Kernel 2 had before it built the matrix from packed-key
column-major triples.  The backend must produce the same matrix bit for
bit, Kernel 3 on its CSC handle must equal the by-hand ``r*A``
iteration, and a cache hit must hand Kernel 3 the loaded arrays
themselves.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api import rank_sha256
from repro.backends.dataframe_backend import DataframeBackend
from repro.backends.graphblas_backend import GraphBlasBackend
from repro.backends.numpy_backend import NumpyBackend
from repro.backends.python_backend import PythonBackend
from repro.backends.registry import get_backend
from repro.backends.scipy_backend import ScipyBackend
from repro.core.artifacts import ArtifactCache
from repro.core.config import PipelineConfig
from repro.core.executor import SerialExecutor, StreamingExecutor
from repro.core.streaming import streaming_kernel2
from repro.edgeio.dataset import EdgeDataset
from repro.generators.kronecker import kronecker_edges
from repro.sort.inmemory import sort_edges

_DETAIL_KEYS = (
    "nnz", "pre_filter_entry_total", "max_in_degree", "supernode_columns",
    "leaf_columns", "nonzero_rows",
)


def matlab_kernel2(u, v, n):
    """``(A, details)`` by the paper's listing, one scipy call per line."""
    ones = np.ones(len(u), dtype=np.float64)
    adjacency = sp.coo_matrix((ones, (u, v)), shape=(n, n)).tocsr()
    pre_filter_total = float(adjacency.sum())
    din = np.asarray(adjacency.sum(axis=0)).ravel()
    max_in = din.max() if len(din) else 0.0
    supernode_count = leaf_count = 0
    if max_in > 0:
        supernode_mask = din == max_in
        leaf_mask = din == 1
        eliminate = supernode_mask | leaf_mask
        supernode_count = int(supernode_mask.sum())
        leaf_count = int(leaf_mask.sum())
        keep_diag = sp.diags((~eliminate).astype(np.float64))
        adjacency = (adjacency @ keep_diag).tocsr()
        adjacency.eliminate_zeros()
    dout = np.asarray(adjacency.sum(axis=1)).ravel()
    inv = np.ones(n, dtype=np.float64)
    nonzero = dout > 0
    inv[nonzero] = 1.0 / dout[nonzero]
    adjacency = (sp.diags(inv) @ adjacency).tocsr()
    adjacency.sort_indices()
    return adjacency, {
        "nnz": int(adjacency.nnz),
        "pre_filter_entry_total": pre_filter_total,
        "max_in_degree": float(max_in),
        "supernode_columns": supernode_count,
        "leaf_columns": leaf_count,
        "nonzero_rows": int(nonzero.sum()),
    }


def _dataset(tmp_path, u, v, n):
    u, v = sort_edges(np.asarray(u, dtype=np.int64),
                      np.asarray(v, dtype=np.int64))
    return EdgeDataset.write(tmp_path / "k1", u, v, num_vertices=n,
                             num_shards=2)


def _assert_equals_oracle(dataset, scale=3):
    u, v = dataset.read_all()
    want, want_details = matlab_kernel2(u, v, dataset.num_vertices)
    handle, details = get_backend("scipy").kernel2(
        PipelineConfig(scale=scale), dataset)
    got = handle.to_scipy_csr()
    assert got.format == "csr" and got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(got, name), getattr(want, name)
        assert ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert {key: details[key] for key in _DETAIL_KEYS} == want_details
    assert set(details["phases"]) == {"read", "construct", "filter", "normalize"}
    return handle, want


# name -> (u, v, N)
_HAND_BUILT = {
    "empty": ([], [], 8),
    "one-edge": ([2], [5], 8),
    # Max in-degree 1: every column with an edge is super-node and leaf.
    "every-column-eliminated": ([0, 2], [1, 3], 4),
    # In-degrees 3, 2, 2: only the super-node goes, no leaf exists.
    "no-leaf-column": ([0, 1, 2, 0, 1, 3, 4], [5, 5, 5, 6, 6, 7, 7], 8),
    "duplicates-and-self-loops": ([0, 0, 0, 1, 1, 2, 3, 3],
                                  [1, 1, 2, 1, 2, 2, 0, 3], 4),
    "n-not-a-power-of-two": ([0, 0, 1, 2, 4, 4, 4, 5],
                             [3, 5, 5, 5, 0, 3, 3, 0], 6),
}


class TestKernel2EqualsTheMatlabTranscription:
    @pytest.mark.parametrize("seed", [1, 7, 20160523])
    @pytest.mark.parametrize("scale", range(6, 13))
    def test_kronecker(self, tmp_path, scale, seed):
        u, v = kronecker_edges(scale, 16, seed=seed)
        _assert_equals_oracle(_dataset(tmp_path, u, v, 2**scale), scale)

    @pytest.mark.parametrize("name", _HAND_BUILT)
    def test_hand_built(self, tmp_path, name):
        u, v, n = _HAND_BUILT[name]
        handle, want = _assert_equals_oracle(_dataset(tmp_path, u, v, n))
        assert handle.matrix.format == "csc"
        if name in ("empty", "every-column-eliminated"):
            assert handle.nnz == 0


class TestKernel3OnTheCscHandle:
    @pytest.mark.parametrize("formula", ["appendix", "paper-body"])
    @pytest.mark.parametrize("scale", [6, 9, 12])
    def test_rank_equals_the_iteration_by_hand(self, tmp_path, scale, formula):
        config = PipelineConfig(scale=scale, seed=3, formula=formula)
        backend = get_backend("scipy")
        u, v = kronecker_edges(scale, 16, seed=3)
        handle, a = _assert_equals_oracle(
            _dataset(tmp_path, u, v, 2**scale), scale)
        at = a.T.tocsr()  # the transposed copy Kernel 3 used to make
        c, n = config.damping, config.num_vertices
        r = backend.initial_rank(config)
        for _ in range(config.iterations):
            teleport = (1.0 - c) * r.sum()
            if formula == "appendix":
                teleport /= n
            r = c * (at @ r) + teleport
        rank, details = backend.kernel3(config, handle)
        assert rank.tobytes() == r.tobytes()
        assert set(details["phases"]) == {"setup", "iterate"}

    def test_operand_is_a_view_of_the_handle(self, tmp_path):
        u, v = kronecker_edges(6, 16, seed=3)
        handle, _ = _assert_equals_oracle(_dataset(tmp_path, u, v, 64), 6)
        at = handle.matrix.T
        assert at.format == "csr"
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(at, name),
                                    getattr(handle.matrix, name))

    @pytest.mark.parametrize("backend",
                             ["scipy", "numpy", "graphblas", "python"])
    def test_phases_account_for_the_kernel(self, tmp_path, backend):
        # Scale 14, not 12: the fixed ~0.1 ms of seeding the initial rank
        # is a tenth of scale 12's whole iterate phase.  The interpreted
        # loops of the python backend iterate for long enough at 10.
        scale = 10 if backend == "python" else 14
        config = PipelineConfig(scale=scale, seed=1)
        impl = get_backend(backend)
        u, v = kronecker_edges(scale, 16, seed=1)
        handle, _ = impl.kernel2(config, _dataset(tmp_path, u, v, 2**scale))
        impl.kernel3(config, handle)  # warm-up

        def timed():
            started = time.perf_counter()
            _, details = impl.kernel3(config, handle)
            return time.perf_counter() - started, details["phases"]

        # The tightest of a few runs: a stall between the two clocks is
        # the host's, not the kernel's.
        seconds, phases = min(
            (timed() for _ in range(5)),
            key=lambda run: run[0] - sum(run[1].values()))
        assert set(phases) == {"setup", "iterate"}
        assert abs(sum(phases.values()) - seconds) <= 0.1 * seconds
        if backend == "scipy":
            assert phases["setup"] < 0.1 * phases["iterate"]


class TestCacheHitHandsKernel3TheLoadedArrays:
    def test_miss_then_hit(self, tmp_path, monkeypatch):
        loaded, operands = [], []
        real_load = ArtifactCache.load_csr

        def spy_load(self, kind, fields):
            out = real_load(self, kind, fields)
            loaded.append(out)
            return out

        backend = get_backend("scipy")
        real_kernel3 = backend.kernel3

        def spy_kernel3(config, handle):
            operands.append(handle)
            return real_kernel3(config, handle)

        monkeypatch.setattr(ArtifactCache, "load_csr", spy_load)
        monkeypatch.setattr(backend, "kernel3", spy_kernel3)
        config = PipelineConfig(scale=8, seed=5, cache_dir=tmp_path / "cache")
        miss = SerialExecutor().execute(config, backend)
        hit = SerialExecutor().execute(config, backend)
        assert miss.kernels[2].details["artifact_cache"] == "miss"
        assert hit.kernels[2].details["artifact_cache"] == "hit"
        assert rank_sha256(miss.rank) == rank_sha256(hit.rank)
        assert loaded[0] is None
        matrix, _ = loaded[1]
        assert matrix.format == "csc"
        # scipy narrows both index arrays when N < 2**31, built or loaded.
        assert {str(getattr(op.matrix, name).dtype) for op in operands
                for name in ("indices", "indptr")} == {"int32"}
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(operands[1].matrix, name),
                                    getattr(matrix, name))


class _FixedEdges:
    """Kernel 0 step replaced: the run's graph is ``(0→1), (2→3)``."""

    def generate_edges(self, config):
        return (np.array([0, 2], dtype=np.int64),
                np.array([1, 3], dtype=np.int64))


class _FixedScipy(_FixedEdges, ScipyBackend):
    pass


class _FixedNumpy(_FixedEdges, NumpyBackend):
    pass


class _FixedGraphblas(_FixedEdges, GraphBlasBackend):
    pass


class _FixedDataframe(_FixedEdges, DataframeBackend):
    pass


class _FixedPython(_FixedEdges, PythonBackend):
    """Replaces Kernel 0 whole, so it writes the fixed graph itself."""

    def kernel0(self, config, out_dir):
        u, v = self.generate_edges(config)
        edges = list(zip(u.tolist(), v.tolist()))
        return self._write_dataset(out_dir, edges, config, extra={}), {}


class TestEliminatedColumnsWhenMaxInDegreeIsOne:
    """Columns 1 and 3 are super-node *and* leaf: two columns, not four."""

    @pytest.mark.parametrize("backend", [
        _FixedScipy, _FixedNumpy, _FixedGraphblas, _FixedDataframe, _FixedPython,
    ])
    def test_serial_miss_hit_and_streaming_agree(self, tmp_path, backend):
        config = PipelineConfig(scale=2, cache_dir=tmp_path / "cache")
        executors = (SerialExecutor(), SerialExecutor(), StreamingExecutor())
        states = ["miss", "hit", "miss"]
        if "streaming" not in backend.capabilities:
            # Serial only, and the K2 cache needs the streaming capability.
            executors, states = executors[:1], [None]
        runs = [
            executor.execute(config, backend(), verify=False)
            for executor in executors
        ]
        k2 = [run.kernels[2].details for run in runs]
        assert [d.get("artifact_cache") for d in k2] == states
        assert k2[0]["supernode_columns"] == k2[0]["leaf_columns"] == 2
        assert [d["eliminated_columns"] for d in k2] == [2] * len(k2)
        k1 = _dataset(tmp_path, [0, 2], [1, 3], 4)
        assert streaming_kernel2(k1).eliminated_columns == 2
