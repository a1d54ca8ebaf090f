"""Unit tests for BTER, PPL, the simple generators and the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.generators.base import validate_edge_list
from repro.generators.bter import BTERParams, bter_edges
from repro.generators.ppl import PPLParams, ppl_degree_sequence, ppl_edges
from repro.generators.registry import available_generators, get_generator
from repro.generators.simple import erdos_renyi_edges, ring_graph_edges


class TestPPL:
    def test_degree_sequence_length_and_order(self):
        seq = ppl_degree_sequence(500, exponent=1.8)
        assert len(seq) == 500
        assert np.all(np.diff(seq) <= 0)  # descending

    def test_histogram_is_power_law_shaped(self):
        seq = ppl_degree_sequence(2000, exponent=2.0, max_degree=50)
        values, counts = np.unique(seq[seq > 0], return_counts=True)
        # Counts must be non-increasing in degree for a power law.
        assert counts[0] == counts.max()
        assert counts[-1] <= counts[0]

    def test_edges_realise_out_degrees_exactly(self):
        degrees = np.array([3, 2, 0, 1], dtype=np.int64)
        u, v = ppl_edges(4, degrees=degrees, seed=1)
        assert len(u) == 6
        assert np.array_equal(np.bincount(u, minlength=4), degrees)
        # In-degrees are a permutation of the same stub multiset.
        assert np.bincount(v, minlength=4).sum() == 6

    def test_rejects_negative_degrees(self):
        with pytest.raises(ValueError):
            ppl_edges(3, degrees=np.array([1, -1, 0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            ppl_edges(3, degrees=np.array([1, 1]))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PPLParams(exponent=0.9)
        with pytest.raises(ValueError):
            PPLParams(max_degree=0)


class TestBTER:
    def test_bounds_and_reproducibility(self):
        u1, v1 = bter_edges(128, seed=5)
        u2, v2 = bter_edges(128, seed=5)
        validate_edge_list(u1, v1, 128)
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)

    def test_edge_count_tracks_degree_budget(self):
        degrees = np.full(64, 4, dtype=np.int64)
        u, _ = bter_edges(64, degrees=degrees, seed=1)
        # Phase-1 sampling is stochastic; total should be within 2x.
        assert 0.5 * degrees.sum() <= len(u) <= 2.0 * degrees.sum()

    def test_community_structure_exists(self):
        # With rho=1 affinity blocks become cliques: the densest block
        # must be far denser than the global edge density.
        degrees = np.full(60, 5, dtype=np.int64)
        u, v = bter_edges(60, degrees=degrees, seed=2,
                          params=BTERParams(rho=1.0))
        dense = np.zeros((60, 60))
        np.add.at(dense, (u, v), 1.0)
        block = dense[:6, :6]  # first affinity block (degree 5 + 1)
        off_block = dense[:6, 6:]
        assert block.sum() > off_block.sum()

    def test_rejects_tiny_graph(self):
        with pytest.raises(ValueError):
            bter_edges(1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BTERParams(rho=0.0)
        with pytest.raises(ValueError):
            BTERParams(exponent=1.0)


class TestSimpleGenerators:
    def test_ring_closes(self):
        u, v = ring_graph_edges(4)
        assert np.array_equal(v, [1, 2, 3, 0])

    def test_erdos_renyi_multigraph(self):
        u, v = erdos_renyi_edges(10, 50, seed=1)
        assert len(u) == 50
        validate_edge_list(u, v, 10)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_ring_is_a_permutation(self, n):
        # Out- and in-degree 1 everywhere (n = 1 is a self-loop), so the
        # normalised matrix is a permutation and PageRank is uniform.
        u, v = ring_graph_edges(n)
        validate_edge_list(u, v, n)
        assert np.array_equal(np.bincount(u, minlength=n), np.ones(n))
        assert np.array_equal(np.bincount(v, minlength=n), np.ones(n))

    def test_erdos_renyi_reproducible_per_seed(self):
        first = erdos_renyi_edges(16, 40, seed=3)
        again = erdos_renyi_edges(16, 40, seed=3)
        other = erdos_renyi_edges(16, 40, seed=4)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert not all(np.array_equal(a, b) for a, b in zip(first, other))

    def test_erdos_renyi_zero_edges(self):
        u, v = erdos_renyi_edges(5, 0, seed=1)
        assert len(u) == len(v) == 0
        assert u.dtype == v.dtype == np.int64

    @pytest.mark.parametrize("args", [(0, 4), (4, -1)],
                             ids=["no-vertices", "negative-edges"])
    def test_erdos_renyi_rejects_bad_sizes(self, args):
        with pytest.raises(ValueError):
            erdos_renyi_edges(*args, seed=1)


class TestRegistry:
    def test_lists_all(self):
        names = set(available_generators())
        assert {"kronecker", "erdos-renyi", "bter", "ppl", "ring"} <= names

    @pytest.mark.parametrize("name", ["kronecker", "erdos-renyi", "bter", "ppl", "ring"])
    def test_each_generator_runs(self, name):
        fn = get_generator(name)
        u, v = fn(6, 4, seed=1)
        validate_edge_list(u, v, 64)
        assert len(u) > 0

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            get_generator("nope")
