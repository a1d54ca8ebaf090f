"""Property-based tests for the graph generators."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.generators.kronecker import kronecker_edges
from repro.generators.ppl import ppl_degree_sequence, ppl_edges
from repro.generators.simple import erdos_renyi_edges


class TestKroneckerProperties:
    @settings(max_examples=25)
    @given(
        scale=st.integers(min_value=2, max_value=9),
        edge_factor=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_size_and_bounds_always_hold(self, scale, edge_factor, seed):
        u, v = kronecker_edges(scale, edge_factor, seed=seed)
        n = 1 << scale
        assert len(u) == edge_factor * n
        assert u.min() >= 0 and u.max() < n
        assert v.min() >= 0 and v.max() < n


class TestPPLProperties:
    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=4, max_value=2000),
        exponent=st.floats(min_value=1.2, max_value=3.0),
    )
    def test_degree_sequence_well_formed(self, n, exponent):
        seq = ppl_degree_sequence(n, exponent=exponent)
        assert len(seq) == n
        assert (seq >= 0).all()
        assert np.all(np.diff(seq.astype(np.int64)) <= 0)

    @settings(max_examples=20)
    @given(
        n=st.integers(min_value=4, max_value=300),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_edges_match_declared_out_degrees(self, n, seed):
        seq = ppl_degree_sequence(n, exponent=1.7)
        u, v = ppl_edges(n, degrees=seq, seed=seed)
        assert np.array_equal(np.bincount(u, minlength=n), seq)
        # Stub pairing conserves total in-degree too.
        assert np.bincount(v, minlength=n).sum() == seq.sum()


class TestErdosRenyiProperties:
    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=1, max_value=500),
        m=st.integers(min_value=0, max_value=2000),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_exact_edge_count_and_bounds(self, n, m, seed):
        u, v = erdos_renyi_edges(n, m, seed=seed)
        assert len(u) == m
        if m:
            assert u.max() < n and v.max() < n
