"""Property-based tests for PageRank invariants."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from repro.pagerank.benchmark import benchmark_pagerank
from repro.pagerank.dense import dense_power_iteration, google_matrix
from repro.pagerank.validate import validate_rank
from repro.pagerank.variants import (
    pagerank_sink,
    pagerank_strongly_preferential,
)

DIM = 10


@st.composite
def random_adjacency(draw, dim=DIM):
    """Random row-normalised adjacency with possible dangling rows."""
    density_seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(density_seed)
    mask = rng.random((dim, dim)) < 0.35
    np.fill_diagonal(mask, False)
    counts = mask * rng.integers(1, 4, size=(dim, dim))
    dout = counts.sum(axis=1)
    normalised = np.divide(
        counts, np.where(dout[:, None] > 0, dout[:, None], 1.0),
        dtype=np.float64,
    )
    return sp.csr_matrix(normalised)


@st.composite
def initial_ranks(draw, dim=DIM):
    values = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=dim,
                 max_size=dim)
    )
    return np.array(values)


class TestBenchmarkKernelProperties:
    @settings(max_examples=40)
    @given(a=random_adjacency(), r0=initial_ranks())
    def test_rank_non_negative(self, a, r0):
        r = benchmark_pagerank(a, r0, iterations=10)
        assert (r >= 0).all()

    @settings(max_examples=40)
    @given(a=random_adjacency(), r0=initial_ranks())
    def test_mass_monotonically_non_increasing(self, a, r0):
        # Sub-stochastic matrix + teleport: within one run, total mass
        # decays monotonically from the unit-normalised start.
        sums = [
            benchmark_pagerank(a, r0, iterations=k).sum()
            for k in (1, 3, 6, 10)
        ]
        assert sums[0] <= 1.0 + 1e-12
        for earlier, later in zip(sums, sums[1:]):
            assert later <= earlier + 1e-12

    @settings(max_examples=40)
    @given(a=random_adjacency(), r0=initial_ranks())
    def test_scale_invariance_of_initial_vector(self, a, r0):
        r1 = benchmark_pagerank(a, r0, iterations=8)
        r2 = benchmark_pagerank(a, 7.5 * r0, iterations=8)
        assert np.allclose(r1, r2, atol=1e-12)

    @settings(max_examples=30)
    @given(a=random_adjacency(), r0=initial_ranks())
    def test_long_run_forgets_initial_vector(self, a, r0):
        other = np.roll(r0, 3) + 0.1
        r1 = benchmark_pagerank(a, r0, iterations=300)
        r2 = benchmark_pagerank(a, other, iterations=300)
        n1 = r1 / np.abs(r1).sum()
        n2 = r2 / np.abs(r2).sum()
        assert np.allclose(n1, n2, atol=1e-6)

    @settings(max_examples=25)
    @given(a=random_adjacency())
    def test_converged_rank_passes_validation(self, a):
        r = benchmark_pagerank(a, np.full(DIM, 1.0 / DIM), iterations=400)
        assume(np.abs(r).sum() > 1e-12)
        report = validate_rank(a, r, tolerance=1e-4)
        assert report.passed

    @settings(max_examples=25)
    @given(a=random_adjacency())
    def test_matches_dense_google_matrix_iteration(self, a):
        g = google_matrix(a, 0.85)
        r0 = np.full(DIM, 1.0 / DIM)
        ours = benchmark_pagerank(a, r0, iterations=6)
        dense = r0.copy()
        for _ in range(6):
            dense = dense @ g
        assert np.allclose(ours, dense, atol=1e-10)


class TestVariantProperties:
    @settings(max_examples=30)
    @given(a=random_adjacency())
    def test_strongly_preferential_is_distribution(self, a):
        result = pagerank_strongly_preferential(a, tol=1e-12)
        assert result.converged
        assert np.isclose(result.rank.sum(), 1.0, atol=1e-8)
        assert (result.rank >= 0).all()

    @settings(max_examples=30)
    @given(a=random_adjacency())
    def test_sink_mass_bounded_by_one(self, a):
        result = pagerank_sink(a, tol=1e-12)
        assert result.rank.sum() <= 1.0 + 1e-9

    @settings(max_examples=20)
    @given(a=random_adjacency())
    def test_variants_agree_when_no_dangling(self, a):
        dout = np.asarray(a.sum(axis=1)).ravel()
        assume((dout > 0).all())  # no dangling rows
        strong = pagerank_strongly_preferential(a, tol=1e-13)
        sink = pagerank_sink(a, tol=1e-13)
        assert np.allclose(strong.rank, sink.rank, atol=1e-9)


class TestDenseOracleProperties:
    @settings(max_examples=25)
    @given(a=random_adjacency())
    def test_power_iteration_is_fixed_point(self, a):
        g = google_matrix(a, 0.85)
        vec, eigenvalue, _ = dense_power_iteration(g, tol=1e-14)
        assert np.allclose(vec @ g, eigenvalue * vec, atol=1e-8)
