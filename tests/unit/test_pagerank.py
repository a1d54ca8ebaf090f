"""Unit tests for the PageRank library (benchmark kernel + variants)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.pagerank.benchmark import benchmark_pagerank, iteration_operator
from repro.pagerank.dense import dense_power_iteration, google_matrix
from repro.pagerank.validate import (
    ValidationReport,
    dominant_eigenvalue,
    spectral_rank,
    validate_rank,
)
from repro.pagerank.variants import (
    pagerank_converged,
    pagerank_sink,
    pagerank_strongly_preferential,
    pagerank_weakly_preferential,
)


def _ring_matrix(n: int) -> sp.csr_matrix:
    """Row-stochastic directed ring: PageRank is exactly uniform."""
    rows = np.arange(n)
    cols = (rows + 1) % n
    return sp.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n))


class TestBenchmarkPagerank:
    def test_ring_fixed_point_is_uniform(self):
        a = _ring_matrix(8)
        r0 = np.random.default_rng(0).random(8)
        r = benchmark_pagerank(a, r0, iterations=200)
        assert np.allclose(r, 1.0 / 8, atol=1e-6)

    def test_mass_conserved_on_stochastic_matrix(self):
        a = _ring_matrix(5)
        r = benchmark_pagerank(a, np.full(5, 0.2), iterations=20)
        assert r.sum() == pytest.approx(1.0)

    def test_mass_leaks_with_dangling_rows(self, toy_matrix):
        # Make row 1 dangling.
        dense = toy_matrix.toarray()
        dense[1, :] = 0.0
        a = sp.csr_matrix(dense)
        r = benchmark_pagerank(a, np.full(3, 1 / 3), iterations=20)
        assert r.sum() < 1.0

    def test_matches_dense_power_iteration_direction(self, toy_matrix):
        r = benchmark_pagerank(toy_matrix, np.full(3, 1 / 3), iterations=500)
        g = google_matrix(toy_matrix, 0.85)
        dense, _, _ = dense_power_iteration(g)
        assert np.allclose(r / np.abs(r).sum(), dense, atol=1e-9)

    def test_paper_body_formula_differs(self, toy_matrix):
        r0 = np.full(3, 1 / 3)
        with_n = benchmark_pagerank(toy_matrix, r0, iterations=5,
                                    formula="appendix")
        without_n = benchmark_pagerank(toy_matrix, r0, iterations=5,
                                       formula="paper-body")
        # The body-text formula omits /N, inflating the teleport term.
        assert without_n.sum() > with_n.sum()

    def test_initial_rank_normalised(self, toy_matrix):
        r_scaled = benchmark_pagerank(toy_matrix, np.array([2.0, 2.0, 2.0]),
                                      iterations=3)
        r_unit = benchmark_pagerank(toy_matrix, np.full(3, 1 / 3),
                                    iterations=3)
        assert np.allclose(r_scaled, r_unit)

    def test_validation_errors(self, toy_matrix):
        with pytest.raises(ValueError, match="square"):
            benchmark_pagerank(sp.csr_matrix((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            benchmark_pagerank(toy_matrix, np.zeros(5))
        with pytest.raises(ValueError, match="all-zero"):
            benchmark_pagerank(toy_matrix, np.zeros(3))
        with pytest.raises(ValueError, match="formula"):
            benchmark_pagerank(toy_matrix, np.full(3, 1 / 3), formula="x")

    def test_iteration_operator_matches_update(self, toy_matrix):
        op = iteration_operator(toy_matrix, 0.85)
        x = np.array([0.2, 0.3, 0.5])
        expected = 0.85 * (toy_matrix.T @ x) + 0.15 / 3 * x.sum()
        assert np.allclose(op @ x, expected)


class TestVariants:
    @pytest.fixture
    def dangling_matrix(self):
        # 0 -> 1, 1 -> {0, 2}, 2 dangles.
        dense = np.array(
            [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 0.0]]
        )
        return sp.csr_matrix(dense)

    def test_strongly_preferential_conserves_mass(self, dangling_matrix):
        res = pagerank_strongly_preferential(dangling_matrix, tol=1e-12)
        assert res.converged
        assert res.rank.sum() == pytest.approx(1.0, abs=1e-9)

    def test_weakly_equals_strongly_when_distributions_match(self, dangling_matrix):
        strong = pagerank_strongly_preferential(dangling_matrix, tol=1e-13)
        weak = pagerank_weakly_preferential(
            dangling_matrix, dangling_distribution=np.full(3, 1 / 3),
            tol=1e-13,
        )
        assert np.allclose(strong.rank, weak.rank, atol=1e-10)

    def test_weakly_with_skewed_dangling_vector(self, dangling_matrix):
        skew = pagerank_weakly_preferential(
            dangling_matrix, dangling_distribution=np.array([1.0, 0.0, 0.0]),
            tol=1e-12,
        )
        uniform = pagerank_weakly_preferential(dangling_matrix, tol=1e-12)
        assert skew.rank[0] > uniform.rank[0]

    def test_sink_loses_mass_without_renormalise(self, dangling_matrix):
        res = pagerank_sink(dangling_matrix, tol=1e-12)
        assert res.rank.sum() < 1.0

    def test_sink_renormalised_unit_mass(self, dangling_matrix):
        res = pagerank_sink(dangling_matrix, tol=1e-12, renormalize=True)
        assert res.rank.sum() == pytest.approx(1.0)

    def test_personalised_teleport(self, dangling_matrix):
        teleport = np.array([0.0, 0.0, 1.0])
        res = pagerank_strongly_preferential(
            dangling_matrix, teleport=teleport, tol=1e-12
        )
        uniform = pagerank_strongly_preferential(dangling_matrix, tol=1e-12)
        assert res.rank[2] > uniform.rank[2]

    def test_converged_dispatch(self, dangling_matrix):
        for variant in ("strongly-preferential", "weakly-preferential", "sink"):
            res = pagerank_converged(dangling_matrix, variant=variant)
            assert res.converged
        with pytest.raises(ValueError, match="unknown variant"):
            pagerank_converged(dangling_matrix, variant="quantum")

    def test_iteration_cap_reported(self, dangling_matrix):
        res = pagerank_strongly_preferential(
            dangling_matrix, tol=1e-30, max_iterations=3
        )
        assert not res.converged
        assert res.iterations == 3

    def test_input_validation(self, dangling_matrix):
        with pytest.raises(ValueError, match="teleport"):
            pagerank_strongly_preferential(
                dangling_matrix, teleport=np.array([1.0, -1.0, 0.0])
            )
        with pytest.raises(ValueError, match="positive mass"):
            pagerank_strongly_preferential(
                dangling_matrix, teleport=np.zeros(3)
            )

    @pytest.mark.parametrize(
        "variant", ["strongly-preferential", "weakly-preferential", "sink"]
    )
    def test_self_loops_without_dangling_match_dense_oracle(self, variant):
        # No row dangles, so every variant is the dense Google-matrix
        # eigenvector; the self-loops must count as ordinary out-edges.
        a = sp.csr_matrix(np.array(
            [[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]
        ))
        res = pagerank_converged(a, variant=variant, tol=1e-14)
        dense, _, _ = dense_power_iteration(google_matrix(a, 0.85))
        assert res.converged
        assert np.allclose(res.rank, dense, atol=1e-10)

    @pytest.mark.parametrize(
        "variant", ["strongly-preferential", "weakly-preferential"]
    )
    def test_all_dangling_gives_uniform_rank(self, variant):
        res = pagerank_converged(sp.csr_matrix((3, 3)), variant=variant,
                                 tol=1e-12)
        assert res.converged
        assert np.allclose(res.rank, 1.0 / 3)


class TestDenseOracle:
    def test_google_matrix_rows_sum_to_one_for_stochastic_input(self):
        a = _ring_matrix(4)
        g = google_matrix(a, 0.85)
        assert np.allclose(g.sum(axis=1), 1.0)

    def test_power_iteration_finds_dominant_left_eigenvector(self):
        a = _ring_matrix(6)
        g = google_matrix(a, 0.85)
        vec, eigenvalue, _ = dense_power_iteration(g)
        assert eigenvalue == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(vec @ g, vec, atol=1e-9)

    def test_power_iteration_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            dense_power_iteration(np.zeros((2, 3)))


class TestValidation:
    def test_validate_converged_rank_passes_tight(self, toy_matrix):
        r = benchmark_pagerank(toy_matrix, np.full(3, 1 / 3), iterations=500)
        report = validate_rank(toy_matrix, r, tolerance=1e-6)
        assert report.passed
        assert report.cosine_similarity == pytest.approx(1.0, abs=1e-9)

    def test_validate_20_iterations_passes_paper_tolerance(self, toy_matrix):
        r = benchmark_pagerank(toy_matrix, np.array([0.7, 0.2, 0.1]),
                               iterations=20)
        assert validate_rank(toy_matrix, r).passed

    def test_validate_detects_garbage(self, toy_matrix):
        garbage = np.array([1.0, 0.0, 0.0])
        report = validate_rank(toy_matrix, garbage, tolerance=0.01)
        assert not report.passed

    def test_spectral_rank_of_ring_uniform(self):
        vec = spectral_rank(_ring_matrix(10))
        assert np.allclose(vec, 0.1, atol=1e-8)

    def test_dominant_eigenvalue_stochastic_is_one(self):
        assert dominant_eigenvalue(_ring_matrix(5)) == pytest.approx(1.0)

    def test_large_matrix_uses_arpack_path(self):
        n = 2000  # above the dense limit
        rng = np.random.default_rng(1)
        rows = np.arange(n)
        cols = (rows + 1) % n
        a = sp.csr_matrix((np.ones(n), (rows, cols)), shape=(n, n))
        vec = spectral_rank(a)
        assert np.allclose(vec, 1.0 / n, atol=1e-6)

    def test_report_serialises(self, toy_matrix):
        r = benchmark_pagerank(toy_matrix, np.full(3, 1 / 3))
        report = validate_rank(toy_matrix, r)
        assert isinstance(report, ValidationReport)
        doc = report.to_dict()
        assert set(doc) == {"l1_distance", "cosine_similarity", "eigenvalue",
                            "tolerance", "passed"}

    def test_shape_guard(self, toy_matrix):
        with pytest.raises(ValueError, match="shape"):
            validate_rank(toy_matrix, np.zeros(5))
        with pytest.raises(ValueError, match="zero 1-norm"):
            validate_rank(toy_matrix, np.zeros(3))
