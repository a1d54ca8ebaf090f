"""Unit tests for the rank-comparison utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.pagerank.compare import (
    kendall_tau,
    rank_displacement,
    spearman_rho,
    top_k,
    top_k_overlap,
)


class TestTopK:
    def test_orders_descending(self):
        rank = np.array([0.1, 0.4, 0.2, 0.3])
        assert top_k(rank, 2).tolist() == [1, 3]

    def test_ties_broken_by_id(self):
        rank = np.array([0.5, 0.5, 0.5])
        assert top_k(rank, 3).tolist() == [0, 1, 2]

    def test_k_larger_than_n(self):
        assert len(top_k(np.array([1.0, 2.0]), 10)) == 2

    def test_overlap_bounds(self):
        a = np.array([4.0, 3.0, 2.0, 1.0])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        assert top_k_overlap(a, a, 2) == 1.0
        assert top_k_overlap(a, b, 2) == 0.0
        assert top_k_overlap(a, b, 4) == 1.0


class TestCorrelations:
    def test_identical_rankings(self, rng):
        rank = rng.random(50)
        assert kendall_tau(rank, rank) == pytest.approx(1.0)
        assert spearman_rho(rank, rank) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        a = np.arange(20, dtype=float)
        assert kendall_tau(a, -a) == pytest.approx(-1.0)
        assert spearman_rho(a, -a) == pytest.approx(-1.0)

    def test_shape_guard(self):
        with pytest.raises(ValueError, match="shape"):
            kendall_tau(np.zeros(3), np.zeros(4))


class TestDisplacement:
    def test_identical_is_zero(self, rng):
        rank = rng.random(30)
        summary = rank_displacement(rank, rank)
        assert summary.max_displacement == 0
        assert summary.unchanged_fraction == 1.0

    def test_swap_two_adjacent(self):
        a = np.array([4.0, 3.0, 2.0, 1.0])
        b = np.array([3.0, 4.0, 2.0, 1.0])
        summary = rank_displacement(a, b)
        assert summary.max_displacement == 1
        assert summary.unchanged_fraction == 0.5

    def test_full_reversal(self):
        a = np.arange(5, dtype=float)
        summary = rank_displacement(a, -a)
        assert summary.max_displacement == 4
