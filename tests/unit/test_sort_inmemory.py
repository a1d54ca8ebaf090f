"""Unit tests for the in-memory sorts (Kernel 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sort.inmemory import (
    counting_sort_edges,
    is_sorted_by_start,
    numpy_sort_edges,
    radix_sort_edges,
    sort_edges,
)

ALGORITHMS = ["numpy", "counting", "radix"]


def _random_edges(rng, m=500, n=64):
    u = rng.integers(0, n, size=m).astype(np.int64)
    v = rng.integers(0, n, size=m).astype(np.int64)
    return u, v


class TestIsSorted:
    def test_empty_and_single(self):
        assert is_sorted_by_start(np.array([], dtype=np.int64))
        assert is_sorted_by_start(np.array([5]))

    def test_detects_order(self):
        assert is_sorted_by_start(np.array([1, 1, 2, 9]))
        assert not is_sorted_by_start(np.array([2, 1]))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestAllAlgorithms:
    def test_sorts_by_start_vertex(self, algorithm, rng):
        u, v = _random_edges(rng)
        su, sv = sort_edges(u, v, algorithm=algorithm, num_vertices=64)
        assert is_sorted_by_start(su)

    def test_preserves_edge_multiset(self, algorithm, rng):
        u, v = _random_edges(rng)
        su, sv = sort_edges(u, v, algorithm=algorithm, num_vertices=64)
        before = np.sort(u * 64 + v)
        after = np.sort(su * 64 + sv)
        assert np.array_equal(before, after)

    def test_empty_input(self, algorithm):
        empty = np.array([], dtype=np.int64)
        su, sv = sort_edges(empty, empty.copy(), algorithm=algorithm,
                            num_vertices=4)
        assert len(su) == 0

    def test_already_sorted_unchanged_keys(self, algorithm):
        u = np.array([0, 1, 2, 3], dtype=np.int64)
        v = np.array([3, 2, 1, 0], dtype=np.int64)
        su, sv = sort_edges(u, v, algorithm=algorithm, num_vertices=4)
        assert np.array_equal(su, u)
        assert np.array_equal(sv, v)

    def test_all_equal_keys(self, algorithm):
        u = np.zeros(10, dtype=np.int64)
        v = np.arange(10, dtype=np.int64)
        su, sv = sort_edges(u, v, algorithm=algorithm, num_vertices=4)
        assert np.array_equal(np.sort(sv), np.arange(10))

    def test_by_end_vertex_lexicographic(self, algorithm, rng):
        u, v = _random_edges(rng, m=300, n=16)
        su, sv = sort_edges(u, v, algorithm=algorithm, num_vertices=16,
                            by_end_vertex=True)
        keys = su * 16 + sv
        assert np.all(np.diff(keys) >= 0)

    def test_agrees_with_numpy_reference(self, algorithm, rng):
        if algorithm == "numpy":
            pytest.skip("reference itself")
        u, v = _random_edges(rng, m=400, n=32)
        ref_u, _ = numpy_sort_edges(u, v)
        got_u, _ = sort_edges(u, v, algorithm=algorithm, num_vertices=32)
        assert np.array_equal(ref_u, got_u)


class TestStability:
    def test_numpy_stable(self):
        u = np.array([1, 0, 1, 0], dtype=np.int64)
        v = np.array([10, 20, 30, 40], dtype=np.int64)
        _, sv = numpy_sort_edges(u, v, stable=True)
        assert np.array_equal(sv, [20, 40, 10, 30])

    def test_counting_stable(self):
        u = np.array([1, 0, 1, 0], dtype=np.int64)
        v = np.array([10, 20, 30, 40], dtype=np.int64)
        _, sv = counting_sort_edges(u, v, num_vertices=2)
        assert np.array_equal(sv, [20, 40, 10, 30])

    def test_radix_stable(self):
        u = np.array([1, 0, 1, 0], dtype=np.int64)
        v = np.array([10, 20, 30, 40], dtype=np.int64)
        _, sv = radix_sort_edges(u, v)
        assert np.array_equal(sv, [20, 40, 10, 30])


def _assert_matches_stable_argsort(u, v):
    order = np.argsort(u, kind="stable")
    su, sv = numpy_sort_edges(u, v)
    assert su.dtype == u.dtype and sv.dtype == v.dtype
    assert np.array_equal(su, u[order])
    assert np.array_equal(sv, v[order])


class TestNumpySortDigitPasses:
    """The 16-bit-digit passes must reproduce numpy's own stable
    argsort exactly at every key-width switch."""

    @pytest.mark.parametrize("top", [
        1, 2**16 - 1, 2**16, 2**16 + 1, 2**18, 2**32 - 1, 2**32, 2**32 + 1,
        2**40, 2**62,
    ])
    def test_key_width_boundaries(self, top):
        rng = np.random.default_rng(top % 1000)
        u = rng.integers(0, top, size=4000, endpoint=True, dtype=np.int64)
        u[::97] = top  # the width-deciding key is present
        v = np.arange(len(u), dtype=np.int64)
        _assert_matches_stable_argsort(u, v)

    def test_high_digit_only_keys(self):
        # Keys that differ only above bit 16: the low pass is a no-op
        # and the order rests on the high pass alone.
        u = (np.arange(3000, dtype=np.int64) * 7919 % 40) << 16
        _assert_matches_stable_argsort(u, np.arange(len(u), dtype=np.int64))

    def test_heavy_duplicates(self, rng):
        u = rng.integers(0, 3, size=5000).astype(np.int64) * 70000
        _assert_matches_stable_argsort(u, np.arange(len(u), dtype=np.int64))

    @pytest.mark.parametrize("top", [100, 2**20])
    def test_already_sorted_and_reversed(self, top):
        u = np.sort(np.random.default_rng(3).integers(0, top, 2000))
        v = np.arange(len(u), dtype=np.int64)
        _assert_matches_stable_argsort(u, v)
        _assert_matches_stable_argsort(u[::-1].copy(), v)

    @pytest.mark.parametrize("low", [-1, -2**16, -2**40])
    def test_negative_keys(self, low):
        rng = np.random.default_rng(5)
        u = rng.integers(low, 2**17, size=3000, dtype=np.int64)
        u[7] = low
        _assert_matches_stable_argsort(u, np.arange(len(u), dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64])
    def test_other_integer_dtypes(self, dtype):
        rng = np.random.default_rng(9)
        u = rng.integers(0, 2**31 - 1, size=3000).astype(dtype)
        _assert_matches_stable_argsort(u, np.arange(len(u), dtype=np.int64))

    def test_single_and_empty(self):
        empty = np.array([], dtype=np.int64)
        _assert_matches_stable_argsort(empty, empty.copy())
        one = np.array([2**20], dtype=np.int64)
        _assert_matches_stable_argsort(one, one.copy())


class TestValidation:
    def test_counting_needs_num_vertices(self):
        u = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match="num_vertices"):
            sort_edges(u, u.copy(), algorithm="counting")

    def test_counting_rejects_out_of_range(self):
        u = np.array([9], dtype=np.int64)
        with pytest.raises(ValueError, match="outside"):
            counting_sort_edges(u, u.copy(), num_vertices=4)

    def test_radix_rejects_negative(self):
        u = np.array([-1], dtype=np.int64)
        with pytest.raises(ValueError, match="non-negative"):
            radix_sort_edges(u, u.copy())

    def test_radix_digit_bits_bounds(self):
        u = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            radix_sort_edges(u, u.copy(), digit_bits=30)

    def test_unknown_algorithm(self):
        u = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match="unknown sort algorithm"):
            sort_edges(u, u.copy(), algorithm="quantum")


class TestRadixWideKeys:
    def test_keys_beyond_one_digit(self, rng):
        u = rng.integers(0, 2**40, size=200).astype(np.int64)
        v = rng.integers(0, 100, size=200).astype(np.int64)
        su, sv = radix_sort_edges(u, v, digit_bits=11)
        assert np.all(np.diff(su) >= 0)
        assert np.array_equal(np.sort(u), su)
