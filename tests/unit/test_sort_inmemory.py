"""Unit tests for Kernel 1's in-memory sort."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sort.inmemory import is_sorted_by_pair, is_sorted_by_start, sort_edges


def _random_edges(rng, m=500, n=64):
    u = rng.integers(0, n, size=m).astype(np.int64)
    v = rng.integers(0, n, size=m).astype(np.int64)
    return u, v


class TestIsSorted:
    def test_empty_and_single(self):
        assert is_sorted_by_start(np.array([], dtype=np.int64))
        assert is_sorted_by_start(np.array([5]))
        assert is_sorted_by_pair(np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64))
        assert is_sorted_by_pair(np.array([5]), np.array([1]))

    def test_detects_order(self):
        assert is_sorted_by_start(np.array([1, 1, 2, 9]))
        assert not is_sorted_by_start(np.array([2, 1]))

    def test_pair_order_compares_ends_on_ties_only(self):
        u = np.array([1, 1, 2, 2], dtype=np.int64)
        assert is_sorted_by_pair(u, np.array([3, 5, 0, 0]))
        assert not is_sorted_by_pair(u, np.array([5, 3, 0, 0]))
        # A falling end vertex across a start-vertex step is in order.
        assert is_sorted_by_pair(u, np.array([3, 9, 1, 4]))


def _reference(u, v, by_end_vertex):
    order = np.lexsort((v, u)) if by_end_vertex else np.argsort(u, kind="stable")
    return u[order], v[order]


# Both key modes of the one sort: start vertex only, and (u, v).
@pytest.mark.parametrize("by_end_vertex", [False, True], ids=["by_u", "by_uv"])
class TestSortEdges:
    def test_sorts_by_start_vertex(self, rng, by_end_vertex):
        u, v = _random_edges(rng)
        su, sv = sort_edges(u, v, by_end_vertex=by_end_vertex)
        assert is_sorted_by_start(su)
        if by_end_vertex:
            assert is_sorted_by_pair(su, sv)

    def test_preserves_edge_multiset(self, rng, by_end_vertex):
        u, v = _random_edges(rng)
        su, sv = sort_edges(u, v, by_end_vertex=by_end_vertex)
        assert np.array_equal(np.sort(u * 64 + v), np.sort(su * 64 + sv))

    def test_empty_input(self, by_end_vertex):
        empty = np.array([], dtype=np.int64)
        su, sv = sort_edges(empty, empty.copy(), by_end_vertex=by_end_vertex)
        assert len(su) == len(sv) == 0
        assert su.dtype == sv.dtype == np.int64

    def test_already_sorted_unchanged(self, by_end_vertex):
        u = np.array([0, 1, 2, 3], dtype=np.int64)
        v = np.array([3, 2, 1, 0], dtype=np.int64)
        su, sv = sort_edges(u, v, by_end_vertex=by_end_vertex)
        assert np.array_equal(su, u)
        assert np.array_equal(sv, v)

    def test_all_equal_keys(self, by_end_vertex):
        # One start vertex: by u the input order stands, by (u, v) the
        # end vertices come out ascending.
        u = np.zeros(10, dtype=np.int64)
        v = np.arange(10, dtype=np.int64)[::-1].copy()
        su, sv = sort_edges(u, v, by_end_vertex=by_end_vertex)
        assert np.array_equal(su, u)
        assert np.array_equal(sv, np.sort(v) if by_end_vertex else v)

    def test_matches_reference(self, rng, by_end_vertex):
        u, v = _random_edges(rng, m=300, n=16)
        su, sv = sort_edges(u, v, by_end_vertex=by_end_vertex)
        ref_u, ref_v = _reference(u, v, by_end_vertex)
        assert np.array_equal(su, ref_u)
        assert np.array_equal(sv, ref_v)


class TestSortEdgesOrder:
    def test_stable(self):
        u = np.array([1, 0, 1, 0], dtype=np.int64)
        v = np.array([10, 20, 30, 40], dtype=np.int64)
        _, sv = sort_edges(u, v)
        assert np.array_equal(sv, [20, 40, 10, 30])

    def test_by_end_vertex_is_lexsort(self, rng):
        u, v = _random_edges(rng, m=300, n=16)
        su, sv = sort_edges(u, v, by_end_vertex=True)
        assert is_sorted_by_pair(su, sv)
        order = np.lexsort((v, u))
        assert np.array_equal(su, u[order])
        assert np.array_equal(sv, v[order])


def _assert_matches_stable_argsort(u, v):
    order = np.argsort(u, kind="stable")
    su, sv = sort_edges(u, v)
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


class TestPairModeDigitPasses:
    """With ``by_end_vertex`` the digit passes run over ``v`` and then
    ``u``; the result must be ``np.lexsort((v, u))`` exactly whichever
    of the two keys crosses a width switch."""

    @staticmethod
    def _keys(rng, top, m=4000, distinct=60):
        # Few distinct values reaching ``top``: many ties, so the order
        # within a start vertex rests on the end vertices.
        pool = rng.integers(0, top, size=distinct, endpoint=True, dtype=np.int64)
        pool[0] = top
        return pool[rng.integers(0, distinct, size=m)]

    @pytest.mark.parametrize("top", [
        1, 2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**40,
    ])
    @pytest.mark.parametrize("wide", ["u", "v"])
    def test_key_width_boundaries(self, top, wide):
        rng = np.random.default_rng(top % 1000)
        u = self._keys(rng, top if wide == "u" else 100)
        v = self._keys(rng, top if wide == "v" else 100)
        su, sv = sort_edges(u, v, by_end_vertex=True)
        ref_u, ref_v = _reference(u, v, True)
        assert np.array_equal(su, ref_u)
        assert np.array_equal(sv, ref_v)

    def test_negative_end_vertices(self):
        rng = np.random.default_rng(11)
        u = rng.integers(0, 50, size=2000, dtype=np.int64)
        v = rng.integers(-2**17, 2**17, size=2000, dtype=np.int64)
        su, sv = sort_edges(u, v, by_end_vertex=True)
        ref_u, ref_v = _reference(u, v, True)
        assert np.array_equal(su, ref_u)
        assert np.array_equal(sv, ref_v)


class TestValidation:
    def test_unknown_algorithm(self):
        u = np.array([0], dtype=np.int64)
        for algorithm in ("quantum", "counting", "radix"):
            with pytest.raises(ValueError, match="unknown sort algorithm"):
                sort_edges(u, u.copy(), algorithm=algorithm)

    def test_numpy_algorithm_and_num_vertices_are_accepted(self, rng):
        # Older callers name the sort and pass N; both change nothing.
        u, v = _random_edges(rng)
        plain_u, plain_v = sort_edges(u, v)
        named_u, named_v = sort_edges(u, v, algorithm="numpy", num_vertices=1)
        assert np.array_equal(named_u, plain_u)
        assert np.array_equal(named_v, plain_v)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            sort_edges(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))
