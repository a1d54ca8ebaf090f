"""Unit tests for Kernel 1's in-memory sort."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sort.inmemory import (
    _pack_pairs,
    is_sorted_by_pair,
    is_sorted_by_start,
    pair_order,
    sort_edges,
)


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


def _key_dtype(width):
    """The packed key a ``width``-bit key takes; ``None``: the fallback."""
    if width <= 32:
        return np.uint32
    return np.uint64 if width <= 64 else None


def _labels(rng, bits, m):
    """``m`` labels below ``2**bits``, its top present, with duplicates."""
    top = (1 << bits) - 1
    pool = rng.integers(0, top, size=max(1, m // 50), endpoint=True,
                        dtype=np.uint64).astype(np.int64)
    pool[0] = top
    return pool[rng.integers(0, len(pool), size=m)]


def _assert_key(a, b, width):
    packed = _pack_pairs(a, b)
    want = _key_dtype(width)
    assert (packed is None) if want is None else packed[0].dtype == want


# Key widths either side of the two switches: uint32 -> uint64 and
# uint64 -> numpy's reference call.
_WIDTHS = [32, 33, 64, 65]
_M = 4000  # positions take bits(_M - 1) = 12 bits


class TestStartVertexKeyWidths:
    """By start vertex the key is ``(u, position)``, ``bits(u) +
    bits(m - 1)`` wide; the sort must equal numpy's stable argsort
    exactly on either side of every switch."""

    @pytest.mark.parametrize("width", _WIDTHS)
    def test_key_width_switches(self, width):
        u = _labels(np.random.default_rng(width), width - 12, _M)
        v = np.arange(len(u), dtype=np.int64)
        _assert_key(u, v, width)
        _assert_matches_stable_argsort(u, v)

    @pytest.mark.parametrize("m", [1, 2, 3, 2**16 + 1])
    def test_position_bits(self, rng, m):
        # A wide key from many positions over few labels.
        u = rng.integers(0, 3, size=m).astype(np.int64)
        _assert_matches_stable_argsort(u, rng.integers(0, 9, size=m))

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

    def test_non_integer_keys(self):
        u = np.array([0.5, 0.25, 0.5, 0.25])
        _assert_matches_stable_argsort(u, np.arange(4, dtype=np.int64))

    def test_single_and_empty(self):
        empty = np.array([], dtype=np.int64)
        _assert_matches_stable_argsort(empty, empty.copy())
        one = np.array([2**20], dtype=np.int64)
        _assert_matches_stable_argsort(one, one.copy())


class TestPairKeyWidths:
    """With ``by_end_vertex`` the key is ``(u, v)``, ``bits(u) +
    bits(v)`` wide; the result must be ``np.lexsort((v, u))`` exactly on
    either side of every switch, whichever label is the wide one."""

    @pytest.mark.parametrize("width", _WIDTHS)
    @pytest.mark.parametrize("wide", ["u", "v"])
    def test_key_width_switches(self, width, wide):
        rng = np.random.default_rng(width)
        narrow = 7
        u = _labels(rng, width - narrow if wide == "u" else narrow, _M)
        v = _labels(rng, width - narrow if wide == "v" else narrow, _M)
        _assert_key(u, v, width)
        su, sv = sort_edges(u, v, by_end_vertex=True)
        ref_u, ref_v = _reference(u, v, True)
        assert su.dtype == u.dtype and sv.dtype == v.dtype
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

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.uint64])
    def test_other_integer_dtypes(self, dtype):
        rng = np.random.default_rng(13)
        u = rng.integers(0, 2**12, size=3000).astype(dtype)
        v = rng.integers(0, 2**31 - 1, size=3000).astype(dtype)
        su, sv = sort_edges(u, v, by_end_vertex=True)
        ref_u, ref_v = _reference(u, v, True)
        assert su.dtype == sv.dtype == dtype
        assert np.array_equal(su, ref_u)
        assert np.array_equal(sv, ref_v)

    def test_single_edge(self):
        one = np.array([2**40], dtype=np.int64)
        su, sv = sort_edges(one, one.copy(), by_end_vertex=True)
        assert su.tolist() == sv.tolist() == [2**40]


class TestPairOrderKeyWidths:
    """``pair_order`` is one packed pass over ``((u, v), position)``
    when that fits 64 bits, else a pass over ``(v, position)`` and one
    over ``(u[order], position)``; every route must give
    ``np.lexsort((v, u))`` exactly on either side of its switches."""

    @pytest.mark.parametrize("u_bits,v_bits", [
        (7, 13), (7, 14), (20, 0), (7, 45),  # one pass: 32, 33, 32, 64 bits
        (7, 46), (7, 52), (52, 7),  # two passes, one of them 58 or 64 bits
        (7, 53), (53, 7),  # a 65-bit pass: np.lexsort
    ])
    def test_key_width_switches(self, u_bits, v_bits):
        rng = np.random.default_rng(u_bits * 64 + v_bits)
        u, v = _labels(rng, u_bits, _M), _labels(rng, v_bits, _M)
        positions = np.arange(_M)
        _assert_key(_pack_pairs(u, v)[0], positions, u_bits + v_bits + 12)
        _assert_key(v, positions, v_bits + 12)
        _assert_key(u, positions, u_bits + 12)
        order = pair_order(u, v)
        assert order.dtype == np.intp
        assert np.array_equal(order, np.lexsort((v, u)))


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
