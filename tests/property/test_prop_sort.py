"""Property-based tests for the sorting substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sort.inmemory import (
    _pack_pairs,
    collapse_duplicates,
    pair_order,
    sort_edges,
)

N_MAX = 64


@st.composite
def edge_lists(draw, max_edges=300, num_vertices=N_MAX):
    m = draw(st.integers(min_value=0, max_value=max_edges))
    u = draw(
        st.lists(st.integers(0, num_vertices - 1), min_size=m, max_size=m)
    )
    v = draw(
        st.lists(st.integers(0, num_vertices - 1), min_size=m, max_size=m)
    )
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


class TestSortProperties:
    @given(edges=edge_lists())
    def test_output_sorted(self, edges):
        u, v = edges
        sorted_u, _ = sort_edges(u, v)
        assert np.all(np.diff(sorted_u) >= 0)

    @given(edges=edge_lists())
    def test_permutation_property(self, edges):
        u, v = edges
        sorted_u, sorted_v = sort_edges(u, v)
        assert np.array_equal(np.sort(u * N_MAX + v),
                              np.sort(sorted_u * N_MAX + sorted_v))

    @given(edges=edge_lists())
    def test_equals_stable_argsort(self, edges):
        # The sort is stable, so the full (u, v) stream is determined.
        u, v = edges
        order = np.argsort(u, kind="stable")
        sorted_u, sorted_v = sort_edges(u, v)
        assert np.array_equal(sorted_u, u[order])
        assert np.array_equal(sorted_v, v[order])

    @given(edges=edge_lists())
    def test_idempotent(self, edges):
        u, v = edges
        once_u, once_v = sort_edges(u, v)
        twice_u, twice_v = sort_edges(once_u, once_v)
        assert np.array_equal(once_u, twice_u)
        assert np.array_equal(once_v, twice_v)

    @given(edges=edge_lists())
    def test_lexicographic_mode_equals_lexsort(self, edges):
        u, v = edges
        order = np.lexsort((v, u))
        su, sv = sort_edges(u, v, by_end_vertex=True)
        assert np.array_equal(su, u[order])
        assert np.array_equal(sv, v[order])


@st.composite
def wide_edges(draw):
    """Edges whose packed keys sit on either side of the two switches:
    ``uint32`` -> ``uint64`` (32/33 bits) and ``uint64`` -> numpy's
    reference call (64/65 bits).  By start vertex the key is ``bits(u) +
    bits(m - 1)`` wide, by ``(u, v)`` ``bits(u) + bits(v)``, and
    ``pair_order``'s keys add ``bits(m - 1)`` to ``v`` or to both."""
    m = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from((np.int64, np.uint64)))
    max_bits = np.iinfo(dtype).bits - (dtype == np.int64)
    pos_bits = (m - 1).bit_length()

    def bits(width, taken):
        return min(max(0, width - taken), max_bits)

    u_bits = bits(draw(st.sampled_from((32, 33, 64, 65))), pos_bits)
    # v's width completes the (u, v) key, the (v, position) key, or
    # pair_order's one-pass ((u, v), position) key.
    v_width, v_taken = draw(st.sampled_from(
        [(w, taken) for w in (32, 33, 64, 65)
         for taken in (u_bits, pos_bits, u_bits + pos_bits)]
    ))
    v_bits = bits(v_width, v_taken)

    def labels(nbits):
        top = (1 << nbits) - 1
        near = st.integers(max(0, top - 2), top)  # a window: duplicates
        drawn = draw(st.lists(near | st.integers(0, top),
                              min_size=m - 1, max_size=m - 1))
        values = np.array([top] + drawn, dtype=dtype)
        return values[draw(st.permutations(range(m)))]

    return labels(u_bits), labels(v_bits)


class TestKeyWidthProperty:
    @settings(max_examples=300)
    @given(edges=wide_edges())
    def test_every_entry_point_equals_numpy(self, edges):
        u, v = edges
        order = np.argsort(u, kind="stable")
        su, sv = sort_edges(u, v)
        assert np.array_equal(su, u[order]) and np.array_equal(sv, v[order])
        lex = np.lexsort((v, u))
        su, sv = sort_edges(u, v, by_end_vertex=True)
        assert np.array_equal(su, u[lex]) and np.array_equal(sv, v[lex])
        assert su.dtype == u.dtype and sv.dtype == v.dtype
        assert np.array_equal(pair_order(u, v), lex)


class TestExternalSortProperty:
    @pytest.mark.parametrize("by_end_vertex", [False, True], ids=["by_u", "by_uv"])
    @settings(max_examples=25)
    @given(
        edges=edge_lists(max_edges=500),
        batch=st.integers(min_value=7, max_value=100),
        shards=st.integers(min_value=1, max_value=5),
    )
    def test_external_equals_in_memory(self, tmp_path_factory, by_end_vertex,
                                       edges, batch, shards):
        # Byte for byte: ties in u leave the merge in input order.
        from repro.edgeio.dataset import EdgeDataset
        from repro.sort.external import ExternalSortConfig, external_sort_dataset

        u, v = edges
        base = tmp_path_factory.mktemp("prop-extsort")
        ds = EdgeDataset.write(base / "in", u, v, num_vertices=N_MAX,
                               num_shards=shards)
        out = external_sort_dataset(
            ds, base / "out", by_end_vertex=by_end_vertex,
            config=ExternalSortConfig(batch_edges=batch, fan_in=3,
                                      merge_block_edges=16),
        )
        su, sv = out.read_all()
        ref_u, ref_v = sort_edges(u, v, by_end_vertex=by_end_vertex)
        assert np.array_equal(su, ref_u)
        assert np.array_equal(sv, ref_v)


# Label ranges whose packed keys straddle the switches of the
# pair-ordering primitive: with up to 200 positions (at most 8 bits),
# (label, position) and ((u, v), position) keys near 32 bits (uint32 ->
# uint64) or near 64 bits (one pass -> two passes -> np.lexsort).
_TOPS = (3, 2**23 - 1, 2**24 - 1, 2**24, 2**32 - 1, 2**32,
         2**55 - 1, 2**56 - 1, 2**56, 2**62)


@st.composite
def keys(draw, m):
    top = draw(st.sampled_from(_TOPS))
    # A narrow window under ``top`` gives heavy duplicates; -4 exercises
    # the negative-key fallback.
    low = draw(st.sampled_from((0, max(0, top - 3), -4)))
    dtype = draw(st.sampled_from([
        d for d in (np.int32, np.uint32, np.int64)
        if top <= np.iinfo(d).max and low >= np.iinfo(d).min
    ]))
    values = draw(st.lists(st.integers(low, top), min_size=m, max_size=m))
    return np.array(values, dtype=dtype)


@st.composite
def key_pairs(draw, max_len=200):
    m = draw(st.integers(min_value=0, max_value=max_len))
    u, v = draw(keys(m)), draw(keys(m))
    layout = draw(st.sampled_from(("as-drawn", "sorted", "reversed")))
    if layout != "as-drawn":
        order = np.lexsort((v, u))
        if layout == "reversed":
            order = order[::-1]
        u, v = u[order], v[order]
    if draw(st.booleans()):  # shm-style read-only views
        u.setflags(write=False)
        v.setflags(write=False)
    return u, v


def _collapse_by_lexsort(u, v):
    """The run-collapse the three former copies spelled out."""
    if len(u) == 0:
        return u, v, np.empty(0, dtype=np.float64)
    order = np.lexsort((v, u))
    su, sv = u[order], v[order]
    new_pair = np.r_[True, (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])]
    counts = np.bincount(np.cumsum(new_pair) - 1).astype(np.float64)
    return su[new_pair], sv[new_pair], counts


class TestPairOrdering:
    @settings(max_examples=300)
    @given(pair=key_pairs())
    def test_pair_order_is_lexsort(self, pair):
        u, v = pair
        order = pair_order(u, v)
        assert order.dtype == np.intp
        assert np.array_equal(order, np.lexsort((v, u)))

    @settings(max_examples=200)
    @given(pair=key_pairs())
    def test_collapse_duplicates_matches_lexsort_body(self, pair):
        u, v = pair
        for got, want in zip(collapse_duplicates(u, v),
                             _collapse_by_lexsort(u, v)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    # (bit length of max(u), of max(v)): the packed key is uint32 up to
    # a sum of 32, uint64 up to 64, and past that pair_order takes over.
    @pytest.mark.parametrize("u_bits,v_bits", [
        (15, 16), (31, 0), (16, 16), (0, 32), (17, 16), (1, 32),
        (31, 32), (63, 0), (32, 32), (1, 63), (0, 64), (33, 32), (2, 63),
    ])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_collapse_at_the_packing_edges(self, data, u_bits, v_bits):
        dtype = data.draw(st.sampled_from([
            d for d in (np.int32, np.uint32, np.int64, np.uint64)
            if np.iinfo(d).max >= (1 << max(u_bits, v_bits)) - 1
        ]))
        m = data.draw(st.integers(1, 40))

        def labels(bits):
            top = (1 << bits) - 1
            near = st.integers(max(0, top - 2), top)  # a window: duplicates
            drawn = data.draw(st.lists(near | st.integers(0, top),
                                       min_size=m, max_size=m))
            return np.array([top] + drawn, dtype=dtype)

        u, v = labels(u_bits), labels(v_bits)
        packed = _pack_pairs(u, v)
        if u_bits + v_bits > 64:
            assert packed is None
        else:
            wide = u_bits + v_bits > 32
            assert packed[0].dtype == (np.uint64 if wide else np.uint32)
        for a, b in ((u, v), (v, u)):
            for got, want in zip(collapse_duplicates(a, b),
                                 _collapse_by_lexsort(a, b)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_negative_labels_take_the_fallback(self, dtype):
        u = np.array([3, -1, 3, -1, 0], dtype=dtype)
        v = np.array([2, 5, 2, -7, 0], dtype=dtype)
        for got, want in zip(collapse_duplicates(u, v),
                             _collapse_by_lexsort(u, v)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint32, np.int64])
    def test_collapse_degenerate_shapes(self, dtype):
        empty = np.empty(0, dtype=dtype)
        rows, cols, counts = collapse_duplicates(empty, empty)
        assert rows.dtype == cols.dtype == dtype and counts.dtype == np.float64
        assert len(rows) == len(cols) == len(counts) == 0
        same_u, same_v = np.full(9, 5, dtype=dtype), np.full(9, 2, dtype=dtype)
        rows, cols, counts = collapse_duplicates(same_u, same_v)  # all duplicates
        assert (rows.tolist(), cols.tolist(), counts.tolist()) == ([5], [2], [9.0])
        u = np.arange(12, dtype=dtype)[::-1].copy()  # no duplicates
        rows, cols, counts = collapse_duplicates(u, u // 3)
        assert rows.tolist() == list(range(12)) and rows.dtype == dtype
        assert cols.tolist() == [i // 3 for i in range(12)]
        assert counts.tolist() == [1.0] * 12 and counts.dtype == np.float64

    @given(pair=key_pairs())
    def test_swapped_collapse_is_the_column_major_twin(self, pair):
        u, v = pair
        rows, cols, counts = collapse_duplicates(u, v)
        twin_cols, twin_rows, twin_counts = collapse_duplicates(v, u)
        # Same triples; the twin is ordered by (col, row).
        order = np.lexsort((rows, cols))
        assert np.array_equal(twin_rows, rows[order])
        assert np.array_equal(twin_cols, cols[order])
        assert np.array_equal(twin_counts, counts[order])

    def test_single_element(self):
        one = np.array([7], dtype=np.int64)
        assert pair_order(one, one).tolist() == [0]
        rows, cols, counts = collapse_duplicates(one, one)
        assert (rows.tolist(), cols.tolist(), counts.tolist()) == ([7], [7], [1.0])

    def test_non_integer_keys_fall_back(self):
        u = np.array([0.5, 0.25, 0.5])
        v = np.array([2.0, 1.0, 1.0])
        assert pair_order(u, v).tolist() == [1, 2, 0]


class TestStreamingKernel2Property:
    """Streaming Kernel 2 equals the in-memory one at any batch size."""

    N = 16

    @settings(max_examples=25)
    @given(edges=edge_lists(max_edges=120, num_vertices=16))
    def test_equals_scipy_kernel2(self, tmp_path_factory, edges):
        from repro.backends.registry import get_backend
        from repro.core.config import PipelineConfig
        from repro.core.streaming import streaming_kernel2
        from repro.edgeio.dataset import EdgeDataset

        u, v = sort_edges(*edges)
        m = len(u)
        base = tmp_path_factory.mktemp("prop-streamk2")
        ds = EdgeDataset.write(base / "k1", u, v, num_vertices=self.N)
        reference, _ = get_backend("scipy").kernel2(
            PipelineConfig(scale=4, seed=1), ds
        )
        expected = reference.to_scipy_csr()
        for batch_edges in (1, 2, 3, 257, max(m, 1), 4 * max(m, 1)):
            for overlap_io in (False, True):
                got = streaming_kernel2(
                    ds, batch_edges=batch_edges, overlap_io=overlap_io
                )
                assert got.pre_filter_entry_total == m
                assert (got.matrix != expected).nnz == 0
