"""Property-based tests for edge-file encoding and datasets."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.edgeio.format as fmt
from repro.edgeio.dataset import EdgeDataset, shard_slices
from repro.edgeio.errors import CorruptEdgeFileError
from repro.edgeio.format import (
    _decode_edges_fast,
    _decode_edges_split,
    _encode_edges_strings,
    decode_edges,
    encode_edges,
)

labels = st.integers(min_value=0, max_value=2**40)

# Labels whose decimal width is uniform over 1..18 digits, so narrow
# and wide tokens mix in one payload (uniform integers are almost
# always full width).
any_width_labels = st.integers(min_value=1, max_value=18).flatmap(
    lambda width: st.integers(min_value=0, max_value=10**width - 1)
)
whitespace = st.text(alphabet=" \t\n\r\x0b\x0c", min_size=1, max_size=3)


@st.composite
def edge_arrays(draw, max_edges=200):
    m = draw(st.integers(min_value=0, max_value=max_edges))
    u = draw(st.lists(labels, min_size=m, max_size=m))
    v = draw(st.lists(labels, min_size=m, max_size=m))
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


class TestFormatRoundTrip:
    @given(edges=edge_arrays())
    def test_encode_decode_identity(self, edges):
        u, v = edges
        ru, rv = decode_edges(encode_edges(u, v))
        assert np.array_equal(u, ru)
        assert np.array_equal(v, rv)

    @given(edges=edge_arrays(), base=st.sampled_from([0, 1]))
    def test_identity_under_vertex_base(self, edges, base):
        u, v = edges
        payload = encode_edges(u, v, vertex_base=base)
        ru, rv = decode_edges(payload, vertex_base=base)
        assert np.array_equal(u, ru)
        assert np.array_equal(v, rv)

    @given(edges=edge_arrays(max_edges=60))
    def test_strict_equals_fast(self, edges):
        u, v = edges
        payload = encode_edges(u, v)
        fast = decode_edges(payload)
        strict = decode_edges(payload, strict=True)
        assert np.array_equal(fast[0], strict[0])
        assert np.array_equal(fast[1], strict[1])

    @given(edges=edge_arrays(max_edges=50))
    def test_line_count_matches_edges(self, edges):
        u, v = edges
        payload = encode_edges(u, v)
        assert payload.count(b"\n") == len(u)


class TestFastPathsMatchReferences:
    """The dense paths against the string-kernel references, with the
    internal block shrunk so a few dozen tokens span several blocks."""

    @given(
        pairs=st.lists(st.tuples(any_width_labels, any_width_labels),
                       min_size=1, max_size=40),
        base=st.sampled_from([0, 1]),
        block=st.integers(min_value=40, max_value=400),
    )
    def test_encode_equals_string_kernels(self, pairs, base, block):
        u = np.array([p[0] for p in pairs], dtype=np.int64)
        v = np.array([p[1] for p in pairs], dtype=np.int64)
        with mock.patch.object(fmt, "_BLOCK_BYTES", block):
            payload = encode_edges(u, v, vertex_base=base)
        assert payload == _encode_edges_strings(u + base, v + base)

    @given(
        tokens=st.lists(any_width_labels, min_size=1, max_size=60),
        gaps=st.lists(whitespace, min_size=61, max_size=61),
        lead=st.booleans(),
        trail=st.booleans(),
        block=st.integers(min_value=1, max_value=200),
    )
    def test_decode_equals_split_tokenizer(self, tokens, gaps, lead, trail,
                                           block):
        text = gaps[0] if lead else ""
        text += "".join(
            f"{token}{gap}" for token, gap in zip(tokens[:-1], gaps[1:])
        )
        text += str(tokens[-1]) + (gaps[-1] if trail else "")
        payload = text.encode("ascii")
        with mock.patch.object(fmt, "_BLOCK_BYTES", block):
            if len(tokens) % 2:
                for parse in (_decode_edges_fast, _decode_edges_split):
                    with pytest.raises(CorruptEdgeFileError,
                                       match=rf"tokens \({len(tokens)}\)"):
                        parse(payload)
                return
            fast = _decode_edges_fast(payload)
        legacy = _decode_edges_split(payload)
        assert fast is not None
        for got, want in zip(fast, legacy):
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert np.array_equal(got, want)


class TestShardSlicesProperties:
    @given(
        m=st.integers(min_value=0, max_value=100000),
        shards=st.integers(min_value=1, max_value=64),
    )
    def test_partition_properties(self, m, shards):
        slices = shard_slices(m, shards)
        assert len(slices) == shards
        assert slices[0][0] == 0
        assert slices[-1][1] == m
        sizes = [end - start for start, end in slices]
        assert sum(sizes) == m
        assert max(sizes) - min(sizes) <= 1
        for (_, prev_end), (next_start, _) in zip(slices, slices[1:]):
            assert prev_end == next_start


class TestDatasetRoundTrip:
    @settings(max_examples=30)
    @given(
        edges=edge_arrays(max_edges=150),
        shards=st.integers(min_value=1, max_value=6),
        fmt=st.sampled_from(["tsv", "npy"]),
    )
    def test_write_open_read_identity(self, tmp_path_factory, edges, shards, fmt):
        u, v = edges
        n = int(max(u.max(initial=0), v.max(initial=0))) + 1
        base = tmp_path_factory.mktemp("prop-ds")
        EdgeDataset.write(base / "d", u, v, num_vertices=n,
                          num_shards=shards, fmt=fmt)
        ds = EdgeDataset.open(base / "d")
        ru, rv = ds.read_all()
        assert np.array_equal(u, ru)
        assert np.array_equal(v, rv)
        assert ds.num_edges == len(u)

    @settings(max_examples=20)
    @given(
        edges=edge_arrays(max_edges=150),
        batch=st.integers(min_value=1, max_value=64),
    )
    def test_iter_batches_reassembles(self, tmp_path_factory, edges, batch):
        u, v = edges
        n = int(max(u.max(initial=0), v.max(initial=0))) + 1
        base = tmp_path_factory.mktemp("prop-batch")
        ds = EdgeDataset.write(base / "d", u, v, num_vertices=n, num_shards=3)
        batches = list(ds.iter_batches(batch))
        if batches:
            cat_u = np.concatenate([b[0] for b in batches])
            cat_v = np.concatenate([b[1] for b in batches])
        else:
            cat_u = np.empty(0, dtype=np.int64)
            cat_v = np.empty(0, dtype=np.int64)
        assert np.array_equal(cat_u, u)
        assert np.array_equal(cat_v, v)
        assert all(len(b[0]) == batch for b in batches[:-1])
