"""The vertex-label dtype rule (``repro.labels``) at its switch points.

Labels are ``uint32`` while every one is below ``2**32`` and ``int64``
otherwise; values never change, only their width.  These tests pin the
switch in the rule itself, in the TSV codec (which crosses it in both
directions through ``vertex_base``), in the dataset reader (a label
below the vertex base must be refused by its on-disk value, not as a
wrapped ``uint32``) and in the shared-memory shard buffer.  numpy 1.21
promotes ``uint32 ± python int`` by value and numpy 2 by type, so the
suite runs on the oldest supported numpy too.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.shmplane import ShardBuffer, shm_available
from repro.edgeio.dataset import EdgeDataset
from repro.edgeio.errors import CorruptEdgeFileError
from repro.edgeio.format import _encode_edges_strings, decode_edges, encode_edges
from repro.labels import (
    NARROW,
    NARROW_LIMIT,
    WIDE,
    edge_dtype,
    fit_labels,
    label_dtype,
    shift_labels,
)

TOP = NARROW_LIMIT - 1  # the largest narrow label


class TestRule:
    @pytest.mark.parametrize("bound, dtype", [
        (1, NARROW), (1 << 14, NARROW), (NARROW_LIMIT, NARROW),
        (NARROW_LIMIT + 1, WIDE), (1 << 40, WIDE),
    ])
    def test_label_dtype_by_bound(self, bound, dtype):
        assert label_dtype(bound) == dtype

    def test_edge_dtype_is_narrow_only_when_both_are(self):
        narrow = np.zeros(2, NARROW)
        wide = np.zeros(2, WIDE)
        assert edge_dtype(narrow, narrow) == NARROW
        assert edge_dtype(narrow, wide) == WIDE
        assert edge_dtype(wide, wide) == WIDE

    @pytest.mark.parametrize("top, dtype", [(TOP, NARROW), (TOP + 1, WIDE)])
    def test_fit_labels_switches_at_2_32(self, top, dtype):
        u = np.array([0, top], dtype=np.int64)
        v = np.array([5, 6], dtype=np.int64)
        fu, fv = fit_labels(u, v)
        assert fu.dtype == fv.dtype == dtype  # one dtype for the pair
        assert fu.tolist() == [0, top] and fv.tolist() == [5, 6]

    def test_fit_labels_keeps_negatives_wide(self):
        fu, fv = fit_labels(np.array([-1, 2]), np.array([3, 4]))
        assert fu.dtype == fv.dtype == WIDE
        assert fu.tolist() == [-1, 2]

    def test_fit_labels_passes_narrow_through(self):
        u = np.arange(4, dtype=NARROW)
        assert fit_labels(u, u)[0] is u

    @pytest.mark.parametrize("delta", [1, -1, 7])
    def test_shift_inside_the_narrow_range_stays_narrow(self, delta):
        u = np.array([10, 20], dtype=NARROW)
        su, sv = shift_labels(u, u, delta)
        assert su.dtype == sv.dtype == NARROW
        assert su.tolist() == [10 + delta, 20 + delta]

    def test_shift_past_2_32_widens_instead_of_wrapping(self):
        u = np.array([0, TOP], dtype=NARROW)
        su, sv = shift_labels(u, np.array([1, 2], dtype=NARROW), 1)
        assert su.dtype == sv.dtype == WIDE
        assert su.tolist() == [1, TOP + 1] and sv.tolist() == [2, 3]

    def test_shift_below_zero_widens_instead_of_wrapping(self):
        u = np.array([0, 5], dtype=NARROW)
        su, sv = shift_labels(u, np.array([3, 4], dtype=NARROW), -1)
        assert su.dtype == sv.dtype == WIDE
        assert su.tolist() == [-1, 4] and sv.tolist() == [2, 3]

    def test_no_shift_returns_the_arrays(self):
        u = np.array([1], dtype=NARROW)
        assert shift_labels(u, u, 0)[0] is u
        empty = np.empty(0, NARROW)
        assert shift_labels(empty, empty, 1)[0].dtype == NARROW


class TestCodecAtTheSwitch:
    """Round trips at the decoder's 9/10-digit accumulator switch and at
    the 2**32 label-dtype switch, with both vertex bases."""

    @pytest.mark.parametrize("base", [0, 1])
    @pytest.mark.parametrize("top", [
        999_999_999, 1_000_000_000, TOP, TOP + 1,
    ])
    def test_round_trip_values_and_dtype(self, top, base):
        u = np.array([top, 0, 7], dtype=np.int64)
        v = np.array([3, top, top - 1], dtype=np.int64)
        payload = encode_edges(u, v, vertex_base=base)
        assert payload == _encode_edges_strings(u + base, v + base)
        ru, rv = decode_edges(payload, vertex_base=base)
        assert ru.tolist() == u.tolist() and rv.tolist() == v.tolist()
        want = np.uint32 if top < NARROW_LIMIT else np.int64
        assert ru.dtype == rv.dtype == want

    @pytest.mark.parametrize("base", [0, 1])
    def test_narrow_input_encodes_like_wide(self, base):
        # The encoder reads uint32 labels as they are; 2**32 - 1 written
        # 1-based is 4294967296, not a wrapped 0.
        u = np.array([TOP, 0, 12], dtype=np.uint32)
        v = np.array([1, TOP, 0], dtype=np.uint32)
        narrow = encode_edges(u, v, vertex_base=base)
        assert narrow == encode_edges(u.astype(np.int64), v.astype(np.int64),
                                      vertex_base=base)
        assert narrow.split(b"\n")[0] == f"{TOP + base}\t{1 + base}".encode()

    def test_label_below_the_base_decodes_negative(self):
        u, v = decode_edges(b"0\t3\n2\t1\n", vertex_base=1)
        assert u.dtype == v.dtype == np.int64
        assert u.tolist() == [-1, 1] and v.tolist() == [2, 0]

    def test_strict_decode_follows_the_rule(self):
        u, v = decode_edges(b"1\t2\n", strict=True)
        assert u.dtype == v.dtype == np.uint32
        u, v = decode_edges(f"{TOP + 1}\t2\n".encode(), strict=True)
        assert u.dtype == v.dtype == np.int64


class TestDatasetLabels:
    def test_label_zero_in_a_one_based_shard_is_refused(self, tmp_path):
        u = np.array([0, 1], dtype=np.uint32)
        EdgeDataset.write(tmp_path / "d", u, u[::-1].copy(), num_vertices=4,
                          vertex_base=1)
        shard = tmp_path / "d" / "part-00000.tsv"
        assert shard.read_bytes() == b"1\t2\n2\t1\n"
        shard.write_bytes(b"0\t2\n2\t1\n")  # same size: only the label check
        dataset = EdgeDataset.open(tmp_path / "d")
        with pytest.raises(CorruptEdgeFileError) as caught:
            dataset.read_shard(0)
        message = str(caught.value)
        assert "min=0" in message and "[1, 5)" in message
        assert "4294967295" not in message

    def test_read_all_is_the_label_dtype_of_num_vertices(self, tmp_path):
        rng = np.random.default_rng(3)
        u = rng.integers(0, 1000, 500)
        v = rng.integers(0, 1000, 500)
        for fmt in ("tsv", "npy"):
            EdgeDataset.write(tmp_path / fmt, u, v, num_vertices=1000,
                              num_shards=5, fmt=fmt)
            for mmap in (False, True):
                ru, rv = EdgeDataset.open(tmp_path / fmt, mmap=mmap).read_all()
                assert ru.dtype == rv.dtype == np.uint32
                assert np.array_equal(ru, u) and np.array_equal(rv, v)

    def test_npy_shards_stay_int64_on_disk(self, tmp_path):
        u = np.arange(6, dtype=np.uint32)
        EdgeDataset.write(tmp_path / "d", u, u, num_vertices=6, fmt="npy")
        assert np.load(tmp_path / "d" / "part-00000.npy").dtype == np.int64

    def test_read_all_checks_each_shard_before_copying(self, tmp_path):
        u = np.arange(8, dtype=np.uint32)
        EdgeDataset.write(tmp_path / "d", u, u, num_vertices=8, num_shards=2)
        (tmp_path / "d" / "part-00001.tsv").write_bytes(b"4\t4\n5\t5\n6\t6\n9\t9\n")
        with pytest.raises(CorruptEdgeFileError, match="outside"):
            EdgeDataset.open(tmp_path / "d", verify=False).read_all()
        (tmp_path / "d" / "part-00001.tsv").write_bytes(b"4\t4\n")
        with pytest.raises(CorruptEdgeFileError, match="manifest says 4"):
            EdgeDataset.open(tmp_path / "d", verify=False).read_all()

    def test_read_all_holds_one_shard_beside_the_result(self, tmp_path):
        # Concatenating would hold every decoded shard plus their
        # concatenation: twice the result.  Preallocating holds the
        # result, one decoded shard and the codec's block temporaries.
        edges = 400_000
        u = (np.arange(edges, dtype=np.uint32) * 7919) % 100_000
        dataset = EdgeDataset.write(tmp_path / "d", u, u, num_vertices=100_000,
                                    num_shards=64)
        tracemalloc.start()
        try:
            ru, rv = dataset.read_all()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = ru.nbytes + rv.nbytes
        assert result == edges * 8
        assert peak < 1.5 * result


@pytest.mark.skipif(not shm_available(),
                    reason="host cannot create shared-memory segments")
class TestShardBufferLabels:
    @pytest.mark.parametrize("dtypes, want", [
        ((np.uint32, np.uint32), np.uint32),
        ((np.uint32, np.int64), np.int64),
        ((np.int64, np.int64), np.int64),
    ])
    def test_payload_keeps_the_label_dtype(self, dtypes, want):
        u = np.array([0, 5, TOP], dtype=dtypes[0])
        v = np.array([2, 1, 0], dtype=dtypes[1])
        buffer = ShardBuffer.create(u, v)
        try:
            reader = ShardBuffer.attach(buffer.name)
            ru, rv = reader.arrays()
            assert ru.dtype == rv.dtype == want
            assert ru.tolist() == u.tolist() and rv.tolist() == v.tolist()
            assert reader.nbytes == 6 * np.dtype(want).itemsize
            del ru, rv
            reader.close()
        finally:
            buffer.release()
