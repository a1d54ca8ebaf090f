"""Unit tests for EdgeDataset, manifests, shards, and binary format."""

from __future__ import annotations

import numpy as np
import pytest

from repro.edgeio.binary import read_binary_shard, write_binary_shard
from repro.edgeio.dataset import EdgeDataset, shard_slices
from repro.edgeio.errors import CorruptEdgeFileError, DatasetLayoutError
from repro.edgeio.manifest import DatasetManifest, ShardInfo


class TestShardSlices:
    def test_even_split(self):
        assert shard_slices(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_remainder_spread(self):
        slices = shard_slices(10, 3)
        sizes = [end - start for start, end in slices]
        assert sizes == [4, 3, 3]

    def test_more_shards_than_edges(self):
        slices = shard_slices(2, 4)
        sizes = [end - start for start, end in slices]
        assert sizes == [1, 1, 0, 0]

    def test_zero_edges(self):
        assert shard_slices(0, 2) == [(0, 0), (0, 0)]

    def test_contiguous_cover(self):
        slices = shard_slices(1234, 7)
        assert slices[0][0] == 0 and slices[-1][1] == 1234
        for (_, prev_end), (next_start, _) in zip(slices, slices[1:]):
            assert prev_end == next_start


class TestWriteOpenRead:
    def test_round_trip_single_shard(self, tmp_path, small_edges):
        u, v = small_edges
        ds = EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64)
        ru, rv = EdgeDataset.open(tmp_path / "d").read_all()
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_round_trip_many_shards(self, tmp_path, small_edges):
        u, v = small_edges
        ds = EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                               num_shards=7)
        assert ds.num_shards == 7
        ru, rv = EdgeDataset.open(tmp_path / "d").read_all()
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_round_trip_npy_format(self, tmp_path, small_edges):
        u, v = small_edges
        EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                          num_shards=2, fmt="npy")
        ds = EdgeDataset.open(tmp_path / "d")
        assert ds.fmt == "npy"
        ru, rv = ds.read_all()
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_vertex_base_round_trip(self, tmp_path, small_edges):
        u, v = small_edges
        EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                          vertex_base=1)
        payload = (tmp_path / "d" / "part-00000.tsv").read_bytes()
        first_line = payload.splitlines()[0].split(b"\t")
        assert int(first_line[0]) == u[0] + 1  # on-disk is 1-based
        ru, _ = EdgeDataset.open(tmp_path / "d").read_all()
        assert np.array_equal(ru, u)  # in-memory is 0-based again

    def test_empty_dataset(self, tmp_path):
        empty = np.empty(0, dtype=np.int64)
        ds = EdgeDataset.write(tmp_path / "d", empty, empty, num_vertices=4)
        assert ds.num_edges == 0
        ru, rv = ds.read_all()
        assert len(ru) == 0

    @pytest.mark.parametrize("fmt", ["tsv", "npy"])
    @pytest.mark.parametrize("num_shards,batch", [(5, 100), (1, 7), (9, 64),
                                                  (3, 5000)])
    def test_iter_batches_spans_shards(self, tmp_path, small_edges, fmt,
                                       num_shards, batch):
        u, v = small_edges
        ds = EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                               num_shards=num_shards, fmt=fmt)
        ru, rv = ds.read_all()
        batches = list(ds.iter_batches(batch))
        assert sum(len(b[0]) for b in batches) == len(u)
        assert all(len(b[0]) == batch for b in batches[:-1])
        # A batch joined across a shard boundary keeps the label dtype.
        assert all(b[0].dtype == ru.dtype and b[1].dtype == rv.dtype
                   for b in batches)
        assert np.array_equal(np.concatenate([b[0] for b in batches]), u)
        assert np.array_equal(np.concatenate([b[1] for b in batches]), v)

    def test_iter_batches_copies_each_edge_at_most_once(
            self, tmp_path, monkeypatch):
        # Batches inside a shard are slices: reading one shard in many
        # batches must not re-copy the shard's remainder per batch.
        rng = np.random.default_rng(3)
        u = rng.integers(0, 64, size=4096)
        v = rng.integers(0, 64, size=4096)
        ds = EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                               fmt="npy")
        copied = []
        concatenate = np.concatenate

        def counting(arrays, *args, **kwargs):
            arrays = list(arrays)
            copied.append(sum(len(a) for a in arrays))
            return concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        batches = list(ds.iter_batches(200))
        monkeypatch.undo()
        assert len(batches) >= 16
        assert sum(copied) <= 2 * len(u)
        assert np.array_equal(np.concatenate([b[0] for b in batches]), u)
        assert np.array_equal(np.concatenate([b[1] for b in batches]), v)

    def test_invalid_format_rejected(self, tmp_path, small_edges):
        u, v = small_edges
        with pytest.raises(ValueError, match="fmt"):
            EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                              fmt="parquet")

    def test_checksum_verification(self, tmp_path, small_edges):
        u, v = small_edges
        ds = EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64)
        ds.read_shard(0, verify_checksum=True)  # passes

    def test_extra_metadata_persisted(self, tmp_path, small_edges):
        u, v = small_edges
        EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                          extra={"kernel": "k0"})
        ds = EdgeDataset.open(tmp_path / "d")
        assert ds.manifest.extra["kernel"] == "k0"


class TestFailureModes:
    def test_open_without_manifest(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(DatasetLayoutError, match="manifest"):
            EdgeDataset.open(tmp_path / "d")

    def test_open_with_missing_shard(self, tmp_path, small_edges):
        u, v = small_edges
        EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64, num_shards=2)
        (tmp_path / "d" / "part-00001.tsv").unlink()
        with pytest.raises(DatasetLayoutError, match="missing"):
            EdgeDataset.open(tmp_path / "d")

    def test_open_with_truncated_shard(self, tmp_path, small_edges):
        u, v = small_edges
        EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64)
        shard = tmp_path / "d" / "part-00000.tsv"
        shard.write_bytes(shard.read_bytes()[: shard.stat().st_size // 2])
        with pytest.raises(DatasetLayoutError, match="bytes"):
            EdgeDataset.open(tmp_path / "d")

    def test_corrupt_checksum_detected(self, tmp_path, small_edges):
        u, v = small_edges
        EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64)
        shard = tmp_path / "d" / "part-00000.tsv"
        payload = bytearray(shard.read_bytes())
        payload[0:1] = b"9" if payload[0:1] != b"9" else b"8"
        shard.write_bytes(bytes(payload))
        ds = EdgeDataset.open(tmp_path / "d")  # sizes still match
        with pytest.raises(CorruptEdgeFileError, match="CRC"):
            ds.read_shard(0, verify_checksum=True)

    def test_out_of_bounds_labels_detected(self, tmp_path):
        u = np.array([0, 1], dtype=np.int64)
        v = np.array([1, 0], dtype=np.int64)
        EdgeDataset.write(tmp_path / "d", u, v, num_vertices=2)
        shard = tmp_path / "d" / "part-00000.tsv"
        original = shard.read_bytes()
        shard.write_bytes(b"0\t9\n1\t0\n")
        if len(b"0\t9\n1\t0\n") != len(original):
            pytest.skip("byte-size guard fires before label check")
        ds = EdgeDataset.open(tmp_path / "d")
        with pytest.raises(CorruptEdgeFileError, match="outside"):
            ds.read_shard(0)

    def test_manifest_schema_violation(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "manifest.json").write_text("{\"format_version\": 99}")
        with pytest.raises(DatasetLayoutError, match="format_version"):
            EdgeDataset.open(tmp_path / "d")

    def test_manifest_not_json(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "manifest.json").write_text("not json")
        with pytest.raises(DatasetLayoutError, match="JSON"):
            EdgeDataset.open(tmp_path / "d")


class TestStreamWriter:
    def test_rolls_shards(self, tmp_path, small_edges):
        u, v = small_edges
        with EdgeDataset.stream_writer(tmp_path / "d", num_vertices=64,
                                       edges_per_shard=50) as writer:
            for start in range(0, len(u), 30):
                writer.append(u[start:start + 30], v[start:start + 30])
        ds = writer.result
        assert ds.num_edges == len(u)
        assert ds.num_shards == -(-len(u) // 50)
        ru, rv = ds.read_all()
        assert np.array_equal(ru, u) and np.array_equal(rv, v)

    def test_no_manifest_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with EdgeDataset.stream_writer(tmp_path / "d", num_vertices=4,
                                           edges_per_shard=10) as writer:
                writer.append(np.array([1]), np.array([2]))
                raise RuntimeError("producer crashed")
        with pytest.raises(DatasetLayoutError):
            EdgeDataset.open(tmp_path / "d")

    def test_empty_stream_creates_valid_dataset(self, tmp_path):
        with EdgeDataset.stream_writer(tmp_path / "d", num_vertices=4) as writer:
            pass
        assert writer.result.num_edges == 0
        EdgeDataset.open(tmp_path / "d")

    def test_append_after_close_rejected(self, tmp_path):
        with EdgeDataset.stream_writer(tmp_path / "d", num_vertices=4) as writer:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            writer.append(np.array([1]), np.array([1]))

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            with EdgeDataset.stream_writer(tmp_path / "d", num_vertices=4) as writer:
                writer.append(np.array([1]), np.array([1, 2]))


class TestBinaryShards:
    def test_round_trip(self, tmp_path):
        u = np.array([1, 2, 3], dtype=np.int64)
        v = np.array([4, 5, 6], dtype=np.int64)
        nbytes = write_binary_shard(tmp_path / "s.npy", u, v)
        assert nbytes > 0
        ru, rv = read_binary_shard(tmp_path / "s.npy")
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_rejects_garbage(self, tmp_path):
        (tmp_path / "bad.npy").write_bytes(b"not an npy file")
        with pytest.raises(CorruptEdgeFileError):
            read_binary_shard(tmp_path / "bad.npy")

    def test_rejects_wrong_shape(self, tmp_path):
        np.save(tmp_path / "bad.npy", np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(CorruptEdgeFileError, match="shape"):
            read_binary_shard(tmp_path / "bad.npy")

    def test_rejects_float_dtype(self, tmp_path):
        np.save(tmp_path / "bad.npy", np.zeros((3, 2), dtype=np.float64))
        with pytest.raises(CorruptEdgeFileError, match="dtype"):
            read_binary_shard(tmp_path / "bad.npy")


class TestManifest:
    def test_json_round_trip(self):
        manifest = DatasetManifest(
            num_vertices=10, num_edges=5, vertex_base=1,
            shards=[ShardInfo("part-00000.tsv", 5, 123, 40)],
            extra={"k": "v"},
        )
        restored = DatasetManifest.from_json(manifest.to_json())
        assert restored.num_vertices == 10
        assert restored.shards[0].crc32 == 123
        assert restored.extra == {"k": "v"}
