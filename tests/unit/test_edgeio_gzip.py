"""Unit tests for the gzip-compressed TSV shard format."""

from __future__ import annotations

import gzip
import zlib

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset
from repro.edgeio.errors import CorruptEdgeFileError


class TestGzipFormat:
    def test_round_trip(self, tmp_path, small_edges):
        u, v = small_edges
        EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                          num_shards=3, fmt="tsv.gz")
        ds = EdgeDataset.open(tmp_path / "d")
        assert ds.fmt == "tsv.gz"
        ru, rv = ds.read_all()
        assert np.array_equal(u, ru) and np.array_equal(v, rv)

    def test_files_actually_compressed(self, tmp_path, small_edges):
        u, v = small_edges
        gz = EdgeDataset.write(tmp_path / "gz", u, v, num_vertices=64,
                               fmt="tsv.gz")
        plain = EdgeDataset.write(tmp_path / "plain", u, v, num_vertices=64,
                                  fmt="tsv")
        assert gz.total_bytes() < plain.total_bytes()
        payload = gz.shard_paths()[0].read_bytes()
        assert payload[:2] == b"\x1f\x8b"  # gzip magic

    def test_payload_matches_plain_tsv(self, tmp_path, small_edges):
        u, v = small_edges
        gz = EdgeDataset.write(tmp_path / "gz", u, v, num_vertices=64,
                               fmt="tsv.gz", num_shards=1)
        plain = EdgeDataset.write(tmp_path / "plain", u, v, num_vertices=64,
                                  fmt="tsv", num_shards=1)
        decompressed = gzip.decompress(gz.shard_paths()[0].read_bytes())
        assert decompressed == plain.shard_paths()[0].read_bytes()

    def test_corrupt_gzip_detected(self, tmp_path, small_edges):
        u, v = small_edges
        ds = EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                               fmt="tsv.gz")
        shard = ds.shard_paths()[0]
        payload = bytearray(shard.read_bytes())
        payload[10] ^= 0xFF
        shard.write_bytes(bytes(payload))
        reopened = EdgeDataset.open(tmp_path / "d")
        with pytest.raises(CorruptEdgeFileError):
            reopened.read_shard(0)

    def test_checksum_covers_compressed_bytes(self, tmp_path, small_edges):
        u, v = small_edges
        ds = EdgeDataset.write(tmp_path / "d", u, v, num_vertices=64,
                               fmt="tsv.gz")
        assert ds.manifest.shards[0].crc32 == zlib.crc32(
            ds.shard_paths()[0].read_bytes()
        )
        ds.read_shard(0)  # must pass

    def test_external_sort_keeps_gzip(self, tmp_path, small_edges):
        from repro.sort.external import ExternalSortConfig, external_sort_dataset
        from repro.sort.inmemory import sort_edges

        u, v = small_edges
        ds = EdgeDataset.write(tmp_path / "in", u, v, num_vertices=64,
                               num_shards=2, fmt="tsv.gz")
        out = external_sort_dataset(ds, tmp_path / "out", num_shards=3,
                                    config=ExternalSortConfig(batch_edges=50))
        assert out.fmt == "tsv.gz"
        ru, rv = out.read_all()
        su, sv = sort_edges(u, v)
        assert np.array_equal(su, ru) and np.array_equal(sv, rv)

    def test_pipeline_end_to_end(self):
        from repro.core.pipeline import run_pipeline

        gz = run_pipeline(PipelineConfig(scale=6, seed=5,
                                         file_format="tsv.gz"))
        plain = run_pipeline(PipelineConfig(scale=6, seed=5))
        assert np.allclose(gz.rank, plain.rank)

    def test_config_accepts_format(self):
        PipelineConfig(scale=4, file_format="tsv.gz")
        with pytest.raises(ValueError):
            PipelineConfig(scale=4, file_format="zip")
