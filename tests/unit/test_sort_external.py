"""Unit tests for the out-of-core external sort."""

from __future__ import annotations

import numpy as np
import pytest

from repro.edgeio.dataset import EdgeDataset, write_shard
from repro.sort.external import ExternalSortConfig, external_sort_dataset
from repro.sort.inmemory import sort_edges


def _write_random_dataset(tmp_path, rng, m=2000, n=128, shards=4):
    u = rng.integers(0, n, size=m).astype(np.int64)
    v = rng.integers(0, n, size=m).astype(np.int64)
    ds = EdgeDataset.write(tmp_path / "in", u, v, num_vertices=n,
                           num_shards=shards)
    return ds, u, v


class TestExternalSort:
    def test_sorted_and_complete(self, tmp_path, rng):
        ds, u, v = _write_random_dataset(tmp_path, rng)
        out = external_sort_dataset(
            ds, tmp_path / "out",
            config=ExternalSortConfig(batch_edges=128, merge_block_edges=64),
        )
        su, sv = out.read_all()
        assert np.all(np.diff(su) >= 0)
        assert np.array_equal(np.sort(u * 128 + v), np.sort(su * 128 + sv))

    def test_multipass_merge(self, tmp_path, rng):
        # 2000 edges / 64-edge runs = 32 runs > fan_in 3 => multi-pass.
        ds, u, v = _write_random_dataset(tmp_path, rng)
        out = external_sort_dataset(
            ds, tmp_path / "out",
            config=ExternalSortConfig(batch_edges=64, fan_in=3,
                                      merge_block_edges=32),
        )
        su, sv = out.read_all()
        assert np.all(np.diff(su) >= 0)
        assert len(su) == ds.num_edges

    @pytest.mark.parametrize("block", [5, 16, 37])
    @pytest.mark.parametrize("by_end_vertex", [False, True], ids=["by_u", "by_uv"])
    def test_matches_in_memory_sort(self, tmp_path, rng, by_end_vertex, block):
        # The same bytes at any block size: a tie in u that spans a
        # merge block still leaves in input order.
        ds, u, v = _write_random_dataset(tmp_path, rng, m=777, n=32)
        out = external_sort_dataset(
            ds, tmp_path / "out", by_end_vertex=by_end_vertex,
            config=ExternalSortConfig(batch_edges=100, fan_in=3,
                                      merge_block_edges=block),
        )
        su, sv = out.read_all()
        ref_u, ref_v = sort_edges(u, v, by_end_vertex=by_end_vertex)
        assert np.array_equal(su, ref_u)
        assert np.array_equal(sv, ref_v)

    def test_labels_beyond_two_to_the_31(self, tmp_path, rng):
        # No composite key caps the vertex count: 34-bit labels, whose
        # (u, v) pairs no 64-bit key holds, sort as in memory.
        n = 2**33
        u = rng.integers(2**31, n, size=300).astype(np.int64)
        v = rng.integers(2**31, n, size=300).astype(np.int64)
        u[::3] = u[0]  # ties in u, ordered by v
        ds = EdgeDataset.write(tmp_path / "in", u, v, num_vertices=n,
                               num_shards=3)
        out = external_sort_dataset(
            ds, tmp_path / "out", by_end_vertex=True,
            config=ExternalSortConfig(batch_edges=40, fan_in=3,
                                      merge_block_edges=16),
        )
        su, sv = out.read_all()
        ref_u, ref_v = sort_edges(u, v, by_end_vertex=True)
        assert np.array_equal(su, ref_u)
        assert np.array_equal(sv, ref_v)

    def test_by_end_vertex(self, tmp_path, rng):
        ds, u, v = _write_random_dataset(tmp_path, rng, m=900, n=16)
        out = external_sort_dataset(
            ds, tmp_path / "out", by_end_vertex=True,
            config=ExternalSortConfig(batch_edges=64, fan_in=3,
                                      merge_block_edges=16),
        )
        su, sv = out.read_all()
        keys = su * 16 + sv
        assert np.all(np.diff(keys) >= 0)

    def test_preserves_format_and_base(self, tmp_path, rng):
        u = rng.integers(0, 8, size=100).astype(np.int64)
        v = rng.integers(0, 8, size=100).astype(np.int64)
        ds = EdgeDataset.write(tmp_path / "in", u, v, num_vertices=8,
                               vertex_base=1, fmt="tsv")
        out = external_sort_dataset(ds, tmp_path / "out")
        assert out.manifest.vertex_base == 1
        assert out.fmt == "tsv"

    def test_output_shard_count(self, tmp_path, rng):
        ds, _, _ = _write_random_dataset(tmp_path, rng)
        out = external_sort_dataset(ds, tmp_path / "out", num_shards=6)
        assert out.num_shards == 6

    @pytest.mark.parametrize("num_shards", [1, 3, 5, 64])
    def test_shards_and_manifest_match_the_in_memory_write(
            self, tmp_path, rng, num_shards):
        ds, u, v = _write_random_dataset(tmp_path, rng, m=1000)
        out = external_sort_dataset(
            ds, tmp_path / "out", num_shards=num_shards,
            config=ExternalSortConfig(batch_edges=64, fan_in=3,
                                      merge_block_edges=32),
        )
        ref_u, ref_v = sort_edges(u, v)
        ref = EdgeDataset.write(tmp_path / "ref", ref_u, ref_v,
                                num_vertices=128, num_shards=num_shards)
        assert out.manifest.shards == ref.manifest.shards
        # No path of the input (gone once a run ends) enters the output.
        assert out.manifest.extra == {"sorted_by": "u"}

    def test_more_shards_than_edges_leaves_empty_shards(self, tmp_path, rng):
        # A pipeline asks for at most M files; the sort itself still cuts
        # any count the way EdgeDataset.write does, empty shards included.
        ds, u, v = _write_random_dataset(tmp_path, rng, m=10, shards=2)
        out = external_sort_dataset(ds, tmp_path / "out", num_shards=16)
        ref_u, ref_v = sort_edges(u, v)
        ref = EdgeDataset.write(tmp_path / "ref", ref_u, ref_v,
                                num_vertices=128, num_shards=16)
        assert out.manifest.shards == ref.manifest.shards
        assert [s.num_edges for s in out.manifest.shards].count(0) == 6

    def test_phases_are_reported(self, tmp_path, rng):
        from repro._util import Timings

        ds, _, _ = _write_random_dataset(tmp_path, rng)
        timings = Timings()
        external_sort_dataset(
            ds, tmp_path / "out", timings=timings, extra={"kernel": "k1"},
            config=ExternalSortConfig(batch_edges=64, fan_in=3),
        )
        assert set(timings.entries) == {"run_formation", "merge", "write"}
        assert EdgeDataset.open(tmp_path / "out").manifest.extra == {
            "kernel": "k1"}

    def test_empty_dataset(self, tmp_path):
        empty = np.empty(0, dtype=np.int64)
        ds = EdgeDataset.write(tmp_path / "in", empty, empty, num_vertices=4)
        out = external_sort_dataset(ds, tmp_path / "out")
        assert out.num_edges == 0
        EdgeDataset.open(tmp_path / "out")  # valid dataset with manifest

    def test_no_manifest_when_a_shard_write_fails(self, tmp_path, rng,
                                                  monkeypatch):
        import repro.sort.external as external
        from repro.edgeio.errors import DatasetLayoutError

        written = []

        def failing_write_shard(*args, **kwargs):
            if written:
                raise OSError("disk full")
            written.append(write_shard(*args, **kwargs))
            return written[-1]

        ds, _, _ = _write_random_dataset(tmp_path, rng, m=500)
        spill = tmp_path / "spill"
        monkeypatch.setattr(external, "write_shard", failing_write_shard)
        with pytest.raises(OSError, match="disk full"):
            external_sort_dataset(
                ds, tmp_path / "out", num_shards=3,
                config=ExternalSortConfig(batch_edges=64, tmp_dir=spill),
            )
        # A crashed sort leaves no openable dataset and no run behind.
        with pytest.raises(DatasetLayoutError):
            EdgeDataset.open(tmp_path / "out")
        assert list(spill.glob("*.bin")) == []

    def test_spill_dir_cleaned_up(self, tmp_path, rng):
        import os

        ds, _, _ = _write_random_dataset(tmp_path, rng, m=500)
        spill = tmp_path / "spill"
        external_sort_dataset(
            ds, tmp_path / "out",
            config=ExternalSortConfig(batch_edges=64, tmp_dir=spill),
        )
        # Caller-provided tmp dir is kept but runs inside are deleted.
        leftovers = [f for f in os.listdir(spill) if f.endswith(".bin")]
        assert leftovers == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExternalSortConfig(batch_edges=0)
        with pytest.raises(ValueError):
            ExternalSortConfig(fan_in=1)

    def test_duplicate_heavy_input(self, tmp_path, rng):
        # Keys spanning merge-block boundaries must stay correct.
        u = np.repeat(np.array([3, 1, 2], dtype=np.int64), 300)
        v = rng.integers(0, 8, size=900).astype(np.int64)
        ds = EdgeDataset.write(tmp_path / "in", u, v, num_vertices=8)
        out = external_sort_dataset(
            ds, tmp_path / "out",
            config=ExternalSortConfig(batch_edges=100, merge_block_edges=16),
        )
        su, _ = out.read_all()
        assert np.array_equal(su, np.sort(u))
