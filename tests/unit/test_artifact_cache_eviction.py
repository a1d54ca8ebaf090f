"""Size-budgeted LRU eviction and the Kernel 2 CSR artifact cache."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import artifacts
from repro.core.artifacts import (
    LAYOUT_VERSIONS,
    MARKER,
    MATRIX_ARRAYS,
    MATRIX_INDEX,
    ArtifactCache,
    cache_key,
    k0_cache_fields,
    k1_cache_fields,
    k2_cache_fields,
)
from repro.core.config import KernelName, PipelineConfig
from repro.core.pipeline import run_pipeline


def _seed_entry(cache: ArtifactCache, kind: str, key: str, payload: bytes,
                mtime: float) -> None:
    """Create a fake published entry with a controlled mtime."""
    entry = cache.entry_dir(kind, key)
    entry.mkdir(parents=True)
    (entry / "blob.bin").write_bytes(payload)
    os.utime(entry, (mtime, mtime))


class TestEntriesAndEviction:
    def test_entries_sorted_lru_first(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        _seed_entry(cache, "k1", "newer", b"x" * 10, mtime=2_000.0)
        _seed_entry(cache, "k0", "older", b"x" * 10, mtime=1_000.0)
        keys = [entry.key for entry in cache.entries()]
        assert keys == ["older", "newer"]
        assert cache.total_bytes() == 20

    def test_staging_dirs_invisible(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        _seed_entry(cache, "k0", "real", b"x", mtime=1_000.0)
        staging = cache.entry_dir("k0", "real.tmp-1234")
        staging.mkdir(parents=True)
        assert [entry.key for entry in cache.entries()] == ["real"]

    def test_prune_evicts_oldest_until_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        _seed_entry(cache, "k0", "a", b"x" * 100, mtime=1.0)
        _seed_entry(cache, "k0", "b", b"x" * 100, mtime=2.0)
        _seed_entry(cache, "k1", "c", b"x" * 100, mtime=3.0)
        evicted = cache.prune(max_bytes=150)
        assert [entry.key for entry in evicted] == ["a", "b"]
        assert [entry.key for entry in cache.entries()] == ["c"]
        assert cache.total_bytes() == 100

    def test_prune_zero_empties_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        _seed_entry(cache, "k0", "a", b"x", mtime=1.0)
        _seed_entry(cache, "k2", "b", b"x", mtime=2.0)
        cache.prune(max_bytes=0)
        assert cache.entries() == []

    def test_prune_noop_under_budget(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        _seed_entry(cache, "k0", "a", b"x" * 10, mtime=1.0)
        assert cache.prune(max_bytes=1_000) == []
        assert len(cache.entries()) == 1

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match=">= 0"):
            ArtifactCache(tmp_path / "c").prune(max_bytes=-1)

    def test_remove_by_key_and_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        _seed_entry(cache, "k0", "dup", b"x", mtime=1.0)
        _seed_entry(cache, "k1", "dup", b"x", mtime=1.0)
        removed = cache.remove("dup", kind="k1")
        assert [entry.kind for entry in removed] == ["k1"]
        assert [entry.kind for entry in cache.entries()] == ["k0"]
        assert cache.remove("missing") == []

    def test_hit_touches_entry_so_lru_spares_it(self, tmp_path, tiny_dataset):
        cache = ArtifactCache(tmp_path / "c")

        def producer(entry):
            u, v = tiny_dataset.read_all()
            from repro.edgeio.dataset import EdgeDataset

            return EdgeDataset.write(entry, u, v, num_vertices=64), {}

        old_fields = {"kernel": "k0", "tag": "old"}
        new_fields = {"kernel": "k0", "tag": "new"}
        cache.dataset("k0", old_fields, producer)
        cache.dataset("k0", new_fields, producer)
        # Backdate both, then *hit* the old one — the hit must refresh
        # its recency so eviction takes the other entry first.
        for fields, stamp in ((old_fields, 1_000.0), (new_fields, 2_000.0)):
            entry = cache.entry_dir("k0", cache_key(fields))
            os.utime(entry, (stamp, stamp))
        _, details = cache.dataset("k0", old_fields, producer)
        assert details["artifact_cache"] == "hit"
        size = max(entry.num_bytes for entry in cache.entries())
        evicted = cache.prune(max_bytes=size)
        assert [entry.key for entry in evicted] == [cache_key(new_fields)]


class TestCsrArtifacts:
    def _matrix(self) -> sp.csr_matrix:
        dense = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        return sp.csr_matrix(dense)

    def test_store_then_load_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        fields = {"kernel": "k2", "scale": 6}
        key = cache.store_csr("k2", fields, self._matrix(),
                              {"pre_filter_entry_total": 4.0})
        loaded = cache.load_csr("k2", fields)
        assert loaded is not None
        matrix, meta = loaded
        assert meta["pre_filter_entry_total"] == 4.0
        np.testing.assert_array_equal(matrix.toarray(), self._matrix().toarray())
        entry = cache.entry_dir("k2", key)
        assert json.loads((entry / "cache-entry.json").read_text())["scale"] == 6
        # No staging leftovers.
        leftovers = [p for p in entry.parent.iterdir() if ".tmp-" in p.name]
        assert leftovers == []

    @pytest.mark.parametrize("layout", ["csr", "csc"])
    def test_round_trip_keeps_the_layout_it_was_handed(self, tmp_path, layout):
        cache = ArtifactCache(tmp_path / "c")
        stored = self._matrix().asformat(layout)
        cache.store_csr("k2", {"kernel": "k2"}, stored, {})
        matrix, _ = cache.load_csr("k2", {"kernel": "k2"})
        assert matrix.format == layout
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(matrix, name),
                                          getattr(stored, name))

    def test_other_formats_are_stored_as_csr(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        cache.store_csr("k2", {"kernel": "k2"}, self._matrix().tocoo(), {})
        matrix, _ = cache.load_csr("k2", {"kernel": "k2"})
        assert matrix.format == "csr"
        np.testing.assert_array_equal(matrix.toarray(), self._matrix().toarray())

    def test_entry_is_raw_arrays_under_an_index(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        stored = self._matrix().tocsc()
        key = cache.store_csr("k2", {"kernel": "k2"}, stored, {})
        entry = cache.entry_dir("k2", key)
        index = json.loads((entry / MATRIX_INDEX).read_text())
        assert index["format"] == "csc" and index["shape"] == [3, 3]
        for name in MATRIX_ARRAYS:
            array = getattr(stored, name)
            record = index["arrays"][name]
            assert record["dtype"] == array.dtype.str
            assert record["length"] == len(array)
            assert (entry / f"{name}.bin").read_bytes() == array.tobytes()
        assert not list(entry.glob("*.npz"))

    def test_layout_2_entry_is_never_read(self, tmp_path):
        # What store_csr wrote at layout 2: one csr.npz.  Its key holds
        # the old number, so a run at today's layout neither reads nor
        # purges it: it misses and publishes its own entry.
        config = PipelineConfig(scale=6, seed=2, cache_dir=tmp_path / "c")
        cache = ArtifactCache(config.cache_dir)
        fields = k2_cache_fields(config, variant="backend-serial")
        old = dict(fields, layout=2)
        reference = self._matrix()

        def write_npz(staging):
            np.savez(staging / "csr.npz", indptr=reference.indptr,
                     indices=reference.indices, data=reference.data,
                     shape=np.asarray(reference.shape, dtype=np.int64))
            (staging / "meta.json").write_text("{}")

        cache._publish("k2", old, write_npz)
        result = run_pipeline(config)
        assert (result.kernel(KernelName.K2_FILTER)
                .details["artifact_cache"] == "miss")
        assert (cache.entry_dir("k2", cache_key(old)) / "csr.npz").is_file()
        assert cache.published("k2", cache_key(fields))

    def test_load_missing_is_none(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        assert cache.load_csr("k2", {"kernel": "k2"}) is None

    def test_torn_entry_purged(self, tmp_path):
        cache = ArtifactCache(tmp_path / "c")
        fields = {"kernel": "k2"}
        key = cache.store_csr("k2", fields, self._matrix(), {})
        (cache.entry_dir("k2", key) / MATRIX_INDEX).write_bytes(b"garbage")
        assert cache.load_csr("k2", fields) is None
        assert not cache.entry_dir("k2", key).exists()

    @pytest.mark.parametrize("damage", ["flip", "truncate", "delete"])
    @pytest.mark.parametrize("name", MATRIX_ARRAYS)
    def test_damaged_array_file_is_purged(self, tmp_path, name, damage):
        cache = ArtifactCache(tmp_path / "c")
        fields = {"kernel": "k2"}
        key = cache.store_csr("k2", fields, self._matrix(), {"m": 1})
        path = cache.entry_dir("k2", key) / f"{name}.bin"
        payload = bytearray(path.read_bytes())
        if damage == "flip":  # same size: only the CRC32 can tell
            payload[len(payload) // 2] ^= 0x01
            path.write_bytes(bytes(payload))
        elif damage == "truncate":
            path.write_bytes(bytes(payload[: len(payload) // 2]))
        else:
            path.unlink()
        assert cache.load_csr("k2", fields) is None
        assert not cache.entry_dir("k2", key).exists()

    @pytest.mark.parametrize("record", [
        {"dtype": "|O", "length": 4},      # pointers read from a file
        {"dtype": "not-a-dtype", "length": 4},
        {"dtype": "<i4", "length": 1 << 60},  # refused before allocating
        {"dtype": "<i4", "length": -1},
    ])
    def test_malformed_index_record_is_purged(self, tmp_path, record):
        cache = ArtifactCache(tmp_path / "c")
        fields = {"kernel": "k2"}
        key = cache.store_csr("k2", fields, self._matrix(), {})
        path = cache.entry_dir("k2", key) / MATRIX_INDEX
        index = json.loads(path.read_text())
        index["arrays"]["indices"].update(record)
        path.write_text(json.dumps(index))
        assert cache.load_csr("k2", fields) is None
        assert not cache.entry_dir("k2", key).exists()

    @pytest.mark.parametrize("member", [MATRIX_INDEX, "meta.json", MARKER])
    def test_truncated_or_missing_member_is_purged(self, tmp_path, member):
        cache = ArtifactCache(tmp_path / "c")
        fields = {"kernel": "k2"}
        key = cache.store_csr("k2", fields, self._matrix(), {"m": 1})
        path = cache.entry_dir("k2", key) / member
        if member == MATRIX_INDEX:
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        else:
            path.unlink()
        assert cache.load_csr("k2", fields) is None
        assert not cache.entry_dir("k2", key).exists()

    def test_transient_os_error_propagates_and_keeps_entry(
            self, tmp_path, monkeypatch):
        import errno

        cache = ArtifactCache(tmp_path / "c")
        fields = {"kernel": "k2"}
        key = cache.store_csr("k2", fields, self._matrix(), {})

        def out_of_descriptors(path, *args, **kwargs):
            if str(path).endswith(".bin"):
                raise OSError(errno.EMFILE, "Too many open files")
            return open(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            # Opening an array file fails; the lock and JSON files open.
            patch.setattr(artifacts, "open", out_of_descriptors,
                          raising=False)
            with pytest.raises(OSError) as excinfo:
                cache.load_csr("k2", fields)
        assert excinfo.value.errno == errno.EMFILE
        assert cache.published("k2", key)
        matrix, _ = cache.load_csr("k2", fields)
        np.testing.assert_array_equal(matrix.toarray(),
                                      self._matrix().toarray())

    @pytest.mark.parametrize("layout", ["csr", "csc"])
    def test_export_import_round_trip(self, tmp_path, layout):
        source = ArtifactCache(tmp_path / "a")
        fields = {"kernel": "k2", "scale": 6}
        stored = self._matrix().asformat(layout)
        meta = {"pre_filter_entry_total": 4.0, "eliminated_columns": 1}
        key = source.store_csr("k2", fields, stored, meta)
        archive = source.export_entry("k2", key)
        assert archive is not None

        target = ArtifactCache(tmp_path / "b")
        assert target.import_entry("k2", key, archive)
        matrix, loaded_meta = target.load_csr("k2", fields)
        assert matrix.format == layout and loaded_meta == meta
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(matrix, name),
                                          getattr(stored, name))
        # The marker's fields must hash to the key the entry is filed
        # under: the same archive under another key is refused.
        assert not target.import_entry("k2", "f" * len(key), archive)

    def test_marker_less_entry_directory_is_torn(self, tmp_path,
                                                 tiny_dataset):
        cache = ArtifactCache(tmp_path / "c")
        fields = {"kernel": "k0", "tag": "torn"}

        def producer(entry):
            u, v = tiny_dataset.read_all()
            from repro.edgeio.dataset import EdgeDataset

            return EdgeDataset.write(entry, u, v, num_vertices=64), {}

        cache.dataset("k0", fields, producer)
        entry = cache.entry_dir("k0", cache_key(fields))
        (entry / MARKER).unlink()
        assert not cache.published("k0", cache_key(fields))
        # A miss that purges the torn directory, so the new publish wins.
        _, details = cache.dataset("k0", fields, producer)
        assert details["artifact_cache"] == "miss"
        assert cache.published("k0", cache_key(fields))
        _, details = cache.dataset("k0", fields, producer)
        assert details["artifact_cache"] == "hit"


class TestK2CacheFields:
    def test_k2_key_differs_from_k1(self):
        config = PipelineConfig(scale=6)
        assert (cache_key(k2_cache_fields(config))
                != cache_key(k1_cache_fields(config)))

    def test_k2_key_ignores_execution_and_batch(self):
        base = PipelineConfig(scale=6)
        variant = base.with_overrides(execution="streaming",
                                      streaming_batch_edges=128)
        assert (cache_key(k2_cache_fields(base))
                == cache_key(k2_cache_fields(variant)))

    def test_k2_key_tracks_arithmetic_variant(self):
        # A backend's serial kernel2 and the CSR-assembly path can
        # differ in the last ulp (dataframe normalisation), so their
        # cached matrices must never be interchangeable.
        config = PipelineConfig(scale=6)
        assert (cache_key(k2_cache_fields(config, variant="backend-serial"))
                != cache_key(k2_cache_fields(config, variant="streaming-csr")))

    def test_k2_key_tracks_backend_and_sort(self):
        base = PipelineConfig(scale=6)
        assert (cache_key(k2_cache_fields(base))
                != cache_key(k2_cache_fields(base.with_overrides(
                    backend="numpy"))))
        assert (cache_key(k2_cache_fields(base))
                != cache_key(k2_cache_fields(base.with_overrides(
                    sort_by_end_vertex=True))))


class TestLayoutVersions:
    FIELDS = {"k0": k0_cache_fields, "k1": k1_cache_fields,
              "k2": k2_cache_fields}

    def test_a_bump_moves_only_its_own_kinds_key(self, monkeypatch):
        config = PipelineConfig(scale=6)

        def keys():
            return {kind: cache_key(fields(config))
                    for kind, fields in self.FIELDS.items()}

        before = keys()
        for kind in LAYOUT_VERSIONS:
            with monkeypatch.context() as patch:
                patch.setitem(LAYOUT_VERSIONS, kind, LAYOUT_VERSIONS[kind] + 1)
                after = keys()
            assert {k for k in after if after[k] != before[k]} == {kind}

    def test_entry_of_another_layout_is_a_miss_not_a_misread(
            self, tmp_path, monkeypatch):
        config = PipelineConfig(scale=7, seed=4, backend="scipy",
                                cache_dir=tmp_path / "c")
        right = run_pipeline(config)
        cache = ArtifactCache(config.cache_dir)
        fields = k2_cache_fields(config, variant="backend-serial")
        matrix, meta = cache.load_csr("k2", fields)
        assert matrix.format == "csc"
        cache.remove(cache_key(fields), kind="k2")
        # The same config's entry as a program with the older layout
        # wrote it: these arrays read as CSR, i.e. the transpose.
        older = dict(fields, layout=fields["layout"] - 1)
        cache.store_csr("k2", older, sp.csr_matrix(
            (matrix.data, matrix.indices, matrix.indptr),
            shape=matrix.shape), meta)

        again = run_pipeline(config)
        assert (again.kernel(KernelName.K2_FILTER)
                .details["artifact_cache"] == "miss")
        np.testing.assert_array_equal(again.rank, right.rank)
        # What the version prevents: under one key that entry reads back
        # without an error, as a wrong rank.
        monkeypatch.setitem(LAYOUT_VERSIONS, "k2", older["layout"])
        misread = run_pipeline(config)
        assert (misread.kernel(KernelName.K2_FILTER)
                .details["artifact_cache"] == "hit")
        assert not np.array_equal(misread.rank, right.rank)


class TestK2WarmRuns:
    @pytest.mark.parametrize("execution", ["serial", "streaming", "async"])
    def test_second_run_skips_k2(self, tmp_path, execution):
        config = PipelineConfig(scale=7, seed=4, backend="scipy",
                                execution=execution,
                                cache_dir=tmp_path / "c")
        first = run_pipeline(config)
        second = run_pipeline(config)
        k2_first = first.kernel(KernelName.K2_FILTER)
        k2_second = second.kernel(KernelName.K2_FILTER)
        assert k2_first.details["artifact_cache"] == "miss"
        assert k2_second.details["artifact_cache"] == "hit"
        assert k2_second.cached
        np.testing.assert_array_equal(first.rank, second.rank)

    def test_serial_and_async_share_k2_entries(self, tmp_path):
        # Serial and async run the backend's own Kernel 2 build, so they
        # share K2 entries; the streaming assembly keys separately (it
        # may differ in the last ulp on some backends).
        cache = tmp_path / "c"
        base = PipelineConfig(scale=7, seed=9, backend="scipy",
                              cache_dir=cache)
        cold = run_pipeline(base)
        warm = run_pipeline(base.with_overrides(execution="async"))
        assert (warm.kernel(KernelName.K2_FILTER)
                .details["artifact_cache"] == "hit")
        np.testing.assert_array_equal(cold.rank, warm.rank)
        streaming = run_pipeline(base.with_overrides(execution="streaming"))
        assert (streaming.kernel(KernelName.K2_FILTER)
                .details["artifact_cache"] == "miss")

    def test_warm_cache_never_changes_dataframe_bits(self, tmp_path):
        # The regression the variant key exists for: a serial dataframe
        # run must produce the same bits whether or not a streaming run
        # warmed the cache first.
        cold = run_pipeline(PipelineConfig(scale=6, seed=3,
                                           backend="dataframe"))
        cache = tmp_path / "c"
        run_pipeline(PipelineConfig(scale=6, seed=3, backend="dataframe",
                                    execution="streaming", cache_dir=cache))
        warmed = run_pipeline(PipelineConfig(scale=6, seed=3,
                                             backend="dataframe",
                                             cache_dir=cache))
        np.testing.assert_array_equal(warmed.rank, cold.rank)

    def test_torn_k2_entry_reads_as_a_miss_with_the_same_digest(
            self, tmp_path):
        # A half-written array file (a torn disk, a killed copy) must not
        # break later runs: it is purged, rebuilt, and the rank digest
        # is the one the intact entry gave.
        from repro.api import RunSpec, execute_spec

        spec = RunSpec(scale=8, seed=1, backend="scipy")
        cache_dir = tmp_path / "c"
        cold = execute_spec(spec, cache_dir=cache_dir)
        [payload] = (cache_dir / "k2").glob("*/data.bin")
        size = payload.stat().st_size
        payload.write_bytes(payload.read_bytes()[: size // 2])

        rerun = execute_spec(spec, cache_dir=cache_dir)
        k2 = rerun.result.kernel(KernelName.K2_FILTER)
        assert k2.details["artifact_cache"] == "miss"
        assert rerun.rank_digest == cold.rank_digest
        assert payload.stat().st_size == size
        warm = execute_spec(spec, cache_dir=cache_dir)
        assert (warm.result.kernel(KernelName.K2_FILTER)
                .details["artifact_cache"] == "hit")
        assert warm.rank_digest == cold.rank_digest

    def test_python_backend_skips_k2_cache(self, tmp_path):
        # No adjacency_from_csr => the cache must not be consulted.
        config = PipelineConfig(scale=6, seed=1, backend="python",
                                cache_dir=tmp_path / "c")
        run_pipeline(config)
        result = run_pipeline(config)
        k2 = result.kernel(KernelName.K2_FILTER)
        assert "artifact_cache" not in k2.details
        assert not (tmp_path / "c" / "k2").exists()
