"""Per-entry cache locks: eviction cannot race a concurrent reader."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.artifacts import ArtifactCache, EntryLock
from repro.edgeio.dataset import EdgeDataset

N_VERTICES = 8
N_EDGES = 64


def _producer(out_dir):
    u = np.arange(N_EDGES, dtype=np.int64) % N_VERTICES
    v = (np.arange(N_EDGES, dtype=np.int64) * 3) % N_VERTICES
    dataset = EdgeDataset.write(
        out_dir, u, v, num_vertices=N_VERTICES, num_shards=2
    )
    return dataset, {"num_edges": N_EDGES}


FIELDS = {"kernel": "k0", "test": "lock-suite"}


class TestEntryLock:
    def test_shared_locks_coexist(self, tmp_path):
        a = EntryLock(tmp_path / "e.lock")
        b = EntryLock(tmp_path / "e.lock")
        assert a.acquire(shared=True)
        assert b.acquire(shared=True, blocking=False)
        a.release()
        b.release()

    def test_exclusive_blocked_by_shared(self, tmp_path):
        reader = EntryLock(tmp_path / "e.lock")
        evictor = EntryLock(tmp_path / "e.lock")
        assert reader.acquire(shared=True)
        assert not evictor.acquire(shared=False, blocking=False)
        reader.release()
        assert evictor.acquire(shared=False, blocking=False)
        evictor.release()

    def test_release_is_idempotent(self, tmp_path):
        lock = EntryLock(tmp_path / "e.lock")
        lock.acquire(shared=True)
        lock.release()
        lock.release()
        assert not lock.held

    def test_double_acquire_refused(self, tmp_path):
        lock = EntryLock(tmp_path / "e.lock")
        lock.acquire(shared=True)
        with pytest.raises(RuntimeError, match="already held"):
            lock.acquire(shared=True)
        lock.release()


class TestCacheEvictionRespectsLocks:
    def test_prune_skips_entry_held_by_reader(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        held = []
        dataset, details = cache.dataset("k0", FIELDS, _producer, hold=held)
        assert details["artifact_cache"] == "miss"
        assert len(held) == 1
        # The reader still holds the entry: prune(0) must not evict it.
        assert cache.prune(0) == []
        assert dataset.num_edges == N_EDGES  # still readable
        u, v = dataset.read_all()
        assert len(u) == N_EDGES
        # Released, the same prune empties the cache.
        held.pop().release()
        assert len(cache.prune(0)) == 1
        assert cache.entries() == []

    def test_remove_skips_entry_held_by_reader(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        held = []
        cache.dataset("k0", FIELDS, _producer, hold=held)
        key = cache.entries()[0].key
        assert cache.remove(key) == []
        held.pop().release()
        assert len(cache.remove(key)) == 1

    def test_hit_after_eviction_regenerates(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.dataset("k0", FIELDS, _producer)  # no hold: lock released
        assert len(cache.prune(0)) == 1
        dataset, details = cache.dataset("k0", FIELDS, _producer)
        assert details["artifact_cache"] == "miss"
        assert dataset.num_edges == N_EDGES

    def test_prune_right_after_publish_cannot_fail_the_miss(
            self, tmp_path, monkeypatch):
        # The window the stress test below hits by chance: a prune that
        # lands between the miss path's publish and its reopen.
        cache = ArtifactCache(tmp_path)
        publish = cache._publish

        def publish_then_prune(*args, **kwargs):
            result = publish(*args, **kwargs)
            cache.prune(0)
            return result

        monkeypatch.setattr(cache, "_publish", publish_then_prune)
        held = []
        dataset, details = cache.dataset("k0", FIELDS, _producer, hold=held)
        try:
            assert details["artifact_cache"] == "miss"
            expected, _ = _producer(tmp_path / "reference")
            for got, want in zip(dataset.read_all(), expected.read_all()):
                np.testing.assert_array_equal(got, want)
        finally:
            while held:
                held.pop().release()

    def test_lock_files_not_listed_as_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.dataset("k0", FIELDS, _producer)
        entries = cache.entries()
        assert len(entries) == 1
        assert not entries[0].key.endswith(".lock")


class TestStaleStagingReclaim:
    def test_prune_collects_crashed_staging_but_not_fresh(self, tmp_path):
        import os

        cache = ArtifactCache(tmp_path)
        cache.dataset("k0", FIELDS, _producer)
        stale = tmp_path / "k0" / "deadbeef.tmp-crashed"
        stale.mkdir(parents=True)
        (stale / "part-00000.tsv").write_text("0\t1\t1\n")
        old = 1_000_000.0  # epoch 1970: well past any staleness cutoff
        os.utime(stale / "part-00000.tsv", (old, old))
        os.utime(stale, (old, old))
        fresh = tmp_path / "k0" / "cafef00d.tmp-live"
        fresh.mkdir(parents=True)
        cache.prune(1 << 30)  # budget large: no entry eviction
        assert not stale.exists()  # crashed producer's leak reclaimed
        assert fresh.exists()  # a live produce is never touched
        assert len(cache.entries()) == 1

    def test_lock_files_survive_eviction(self, tmp_path):
        # The lock file is the flock rendezvous for its key: deleting
        # it would strand blocked waiters on an orphaned inode.
        cache = ArtifactCache(tmp_path)
        cache.dataset("k0", FIELDS, _producer)
        key = cache.entries()[0].key
        lock_path = cache.entry_lock("k0", key).path
        assert lock_path.exists()
        assert len(cache.prune(0)) == 1
        assert lock_path.exists()


class TestLockStress:
    """Readers hammer one entry while a pruner loops ``prune(0)``.

    Without per-entry locks this interleaving tears shards out from
    under `read_all`; with them every read either sees the full dataset
    or regenerates it from a clean miss.
    """

    def test_concurrent_readers_survive_prune_loop(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        deadline = time.monotonic() + 3.0
        errors = []
        reads = []

        def reader():
            while time.monotonic() < deadline:
                held = []
                try:
                    dataset, _ = cache.dataset(
                        "k0", FIELDS, _producer, hold=held
                    )
                    u, v = dataset.read_all()
                    if len(u) != N_EDGES or len(v) != N_EDGES:
                        errors.append(f"torn read: {len(u)}/{len(v)} edges")
                except Exception as exc:  # noqa: BLE001 - collecting
                    errors.append(f"{type(exc).__name__}: {exc}")
                finally:
                    while held:
                        held.pop().release()
                reads.append(1)

        def pruner():
            while time.monotonic() < deadline:
                try:
                    cache.prune(0)
                except Exception as exc:  # noqa: BLE001 - collecting
                    errors.append(f"pruner {type(exc).__name__}: {exc}")
                time.sleep(0.001)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=pruner))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []
        assert len(reads) > 0
