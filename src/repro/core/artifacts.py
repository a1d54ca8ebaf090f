"""Content-addressed artifact cache for Kernel 0/1 outputs.

Sweeps and repeated runs regenerate and re-sort the *same* graph over
and over: the paper's Figures 4–7 grid runs every backend at every
scale, and ``repeats > 1`` multiplies that again.  Kernel 0 and Kernel 1
outputs are pure functions of a small set of config fields, so they can
be cached on disk and reused — turning sweep repeats into (timed) cache
reads and making the uncached cost visible exactly once.

The cache is content-*addressed by inputs*: an entry key is the SHA-256
of the canonical JSON of every config field that influences the bytes
written (scale, seed, generator, shard count, format, …).  Any field
change produces a new key; stale entries are never silently reused.

Entries are produced in a producer-private staging directory (unique
per attempt, so concurrent worker threads sharing one pid cannot
collide) and published with an atomic rename, so concurrent runs
sharing one cache root never observe a half-written entry: a racing
producer that loses the rename simply discards its staging copy and
reads the winner's.
As a second line of defence, :class:`~repro.edgeio.dataset.EdgeDataset`
writes its manifest last and ``open`` refuses a directory without one —
an entry torn by a hard crash reads as a miss, is purged, and is
regenerated.

Eviction (``repro cache prune`` / :meth:`ArtifactCache.prune`) is made
safe against concurrent readers by per-entry advisory lock files
(``<root>/<kind>/<key>.lock``): readers hold a *shared* lock while an
entry is open (the executors keep it for the rest of the run, since
Kernel 1 re-reads the Kernel 0 dataset lazily), and eviction only
deletes an entry after winning a non-blocking *exclusive* lock — a busy
entry is simply skipped and remains charged to the cache budget until
its readers finish.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import shutil
import tarfile
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

try:  # POSIX advisory locks; the lock degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import numpy as np
import scipy.sparse as sp

from repro.backends.base import Details
from repro.core import trace
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset

#: Producer callback: given the entry directory, build the dataset there.
DatasetProducer = Callable[[Path], Tuple[EdgeDataset, Details]]

#: Sentinel: an entry exists but is provably corrupt (see
#: :meth:`ArtifactCache._open_entry`).
_CORRUPT = object()

#: On-disk layout version of each artifact kind, hashed into that kind's
#: cache key (``"layout"`` in ``k*_cache_fields``).  Bump a kind's number
#: in the change that alters what its entry's files mean for the same
#: fields — a new file, member, dtype or matrix orientation — so that a
#: program reading another layout *misses* the entry instead of misreading
#: it (a wrong rank with no error).  Only the changed kind is bumped; the
#: fields of k1 and k2 build on k0's, but each carries its own number.
#: k2 is at 2: its ``csr.npz`` became the CSC that Kernel 3 multiplies by.
LAYOUT_VERSIONS: Dict[str, int] = {"k0": 1, "k1": 1, "k2": 2}


def k0_cache_fields(
    config: PipelineConfig, backend_name: Optional[str] = None
) -> Dict[str, object]:
    """Config fields that fully determine the Kernel 0 output bytes.

    The backend name is included because the pure-python backend draws
    from its own generator stream — its edge files differ from the
    numpy-family backends at the same seed.  Pass ``backend_name`` when
    the executing backend was supplied as an instance (it may differ
    from ``config.backend``); defaults to ``config.backend``.
    """
    return {
        "kernel": "k0",
        "layout": LAYOUT_VERSIONS["k0"],
        "scale": config.scale,
        "edge_factor": config.edge_factor,
        "seed": config.seed,
        "generator": config.generator,
        "backend": backend_name if backend_name is not None else config.backend,
        "num_files": config.num_files,
        "vertex_base": config.vertex_base,
        "file_format": config.file_format,
    }


def k1_cache_fields(
    config: PipelineConfig, backend_name: Optional[str] = None
) -> Dict[str, object]:
    """Config fields determining the Kernel 1 output (K0 fields + sort)."""
    fields = k0_cache_fields(config, backend_name)
    fields.update(
        {
            "kernel": "k1",
            "layout": LAYOUT_VERSIONS["k1"],
            "sort_algorithm": config.sort_algorithm,
            "sort_by_end_vertex": config.sort_by_end_vertex,
            "external_sort": config.external_sort,
        }
    )
    return fields


def k2_cache_fields(
    config: PipelineConfig,
    backend_name: Optional[str] = None,
    *,
    variant: str = "streaming-csr",
) -> Dict[str, object]:
    """Config fields determining the Kernel 2 filtered matrix.

    The filtered, row-normalised matrix is a pure function of the
    Kernel 1 dataset *and the producing arithmetic path*: batch sizes
    never affect values (count arithmetic is exact), but a backend's
    serial kernel may normalise with a division where the CSR-assembly
    path multiplies by a reciprocal — different in the last ulp (the
    dataframe backend does exactly this).  ``variant`` names that path
    (``"backend-serial"`` for the backend's own kernel2,
    ``"streaming-csr"`` for the out-of-core assembly shared by the
    streaming and async executors), so a warm cache can never change a
    run's bits relative to a cold one.
    """
    fields = k1_cache_fields(config, backend_name)
    fields["kernel"] = "k2"
    fields["layout"] = LAYOUT_VERSIONS["k2"]
    fields["variant"] = variant
    return fields


def cache_key(fields: Dict[str, object]) -> str:
    """Deterministic hex key for a field dict (stable across processes).

    Examples
    --------
    >>> a = cache_key({"scale": 10, "seed": 1})
    >>> b = cache_key({"seed": 1, "scale": 10})
    >>> a == b  # insertion order is irrelevant
    True
    >>> cache_key({"scale": 10, "seed": 2}) == a
    False
    """
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


class EntryLock:
    """Advisory per-entry file lock: shared readers, exclusive eviction.

    The lock file lives *beside* the entry directory (never inside it),
    so deleting the entry does not delete the lock out from under a
    blocked waiter.  On platforms without ``fcntl`` the lock degrades to
    a no-op — acquisition always succeeds — which preserves the
    pre-lock behaviour instead of failing.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._fh = None

    @property
    def held(self) -> bool:
        """Whether this object currently holds the lock."""
        return self._fh is not None

    def acquire(self, *, shared: bool, blocking: bool = True) -> bool:
        """Take the lock; returns False only for a non-blocking attempt
        that lost to a conflicting holder.

        Any other ``flock`` failure (``ENOLCK`` on an NFS mount without
        a lock daemon, …) raises: silently proceeding unlocked would
        let eviction tear the entry out from under the caller — the
        exact race this lock exists to prevent.
        """
        if self._fh is not None:
            raise RuntimeError(f"lock {self.path} is already held")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.path, "ab")
        if fcntl is not None:
            flags = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
            if not blocking:
                flags |= fcntl.LOCK_NB
            try:
                fcntl.flock(fh.fileno(), flags)
            except OSError as exc:
                fh.close()
                if not blocking and exc.errno in (
                    errno.EAGAIN, errno.EACCES, errno.EWOULDBLOCK,
                ):
                    return False
                raise
        self._fh = fh
        return True

    def release(self) -> None:
        """Drop the lock (idempotent)."""
        if self._fh is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fh.fileno(), fcntl.LOCK_UN)
        finally:
            self._fh.close()
            self._fh = None

    @contextmanager
    def shared(self) -> Iterator["EntryLock"]:
        """Hold the lock in shared (reader) mode for the block."""
        self.acquire(shared=True)
        try:
            yield self
        finally:
            self.release()


@dataclass(frozen=True)
class CacheEntry:
    """One published cache entry, as seen by ``ls``/eviction.

    ``mtime`` is the recency signal: entries are touched on every hit,
    so mtime-ordered eviction is LRU.
    """

    kind: str
    key: str
    path: Path
    num_bytes: int
    mtime: float


class ArtifactCache:
    """Filesystem cache of kernel output artifacts, keyed by config.

    Layout::

        <root>/k0/<key>/manifest.json + shards + cache-entry.json
        <root>/k1/<key>/...
        <root>/k2/<key>/csr.npz (CSR or CSC) + meta.json + cache-entry.json

    ``cache-entry.json`` records the key's input fields for inspection
    (``repro`` never reads it back — the key *is* the address).  Every
    hit bumps the entry directory's mtime, so :meth:`prune` evicting in
    mtime order implements size-budgeted LRU.
    """

    #: Artifact namespaces the cache knows how to enumerate.
    KINDS = ("k0", "k1", "k2")

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ValueError(
                f"cache_dir {self.root} exists and is not a directory"
            )

    def entry_dir(self, kind: str, key: str) -> Path:
        """Directory holding one cache entry."""
        return self.root / kind / key

    def entry_lock(self, kind: str, key: str) -> EntryLock:
        """The advisory lock guarding one entry against eviction."""
        return EntryLock(self.root / kind / f"{key}.lock")

    def dataset(
        self,
        kind: str,
        fields: Dict[str, object],
        producer: DatasetProducer,
        *,
        hold: Optional[List[EntryLock]] = None,
    ) -> Tuple[EdgeDataset, Details]:
        """Return the cached dataset for ``fields``, producing on miss.

        Published entries open with memory-mapped shard reads: ``npy``
        payloads come back as read-only views, so concurrent readers
        on one host share one page-cache copy of a warm entry (text
        formats always decode into private arrays).  The shared lock
        keeps eviction from unmapping pages mid-read.

        Parameters
        ----------
        kind:
            Namespace (``"k0"`` / ``"k1"``).
        fields:
            Input fields addressing the entry (see :func:`cache_key`).
        producer:
            Invoked with the entry directory on a miss; must write the
            dataset there and return ``(dataset, details)``.
        hold:
            When given, a shared :class:`EntryLock` on the entry is
            acquired and appended here instead of being released before
            return — the caller keeps eviction away from the (lazily
            read) dataset until it releases the lock.  Omitted, the
            lock only covers the open itself.

        Returns
        -------
        (dataset, details):
            ``details`` gains ``artifact_cache`` (``"hit"``/``"miss"``)
            and ``artifact_cache_key`` so cache behaviour is visible in
            every :class:`~repro.core.results.KernelResult`.
        """
        key = cache_key(fields)
        entry = self.entry_dir(kind, key)
        probe = trace.span(f"cache:{kind}", cat="cache", key=key)
        with probe:
            hit = self._open_locked(kind, key, hold)
            probe.set(outcome="hit" if hit is not None else "miss")
        if hit is not None:
            return hit

        # Miss: produce into a producer-private staging dir, then
        # publish atomically so concurrent runs never see a half-written
        # entry.  mkdtemp makes the staging name unique per *attempt* —
        # concurrent producers in one process (the service's worker
        # threads share a pid) must not collide on it.  The lock is not
        # held while producing; publication is an atomic rename.
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(
            prefix=f"{entry.name}.tmp-", dir=entry.parent
        ))
        discard_staging = True
        try:
            dataset, details = producer(staging)
            details = dict(details)
            details["artifact_cache"] = "miss"
            details["artifact_cache_key"] = key
            if not (staging / "manifest.json").exists():
                # The producer wrote its dataset elsewhere (possible with
                # custom backends); nothing publishable — return as-is,
                # keeping whatever the producer left behind.
                discard_staging = False
                return dataset, details
            (staging / "cache-entry.json").write_text(
                json.dumps(fields, indent=2, sort_keys=True), encoding="utf-8"
            )
            try:
                os.replace(staging, entry)
            except OSError:
                # A racing producer published first; use its entry.
                winner = self._open_locked(kind, key, hold)
                if winner is not None:
                    return winner[0], details
                # Winner unreadable: fall back to our staging copy.
                discard_staging = False
                return dataset, details
            published = self._open_locked(kind, key, hold)
            if published is not None:
                return published[0], details
            # Evicted between publish and reopen (possible but absurd —
            # a prune racing a brand-new entry); the staging copy is
            # gone, so reopening the entry path is all we have.
            return EdgeDataset.open(entry, mmap=True), details
        finally:
            if discard_staging:
                shutil.rmtree(staging, ignore_errors=True)

    def _open_locked(
        self, kind: str, key: str, hold: Optional[List[EntryLock]]
    ):
        """Open a published entry under its shared lock.

        On a clean hit the lock is either handed to ``hold`` or
        released (the caller got its data).  A provably-corrupt entry
        is purged *after* the shared lock is dropped and only if the
        exclusive lock can be won — never out from under a concurrent
        reader — and reads as a miss either way.
        """
        lock = self.entry_lock(kind, key)
        lock.acquire(shared=True)
        try:
            opened = self._open_entry(self.entry_dir(kind, key), key)
            if opened is not None and opened is not _CORRUPT:
                if hold is not None:
                    hold.append(lock)
                    lock = None  # ownership transferred to the caller
                return opened
        finally:
            if lock is not None:
                lock.release()
        if opened is _CORRUPT:
            self._purge_corrupt(kind, key)
        return None

    def _purge_corrupt(self, kind: str, key: str) -> None:
        """Delete a provably-bad entry iff the exclusive lock is free.

        A busy lock means another process is mid-read; it will reach
        the same corruption verdict itself (or finish with the old
        bytes), so skipping is safe — the entry stays a miss for us.
        """
        lock = self.entry_lock(kind, key)
        if not lock.acquire(shared=False, blocking=False):
            return
        try:
            shutil.rmtree(self.entry_dir(kind, key), ignore_errors=True)
        finally:
            lock.release()

    def _open_entry(self, entry: Path, key: str):
        """Open a published entry; :data:`_CORRUPT` when provably bad.

        The caller (:meth:`_open_locked`) owns purging — it happens
        under the entry's *exclusive* lock, never from here where only
        the shared lock is held.
        """
        from repro.edgeio.errors import EdgeIOError

        if not (entry / "manifest.json").exists():
            return None
        try:
            dataset = EdgeDataset.open(entry, mmap=True)
        except (EdgeIOError, ValueError, KeyError):
            # Corruption the verifier detected (missing shard, size or
            # CRC mismatch, unparseable manifest).  Transient I/O
            # errors (EMFILE, EACCES, …) propagate instead — deleting
            # a shared entry that another process may be reading is
            # never the answer to those.
            return _CORRUPT
        self._touch(entry)
        return dataset, {
            "artifact_cache": "hit",
            "artifact_cache_key": key,
            "num_edges": dataset.num_edges,
            "num_shards": dataset.num_shards,
        }

    @staticmethod
    def _touch(entry: Path) -> None:
        """Bump the entry's mtime (the LRU recency signal); best-effort."""
        try:
            os.utime(entry, None)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # CSR matrix artifacts (Kernel 2)
    # ------------------------------------------------------------------
    def load_csr(
        self, kind: str, fields: Dict[str, object]
    ) -> Optional[Tuple[sp.spmatrix, Dict[str, object]]]:
        """Load a cached matrix (CSR or CSC, as stored), or ``None`` on miss.

        Returns ``(matrix, meta)`` where ``meta`` is whatever
        :meth:`store_csr` recorded (e.g. ``pre_filter_entry_total``).
        A torn or unreadable entry is purged and reads as a miss.  The
        entry's shared lock is held only for the load — the matrix is
        fully materialised in memory before return, so eviction cannot
        tear it afterwards.
        """
        key = cache_key(fields)
        entry = self.entry_dir(kind, key)
        payload = entry / "csr.npz"
        meta_path = entry / "meta.json"
        probe = trace.span(f"cache:{kind}", cat="cache", key=key)
        with probe:
            with self.entry_lock(kind, key).shared():
                if not payload.exists() or not meta_path.exists():
                    probe.set(outcome="miss")
                    return None
                try:
                    meta = json.loads(meta_path.read_text(encoding="utf-8"))
                    with np.load(payload) as archive:
                        shape = tuple(int(x) for x in archive["shape"])
                        # The marker is a member's name: nothing to read,
                        # and an entry without it is CSR.
                        csc = "csc" in archive.files
                        matrix = (sp.csc_matrix if csc else sp.csr_matrix)(
                            (archive["data"], archive["indices"],
                             archive["indptr"]),
                            shape=shape,
                        )
                except (OSError, ValueError, KeyError, json.JSONDecodeError):
                    matrix = None
                else:
                    self._touch(entry)
            if matrix is None:
                # Unreadable entry: purge only if the exclusive lock can
                # be won (see _purge_corrupt) — never under a reader.
                probe.set(outcome="miss")
                self._purge_corrupt(kind, key)
                return None
            probe.set(outcome="hit")
        return matrix, meta

    def store_csr(
        self,
        kind: str,
        fields: Dict[str, object],
        matrix: sp.spmatrix,
        meta: Dict[str, object],
    ) -> str:
        """Publish a matrix entry (CSR or CSC, as handed) atomically;
        returns the entry key.

        Losing a publish race is fine — the winner's entry is
        value-identical by construction (same fields, pure function).
        """
        key = cache_key(fields)
        entry = self.entry_dir(kind, key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(
            prefix=f"{entry.name}.tmp-", dir=entry.parent
        ))
        try:
            with trace.span(f"cache:{kind}:store", cat="cache", key=key):
                if matrix.format not in ("csr", "csc"):
                    matrix = matrix.tocsr()
                marker = {"csc": np.empty(0)} if matrix.format == "csc" else {}
                np.savez(
                    staging / "csr.npz",
                    indptr=matrix.indptr,
                    indices=matrix.indices,
                    data=matrix.data,
                    shape=np.asarray(matrix.shape, dtype=np.int64),
                    **marker,
                )
                (staging / "meta.json").write_text(
                    json.dumps(meta, indent=2, sort_keys=True),
                    encoding="utf-8",
                )
                (staging / "cache-entry.json").write_text(
                    json.dumps(fields, indent=2, sort_keys=True),
                    encoding="utf-8",
                )
                try:
                    os.replace(staging, entry)
                except OSError:
                    pass  # a racing producer published an identical entry
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return key

    # ------------------------------------------------------------------
    # Inspection and size-budgeted LRU eviction
    # ------------------------------------------------------------------
    def entries(self) -> List[CacheEntry]:
        """Every published entry, oldest (least recently used) first.

        Tolerates concurrent mutation: an entry (or file inside it)
        deleted between listing and stat — another process pruning, or
        a reader purging a torn entry — is simply skipped, not a crash.
        """
        found: List[CacheEntry] = []
        for kind in self.KINDS:
            kind_dir = self.root / kind
            if not kind_dir.is_dir():
                continue
            for entry in sorted(kind_dir.iterdir()):
                if not entry.is_dir() or ".tmp-" in entry.name:
                    continue
                try:
                    num_bytes = 0
                    for path in entry.rglob("*"):
                        try:
                            if path.is_file():
                                num_bytes += path.stat().st_size
                        except OSError:
                            continue
                    mtime = entry.stat().st_mtime
                except OSError:
                    continue  # vanished mid-walk
                found.append(
                    CacheEntry(
                        kind=kind,
                        key=entry.name,
                        path=entry,
                        num_bytes=num_bytes,
                        mtime=mtime,
                    )
                )
        found.sort(key=lambda e: (e.mtime, e.kind, e.key))
        return found

    def total_bytes(self) -> int:
        """Summed on-disk size of all published entries."""
        return sum(entry.num_bytes for entry in self.entries())

    def _evict(self, entry: CacheEntry) -> bool:
        """Delete one entry iff no reader holds its lock.

        Takes the entry's exclusive lock *non-blocking*: a conflicting
        shared holder means the entry is being read right now, so it is
        skipped (still charged to the budget) rather than torn out from
        under the reader.  The lock *file* is deliberately never
        deleted — it is the flock rendezvous point for its key, and
        unlinking it would strand a blocked waiter on an orphaned inode
        where a later evictor (locking a fresh inode at the same path)
        could delete the regenerated entry out from under it.  Lock
        files are empty; the disk cost of keeping them is bytes.
        """
        lock = self.entry_lock(entry.kind, entry.key)
        if not lock.acquire(shared=False, blocking=False):
            return False
        try:
            with trace.span("cache:evict", cat="cache", kind=entry.kind,
                            key=entry.key, freed_bytes=entry.num_bytes):
                shutil.rmtree(entry.path, ignore_errors=True)
            return True
        finally:
            lock.release()

    #: Staging directories older than this are presumed crashed (a live
    #: produce takes seconds to minutes) and reclaimed by :meth:`prune`.
    STALE_STAGING_SECONDS = 24 * 3600.0

    def _reclaim_stale_staging(self) -> None:
        """Delete ``*.tmp-*`` staging dirs abandoned by a crashed producer.

        Staging names are unique per attempt (``mkdtemp``), so nothing
        ever reuses an orphan; without this sweep a SIGKILLed producer
        would leak its partial shards in the shared cache root forever
        (invisible to :meth:`entries`, uncharged to the budget).  Only
        directories untouched for :data:`STALE_STAGING_SECONDS` are
        removed — a live producer's staging is never at risk.
        """
        import time

        cutoff = time.time() - self.STALE_STAGING_SECONDS
        for kind in self.KINDS:
            kind_dir = self.root / kind
            if not kind_dir.is_dir():
                continue
            for path in kind_dir.iterdir():
                if ".tmp-" not in path.name or not path.is_dir():
                    continue
                try:
                    newest = max(
                        [path.stat().st_mtime]
                        + [p.stat().st_mtime for p in path.rglob("*")]
                    )
                except OSError:
                    continue  # vanished mid-walk (its producer finished)
                if newest < cutoff:
                    shutil.rmtree(path, ignore_errors=True)

    # ------------------------------------------------------------------
    # Cross-host entry transport (the distributed worker plane's
    # GET/PUT /artifacts sync endpoint packs entries with these)
    # ------------------------------------------------------------------
    def export_entry(self, kind: str, key: str) -> Optional[bytes]:
        """Pack one published entry as an uncompressed tar archive.

        Returns ``None`` when the entry does not exist (or is torn —
        no manifest).  The entry's shared lock is held for the read so
        a concurrent prune cannot delete files mid-pack; archive member
        names are entry-relative, so :meth:`import_entry` on any host
        reproduces the exact directory.  Keys are content-addressed by
        the *producing config*, which is what makes a transplanted
        entry safe: the receiving host would have produced the same
        bytes under the same key.
        """
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        entry = self.entry_dir(kind, key)
        lock = self.entry_lock(kind, key)
        lock.acquire(shared=True)
        try:
            if not (entry / "manifest.json").is_file():
                return None
            buffer = io.BytesIO()
            with tarfile.open(fileobj=buffer, mode="w") as archive:
                for path in sorted(entry.rglob("*")):
                    if path.is_file():
                        archive.add(
                            path, arcname=path.relative_to(entry).as_posix()
                        )
            self._touch(entry)
            return buffer.getvalue()
        except OSError:
            return None  # entry vanished mid-pack; report a miss
        finally:
            lock.release()

    def import_entry(self, kind: str, key: str, data: bytes) -> bool:
        """Unpack an :meth:`export_entry` archive as a published entry.

        Extraction is defensive — only regular files, entry-relative
        paths (no absolute members, no ``..`` traversal, no symlinks) —
        into a private staging directory, published with the same
        atomic rename the producers use.  Losing the rename race to a
        concurrent producer/import counts as success (the winner's
        bytes are equivalent by content addressing).  Returns ``False``
        for a malformed or unsafe archive.
        """
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        entry = self.entry_dir(kind, key)
        if (entry / "manifest.json").is_file():
            self._touch(entry)
            return True  # already warm locally
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(
            prefix=f"{entry.name}.tmp-", dir=entry.parent
        ))
        try:
            with tarfile.open(fileobj=io.BytesIO(data), mode="r") as archive:
                for member in archive.getmembers():
                    if not member.isfile():
                        return False  # symlink/device/dir member: refuse
                    relative = Path(member.name)
                    if relative.is_absolute() or ".." in relative.parts:
                        return False
                    target = staging / relative
                    target.parent.mkdir(parents=True, exist_ok=True)
                    source = archive.extractfile(member)
                    if source is None:
                        return False
                    with open(target, "wb") as sink:
                        shutil.copyfileobj(source, sink)
            if not (staging / "manifest.json").is_file():
                return False  # a torn entry must never publish
            try:
                os.replace(staging, entry)
            except OSError:
                # A concurrent producer or import won the rename; its
                # entry is content-equivalent, so this import succeeded
                # in effect.
                pass
            return True
        except (tarfile.TarError, ValueError, OSError):
            return False
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    def remove(self, key: str, kind: Optional[str] = None) -> List[CacheEntry]:
        """Delete entries matching ``key`` (optionally restricted to one
        kind); returns what was removed.  Entries currently being read
        (shared lock held) are left in place."""
        removed = []
        for entry in self.entries():
            if entry.key != key or (kind is not None and entry.kind != kind):
                continue
            if self._evict(entry):
                removed.append(entry)
        return removed

    def prune(self, max_bytes: int) -> List[CacheEntry]:
        """Evict least-recently-used entries until the cache fits
        ``max_bytes``; returns the evicted entries.

        Eviction is mtime-ordered and hits touch their entry, so
        recently used artifacts survive.  ``max_bytes=0`` empties the
        cache.  An entry whose shared lock is held by a concurrent
        reader is skipped — it stays on disk (and in the byte total)
        until its readers finish; a later prune collects it.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self._reclaim_stale_staging()
        entries = self.entries()
        total = sum(entry.num_bytes for entry in entries)
        evicted: List[CacheEntry] = []
        for entry in entries:  # oldest first
            if total <= max_bytes:
                break
            if not self._evict(entry):
                continue  # in use by a concurrent reader
            total -= entry.num_bytes
            evicted.append(entry)
        return evicted
