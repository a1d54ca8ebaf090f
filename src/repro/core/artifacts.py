"""Content-addressed artifact cache for Kernel 0/1/2 outputs.

Sweeps and repeated runs regenerate and re-sort the *same* graph over
and over: the paper's Figures 4–7 grid runs every backend at every
scale, and ``repeats > 1`` multiplies that again.  Kernel 0 and Kernel 1
datasets and the Kernel 2 matrix are pure functions of a small set of
config fields, so they can be cached on disk and reused — turning sweep
repeats into (timed) cache reads and making the uncached cost visible
exactly once.

The cache is content-*addressed by inputs*: an entry key is the SHA-256
of the canonical JSON of every config field that influences the bytes
written (scale, seed, generator, shard count, format, …).  Any field
change produces a new key; stale entries are never silently reused.

Every entry, whatever its kind, is published one way
(:meth:`ArtifactCache._publish`: staging directory, :data:`MARKER`
last, atomic rename), so concurrent runs sharing one cache root never
observe a half-written entry, and read one way
(:meth:`ArtifactCache._read`), under one corruption rule
(:data:`CORRUPTION`): a torn entry reads as a miss and is purged, a
transient ``OSError`` propagates and purges nothing.  A k0/k1 hit checks
shard sizes; their CRC32s (in the manifest) are checked when a kernel
reads them, and a mismatch then raises: an error, not a miss.  A k2
hit reads its arrays whole and checks their CRC32s (in ``matrix.json``)
at once, so a mismatch there is a miss.

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
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, TypeVar,
)

try:  # POSIX advisory locks; the lock degrades to a no-op elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.core import trace
from repro.core.config import PipelineConfig
from repro.edgeio.errors import EdgeIOError

if TYPE_CHECKING:  # the readers import numpy/scipy when they run
    import scipy.sparse as sp

    from repro.backends.base import Details
    from repro.edgeio.dataset import EdgeDataset

#: Producer callback: given the entry directory, build the dataset there.
DatasetProducer = Callable[[Path], Tuple["EdgeDataset", "Details"]]

T = TypeVar("T")

#: The file every published entry carries, written last: the key's input
#: fields as JSON.  Its presence is what "published" means.
MARKER = "cache-entry.json"

#: The one corruption rule: what reading a published entry raises when
#: its files are torn or malformed — a format error (a bad manifest,
#: shard or matrix index, a k2 array file of the wrong size or CRC32) or
#: a missing key or file.  Such an entry reads as a miss and is purged.
#: Every other ``OSError`` (``EMFILE``, ``EACCES``, ``EIO``, …) is no
#: verdict on the entry: it propagates, and the entry stays for the next
#: reader.
CORRUPTION = (
    EdgeIOError, ValueError, KeyError, EOFError, FileNotFoundError,
)

#: On-disk layout version of each artifact kind, hashed into that kind's
#: cache key (``"layout"`` in ``k*_cache_fields``).  Bump a kind's number
#: in the change that alters what its entry's files mean for the same
#: fields — a new file, member, dtype or matrix orientation — so that a
#: program reading another layout *misses* the entry instead of misreading
#: it (a wrong rank with no error).  Only the changed kind is bumped; the
#: fields of k1 and k2 build on k0's, but each carries its own number.
#: k2 is at 3: its matrix became the CSC that Kernel 3 multiplies by (2),
#: then three raw array files under a ``matrix.json`` of CRC32s (3).
LAYOUT_VERSIONS: Dict[str, int] = {"k0": 1, "k1": 1, "k2": 3}

#: A k2 entry's array files, one per compressed-matrix array, and the
#: JSON recording the layout, the shape and each file's dtype, length
#: and CRC32 (written with the arrays, checked on every read).
MATRIX_ARRAYS = ("indptr", "indices", "data")
MATRIX_INDEX = "matrix.json"


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
            "sort_by_end_vertex": config.sort_by_end_vertex,
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
    (``"backend-serial"`` for the backend's own Kernel 2 build, which
    the serial and async executors share; ``"streaming-csr"`` for the
    streaming executor's out-of-core assembly alone), so a warm cache
    can never change a run's bits relative to a cold one.  An async run
    that finds only ``"streaming-csr"`` entries (stored by programs
    whose async Kernel 2 was the out-of-core one) misses once; what an
    entry's files mean is unchanged, so ``LAYOUT_VERSIONS`` is too.
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
        <root>/k2/<key>/indptr.bin + indices.bin + data.bin
                        + matrix.json + meta.json + cache-entry.json

    A k2 entry's ``*.bin`` files are the matrix's arrays, raw;
    ``matrix.json`` records its layout (CSR or CSC, as stored), shape,
    and each array's dtype, length and CRC32.

    ``cache-entry.json`` (:data:`MARKER`) records the key's input fields;
    written last, it marks the entry published, and :meth:`import_entry`
    checks that its fields hash to the key it is filed under.  Every hit
    bumps the entry directory's mtime, so :meth:`prune` evicting in
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

    def published(self, kind: str, key: str) -> bool:
        """Whether ``kind``/``key`` is a published entry (has the marker)."""
        return (self.entry_dir(kind, key) / MARKER).is_file()

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
            Invoked with a staging directory on a miss; must write the
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
        dataset = self._read(kind, key, _open_dataset, hold=hold)
        if dataset is not None:
            return dataset, {
                "artifact_cache": "hit",
                "artifact_cache_key": key,
                "num_edges": dataset.num_edges,
                "num_shards": dataset.num_shards,
            }
        # A shared lock from before the rename until the reopen holds
        # its own: a prune in between cannot evict what we publish.
        lock = self.entry_lock(kind, key)
        lock.acquire(shared=True)
        try:
            details = dict(self._publish(
                kind, fields, lambda staging: producer(staging)[1]
            ))
            # Reopen what was published (ours, or a racing winner's): the
            # returned dataset must live in the entry, under the lock.
            dataset = self._read(kind, key, _open_dataset, hold=hold)
        finally:
            lock.release()
        details["artifact_cache"] = "miss"
        details["artifact_cache_key"] = key
        if dataset is None:
            raise RuntimeError(
                f"{kind} cache entry {key} was not readable right after "
                f"it was published"
            )
        return dataset, details

    def load_csr(
        self, kind: str, fields: Dict[str, object]
    ) -> Optional[Tuple[sp.spmatrix, Dict[str, object]]]:
        """Load a cached matrix (CSR or CSC, as stored), or ``None`` on miss.

        Returns ``(matrix, meta)`` where ``meta`` is whatever
        :meth:`store_csr` recorded (e.g. ``pre_filter_entry_total``).
        A torn entry is purged and reads as a miss (see :meth:`_read`).
        The entry's shared lock is held only for the load — the matrix
        is fully materialised in memory before return, so eviction
        cannot tear it afterwards.
        """
        return self._read(kind, cache_key(fields), _load_matrix)

    def store_csr(
        self,
        kind: str,
        fields: Dict[str, object],
        matrix: sp.spmatrix,
        meta: Dict[str, object],
    ) -> str:
        """Publish a matrix entry (CSR or CSC, as handed); returns the
        entry key."""
        key = cache_key(fields)
        if matrix.format not in ("csr", "csc"):
            matrix = matrix.tocsr()

        def write(staging: Path) -> None:
            _store_matrix(staging, matrix)
            (staging / "meta.json").write_text(
                json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
            )

        with trace.span(f"cache:{kind}:store", cat="cache", key=key):
            self._publish(kind, fields, write)
        return key

    # ------------------------------------------------------------------
    # The one publish path and the one read path
    # ------------------------------------------------------------------
    def _publish(
        self, kind: str, fields: Dict[str, object],
        fill: Callable[[Path], T],
    ) -> T:
        """Publish one entry atomically; returns what ``fill`` returned.

        ``fill(staging)`` writes the entry's files into a staging
        directory unique per attempt (``mkdtemp``: the service's worker
        threads share one pid).  The marker goes in last and one
        ``os.replace`` publishes the directory, so no reader ever sees a
        half-written entry.  Losing the rename to a concurrent publisher
        is fine: the winner's entry is value-identical by construction
        (same fields, pure function).  The staging directory is always
        removed.
        """
        entry = self.entry_dir(kind, cache_key(fields))
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(
            prefix=f"{entry.name}.tmp-", dir=entry.parent
        ))
        try:
            result = fill(staging)
            (staging / MARKER).write_text(
                json.dumps(fields, indent=2, sort_keys=True), encoding="utf-8"
            )
            try:
                os.replace(staging, entry)
            except OSError:
                pass  # a racing publisher won; its entry is identical
            return result
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    def _read(
        self,
        kind: str,
        key: str,
        read: Callable[[Path], T],
        *,
        hold: Optional[List[EntryLock]] = None,
    ) -> Optional[T]:
        """Read one entry under its shared lock; ``None`` on a miss.

        ``read(entry_dir)`` loads the entry's files.  No directory is a
        plain miss.  A directory without the marker, or one whose
        ``read`` raises a :data:`CORRUPTION` error, is torn: a miss too,
        and purged after the shared lock is dropped — only if the
        exclusive lock can be won, never out from under a concurrent
        reader.  Any other error propagates and leaves the entry alone.
        A hit touches the entry (the LRU signal) and appends the shared
        lock to ``hold`` when given (the caller releases it), else
        releases it.
        """
        entry = self.entry_dir(kind, key)
        probe = trace.span(f"cache:{kind}", cat="cache", key=key)
        with probe:
            lock = self.entry_lock(kind, key)
            lock.acquire(shared=True)
            try:
                if not entry.is_dir():
                    probe.set(outcome="miss")
                    return None
                try:
                    if not self.published(kind, key):
                        raise FileNotFoundError(errno.ENOENT, MARKER)
                    value = read(entry)
                except CORRUPTION:
                    pass
                else:
                    self._touch(entry)
                    if hold is not None:
                        hold.append(lock)
                        lock = None  # ownership passes to the caller
                    probe.set(outcome="hit")
                    return value
            finally:
                if lock is not None:
                    lock.release()
            probe.set(outcome="miss")
            self._purge_corrupt(kind, key)
            return None

    def _purge_corrupt(self, kind: str, key: str) -> None:
        """Delete a torn entry iff the exclusive lock is free.

        A busy lock means another process is mid-read; it will reach
        the same verdict itself, so skipping is safe — the entry stays
        a miss for us.
        """
        lock = self.entry_lock(kind, key)
        if not lock.acquire(shared=False, blocking=False):
            return
        try:
            shutil.rmtree(self.entry_dir(kind, key), ignore_errors=True)
        finally:
            lock.release()

    @staticmethod
    def _touch(entry: Path) -> None:
        """Bump the entry's mtime (the LRU recency signal); best-effort."""
        try:
            os.utime(entry, None)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Inspection and size-budgeted LRU eviction
    # ------------------------------------------------------------------
    def entries(self) -> List[CacheEntry]:
        """Every entry directory (staging excluded, torn ones included so
        eviction can collect them), least recently used first.

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

        Returns ``None`` when the entry is not published (or is torn,
        see :meth:`_read`).  The entry's shared lock is held for the
        read so a concurrent prune cannot delete files mid-pack;
        archive member names are entry-relative, so :meth:`import_entry`
        on any host reproduces the exact directory.  Keys are
        content-addressed by the *producing config*, which is what makes
        a transplanted entry safe: the receiving host would have
        produced the same bytes under the same key.
        """
        _check_kind(kind)
        return self._read(kind, key, _pack)

    def import_entry(self, kind: str, key: str, data: bytes) -> bool:
        """Publish an :meth:`export_entry` archive as entry ``key``.

        Extraction is defensive — only regular files, entry-relative
        paths (no absolute members, no ``..`` traversal, no symlinks).
        The archive's marker must parse and its fields must hash to
        ``key``, and its files must read as a hit reads them; they are
        then published the way a producer's are, losing the rename race
        counting as success (the winner's bytes are equivalent by content
        addressing).  Returns ``False`` for any other archive.
        """
        _check_kind(kind)
        if self.published(kind, key):
            self._touch(self.entry_dir(kind, key))
            return True  # already warm locally
        try:
            with tarfile.open(fileobj=io.BytesIO(data), mode="r") as archive:
                members = archive.getmembers()
                fields = None
                for member in members:
                    relative = Path(member.name)
                    if (not member.isfile() or relative.is_absolute()
                            or ".." in relative.parts):
                        return False  # symlink/device/dir or escaping path
                    if relative == Path(MARKER):
                        fields = json.load(archive.extractfile(member))
                if not isinstance(fields, dict) or cache_key(fields) != key:
                    return False  # unpublished or filed under another key

                def unpack(staging: Path) -> None:
                    for member in members:
                        target = staging / member.name
                        if target == staging / MARKER:
                            continue  # _publish writes it, last
                        target.parent.mkdir(parents=True, exist_ok=True)
                        with open(target, "wb") as sink:
                            shutil.copyfileobj(
                                archive.extractfile(member), sink
                            )
                    # Read the staged entry as a hit would: torn → refused.
                    if kind == "k2":
                        _load_matrix(staging)
                    else:
                        for _ in _open_dataset(staging).iter_shards():
                            pass

                self._publish(kind, fields, unpack)
            return True
        except (tarfile.TarError, OSError, *CORRUPTION):
            return False

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


def _check_kind(kind: str) -> None:
    if kind not in ArtifactCache.KINDS:
        raise ValueError(
            f"kind must be one of {ArtifactCache.KINDS}, got {kind!r}"
        )


def _open_dataset(entry: Path) -> EdgeDataset:
    """Read half of a k0/k1 entry: the verified, memory-mapped dataset."""
    from repro.edgeio.dataset import EdgeDataset

    return EdgeDataset.open(entry, mmap=True)


def _store_matrix(staging: Path, matrix: sp.spmatrix) -> None:
    """Write half of a k2 entry's matrix: each array raw, then
    :data:`MATRIX_INDEX` with the CRC32 of what was written."""
    import numpy as np

    arrays = {}
    for name in MATRIX_ARRAYS:
        raw = np.ascontiguousarray(getattr(matrix, name))
        (staging / f"{name}.bin").write_bytes(raw.view(np.uint8))
        arrays[name] = {"dtype": raw.dtype.str, "length": len(raw),
                        "crc32": zlib.crc32(raw.view(np.uint8))}
    index = {"format": matrix.format,
             "shape": [int(x) for x in matrix.shape], "arrays": arrays}
    (staging / MATRIX_INDEX).write_text(json.dumps(index), encoding="utf-8")


def _load_matrix(entry: Path) -> Tuple[sp.spmatrix, Dict[str, object]]:
    """Read half of a k2 entry: ``(matrix, meta)`` fully in memory.

    Each array is checked against its :data:`MATRIX_INDEX` record before
    the matrix is built; a malformed index, a file of the wrong size or
    a CRC mismatch raises ``ValueError`` (:data:`CORRUPTION`).
    """
    import scipy.sparse as sp

    meta = json.loads((entry / "meta.json").read_text(encoding="utf-8"))
    index = json.loads((entry / MATRIX_INDEX).read_text(encoding="utf-8"))
    try:  # outside input on import: a field of the wrong type is corrupt
        build = {"csr": sp.csr_matrix, "csc": sp.csc_matrix}[index["format"]]
        data, indices, indptr = (
            _read_array(entry / f"{name}.bin", index["arrays"][name])
            for name in ("data", "indices", "indptr"))
        return build((data, indices, indptr),
                     shape=tuple(index["shape"])), meta
    except TypeError as exc:
        raise ValueError(f"{entry / MATRIX_INDEX}: {exc}") from exc


def _read_array(path: Path, record: Dict[str, object]):
    """One k2 array file, read with one ``readinto`` into its recorded
    dtype once its size matches ``record``, then checked against the
    recorded CRC32.  Only integer and float dtypes are read, and the
    size is checked before anything is allocated."""
    import numpy as np

    dtype, length = np.dtype(record["dtype"]), record["length"]
    if dtype.kind not in "iuf" or type(length) is not int:
        raise ValueError(f"{path}: refusing {length!r} of {dtype}")
    with open(path, "rb") as source:
        size = os.fstat(source.fileno()).st_size
        if size != length * dtype.itemsize:
            raise ValueError(f"{path}: {size} bytes, not {length} of {dtype}")
        raw = np.empty(length, dtype=dtype).view(np.uint8)
        if source.readinto(raw) != size:
            raise ValueError(f"{path}: short read")
    if zlib.crc32(raw) != record["crc32"]:
        raise ValueError(f"{path}: CRC mismatch")
    return raw.view(dtype)


def _pack(entry: Path) -> bytes:
    """Every file of an entry as an uncompressed, entry-relative tar."""
    buffer = io.BytesIO()
    with tarfile.open(fileobj=buffer, mode="w") as archive:
        for path in sorted(entry.rglob("*")):
            if path.is_file():
                archive.add(path, arcname=path.relative_to(entry).as_posix())
    return buffer.getvalue()
