"""Zero-copy shard plane: shared-memory edge buffers + mapped views.

The pipeline's hand-offs are dominated by moving edge arrays between
processes: a process lane ships every shard payload through a pipe
(pickle + copy at ~GB/s), and every service worker decodes its own
private copy of a cached artifact.  This module supplies the shared
substrate that removes those copies:

* :class:`ShardBuffer` — an edge-pair array in a
  :class:`multiprocessing.shared_memory.SharedMemory` segment, with a
  small fixed header (magic, layout version, generation counter, array
  lengths, label width) ahead of the payload.  A lane worker and the
  parent map the same physical pages; only the segment *name* crosses
  the pipe.
* an **owner registry** with an ``atexit``/SIGTERM sweep — every
  segment created (or adopted) by this process is tracked until
  released, so a crash cannot strand ``psm_repro_*`` segments in
  ``/dev/shm``.
* :func:`mapped_view` — a context manager over :class:`numpy.memmap`
  that *closes the map on exit* (``np.memmap`` alone leaves the file
  mapped until garbage collection, which breaks spill-file deletion
  under Windows-style strict unlink semantics).
* :func:`resolve_payload_via` — the ``pipe``/``shm`` negotiation: shm
  is used only when a probe segment can actually be created (a
  permissions-restricted ``/dev/shm`` degrades to the pipe path with a
  single warning, never an error).

Ownership rules (see ARCHITECTURE.md "Zero-copy shard plane"):

* The process that will outlive all readers owns the segment and must
  :meth:`ShardBuffer.release` it (unlink + close).  ``create`` makes
  the caller the owner; a worker that creates a segment *for* the
  parent hands it over with :meth:`ShardBuffer.export` (the worker
  forgets it) and the parent adopts it via ``attach(owner=True)``.
* Non-owners ``attach`` and ``close`` — never unlink.
* Views from :meth:`ShardBuffer.arrays` are **read-only**; a consumer
  that needs to mutate copies first (copy-on-write discipline, same as
  mmap-backed cache reads).

CPython detail: attaching to a segment registers it with the process's
``resource_tracker`` *again* (bpo-39959), which would make a non-owner
unlink it at interpreter exit.  Every attach here immediately
unregisters, so exactly one process — the owner — tears a segment down.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import itertools
import signal
import threading
import warnings
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core import trace
from repro.core.config import SHARD_PLANES
from repro.labels import NARROW, WIDE, edge_dtype

#: Header layout: 6 little-endian int64 slots ahead of the payload —
#: magic, layout version, generation, ``len(u)``, ``len(v)`` and the
#: payload's label itemsize (a key of :data:`_PAYLOAD_DTYPES`).
_HEADER_SLOTS = 6
HEADER_BYTES = _HEADER_SLOTS * 8
_MAGIC = 0x5250_5348_4D31  # "RPSHM1"
#: 2: the label dtype joined the header (1 was int64 payloads only).
_LAYOUT_VERSION = 2
#: Payload label dtype by itemsize: the two dtypes of :mod:`repro.labels`.
_PAYLOAD_DTYPES = {NARROW.itemsize: NARROW, WIDE.itemsize: WIDE}

#: Segment-name prefix.  Deliberately under ``psm_`` (the stdlib's own
#: prefix) so a leak check over ``psm_*`` covers both default-named
#: segments and ours; the pid+sequence suffix keeps concurrent
#: processes collision-free.  Short enough for macOS's 31-char limit.
_NAME_PREFIX = "psm_repro"
_name_counter = itertools.count()

_registry_lock = threading.Lock()
_REGISTRY: Dict[str, "ShardBuffer"] = {}
_sweep_installed = False

# Mappings whose close() was deferred by live exported views.  Holding
# them stops SharedMemory.__del__ from firing (and printing an ignored
# BufferError) at arbitrary GC time; an atexit flush retries the close
# once the views are gone.
_zombie_lock = threading.Lock()
_ZOMBIE_MAPPINGS: list = []
_zombie_flush_installed = False

_fallback_warned = False


class ShmPlaneError(RuntimeError):
    """A shared-memory shard segment is malformed or unusable."""


def _untrack(name: str) -> None:
    """Forget a segment in this process's resource tracker.

    Attaching registers the segment with the tracker a second time
    (bpo-39959); without this, a mere *reader* exiting would unlink a
    segment the owner still serves.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(f"/{name}", "shared_memory")
    except (ImportError, KeyError, ValueError, OSError):  # pragma: no cover
        pass


def _tracker_is_inherited() -> bool:
    """Whether this process shares its parent's resource tracker.

    spawn/forkserver children receive the parent's tracker *fd* but
    never spawn the tracker themselves, so their local handle has a fd
    and no pid.  The distinction decides the bpo-39959 fix-up: with a
    shared tracker its name cache is one set across processes, a
    reader's unregister would erase the *owner's* entry, and the
    duplicate registration a reader's attach performs is a harmless
    set-add — so nothing must be untracked.  Only a process with its
    own private tracker (which really would unlink attached segments
    at exit) needs to unregister after attach.
    """
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        return tracker._fd is not None and tracker._pid is None
    except Exception:  # pragma: no cover - stdlib internals moved
        return False


def _next_name() -> str:
    return f"{_NAME_PREFIX}_{os.getpid()}_{next(_name_counter)}"


# ----------------------------------------------------------------------
# Owner registry + crash sweep
# ----------------------------------------------------------------------
def _register(buffer: "ShardBuffer") -> None:
    global _sweep_installed
    with _registry_lock:
        _REGISTRY[buffer.name] = buffer
        if not _sweep_installed:
            _sweep_installed = True
            atexit.register(sweep)
            _install_sigterm_sweep()


def _deregister(name: str) -> None:
    with _registry_lock:
        _REGISTRY.pop(name, None)


def _install_sigterm_sweep() -> None:
    """Chain a SIGTERM handler that sweeps before the previous action.

    ``atexit`` does not run on SIGTERM's default disposition; a pool
    ``terminate()`` would strand every outstanding segment.  Installing
    is best-effort — non-main threads cannot set handlers, and a
    caller-owned handler is chained, not replaced.
    """
    try:
        previous = signal.getsignal(signal.SIGTERM)

        def _sweep_and_chain(signum, frame):
            sweep()
            if callable(previous) and previous not in (
                signal.SIG_IGN, signal.SIG_DFL
            ):
                previous(signum, frame)
            else:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

        signal.signal(signal.SIGTERM, _sweep_and_chain)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def sweep() -> int:
    """Release every segment this process still owns; returns the count.

    Runs at interpreter exit (``atexit``) and on SIGTERM so no
    ``psm_repro_*`` segment outlives its owner, whatever the exit path.
    Safe to call repeatedly and from signal handlers (best-effort,
    never raises).
    """
    with _registry_lock:
        buffers = list(_REGISTRY.values())
        _REGISTRY.clear()
    for buffer in buffers:
        try:
            buffer.release(_deregister_first=False)
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass
    return len(buffers)


def _retire_mapping(shm) -> None:
    """Park a mapping that live numpy views kept from closing."""
    global _zombie_flush_installed
    with _zombie_lock:
        _ZOMBIE_MAPPINGS.append(shm)
        if not _zombie_flush_installed:
            _zombie_flush_installed = True
            atexit.register(_flush_zombie_mappings)


def _flush_zombie_mappings() -> None:
    with _zombie_lock:
        zombies = list(_ZOMBIE_MAPPINGS)
        _ZOMBIE_MAPPINGS.clear()
    for shm in zombies:
        try:
            shm.close()
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass


def outstanding_segments() -> Tuple[str, ...]:
    """Names of segments this process currently owns (for tests)."""
    with _registry_lock:
        return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Availability + negotiation
# ----------------------------------------------------------------------
_available: Optional[bool] = None


def shm_available() -> bool:
    """Whether this host can create shared-memory segments (cached).

    Probes by creating and immediately destroying a tiny segment; a
    permissions-restricted or absent ``/dev/shm`` reads as ``False``.
    """
    global _available
    if _available is None:
        try:
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(
                create=True, size=8, name=_next_name()
            )
            probe.close()
            probe.unlink()
            _available = True
        except Exception:  # noqa: BLE001 - any failure means "no shm"
            _available = False
    return _available


def resolve_payload_via(requested: str) -> str:
    """Negotiate the lane payload plane: honour ``shm`` only when usable.

    ``pipe`` passes through untouched.  ``shm`` degrades to ``pipe``
    with a single :class:`RuntimeWarning` per process when no segment
    can be created — a benchmark run must not fail because of a
    container's ``/dev/shm`` mount options.
    """
    global _fallback_warned
    if requested not in SHARD_PLANES:
        raise ValueError(
            f"payload_via must be one of {SHARD_PLANES}, got {requested!r}"
        )
    if requested == "shm" and not shm_available():
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                "shared memory is unavailable (restricted /dev/shm?); "
                "falling back to pipe shard hand-off",
                RuntimeWarning,
                stacklevel=2,
            )
        return "pipe"
    return requested


def _reset_negotiation_cache() -> None:
    """Forget the probe result and warning latch (test hook)."""
    global _available, _fallback_warned
    _available = None
    _fallback_warned = False


# ----------------------------------------------------------------------
# ShardBuffer
# ----------------------------------------------------------------------
class ShardBuffer:
    """An ``(u, v)`` edge-pair in a named shared-memory segment.

    Layout: :data:`HEADER_BYTES` of int64 header — magic, layout
    version, generation, ``len(u)``, ``len(v)``, label itemsize — then
    the two payload arrays back to back, in the label dtype (``uint32``
    when both given arrays are, else ``int64``).  The generation slot
    lets an owner signal "superseded" to attached readers without
    invalidating their mapping (POSIX keeps pages alive until the last
    map closes, even after unlink).

    Use the classmethods; the constructor is internal.
    """

    def __init__(self, shm, *, owner: bool) -> None:
        self._shm = shm
        self.owner = owner
        self._released = False

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(cls, u: np.ndarray, v: np.ndarray) -> "ShardBuffer":
        """Copy edge arrays into a fresh owned segment (one memcpy).

        The caller becomes the owner: the segment is registered for the
        crash sweep and must eventually be :meth:`release`-d (or handed
        off with :meth:`export`).
        """
        from multiprocessing import shared_memory

        with trace.span("shm:create", cat="shm") as sp:
            dtype = edge_dtype(np.asarray(u), np.asarray(v))
            u = np.ascontiguousarray(u, dtype=dtype)
            v = np.ascontiguousarray(v, dtype=dtype)
            size = HEADER_BYTES + u.nbytes + v.nbytes
            shm = shared_memory.SharedMemory(
                create=True, size=max(size, 1), name=_next_name()
            )
            buffer = cls(shm, owner=True)
            header = buffer._header_view()
            header[0] = _MAGIC
            header[1] = _LAYOUT_VERSION
            header[2] = 1  # generation
            header[3] = len(u)
            header[4] = len(v)
            header[5] = dtype.itemsize
            pu, pv = buffer._payload_views(writable=True)
            pu[:] = u
            pv[:] = v
            del header, pu, pv
            _register(buffer)
            sp.set(segment=buffer.name, nbytes=u.nbytes + v.nbytes)
        return buffer

    @classmethod
    def attach(cls, name: str, *, owner: bool = False) -> "ShardBuffer":
        """Map an existing segment by name.

        ``owner=True`` *adopts* it — the parent-side half of a worker
        :meth:`export` hand-off: the segment joins this process's
        registry and release duty.  Either way the resource tracker's
        duplicate registration is dropped immediately (see module
        docstring).

        Raises
        ------
        ShmPlaneError
            On a header that is not a shard segment of this layout version,
            an unknown label width, or
            lengths inconsistent with the segment size.
        FileNotFoundError
            When no segment of that name exists (already unlinked).
        """
        from multiprocessing import shared_memory

        sp = trace.span(
            "shm:adopt" if owner else "shm:attach", cat="shm", segment=name,
        )
        with sp:
            return cls._attach(shm=shared_memory.SharedMemory(name=name),
                               name=name, owner=owner, sp=sp)

    @classmethod
    def _attach(cls, *, shm, name, owner, sp) -> "ShardBuffer":
        with _registry_lock:
            owned_here = name in _REGISTRY
        if not owner and not owned_here and not _tracker_is_inherited():
            # Drop the duplicate registration a private tracker just
            # made (bpo-39959), so this reader's exit cannot unlink a
            # segment the owner still serves.  Inherited (shared)
            # trackers need no fix-up — see :func:`_tracker_is_inherited`
            # — nor does attaching to a segment this very process owns
            # (the tracker cache is a set, so the re-register was a
            # no-op and untracking would erase the owner's entry).  An
            # *adopting* attach keeps its entry either way: unlink()
            # balances it, and the tracker doubles as a last-resort
            # crash sweep.
            _untrack(name)
        buffer = cls(shm, owner=owner)
        header = buffer._header_view()
        magic, version, _gen, u_len, v_len, width = (
            int(x) for x in header[:_HEADER_SLOTS]
        )
        del header
        if magic != _MAGIC or version != _LAYOUT_VERSION:
            if owner:
                _untrack(name)
            buffer.close()
            raise ShmPlaneError(
                f"segment {name!r} is not a shard buffer "
                f"(magic={magic:#x}, version={version})"
            )
        if width not in _PAYLOAD_DTYPES or u_len < 0 or v_len < 0 \
                or HEADER_BYTES + (u_len + v_len) * width > shm.size:
            if owner:
                _untrack(name)
            buffer.close()
            raise ShmPlaneError(
                f"segment {name!r} declares {u_len}+{v_len} edges of "
                f"{width} bytes but is only {shm.size} bytes"
            )
        if owner:
            _register(buffer)
        sp.set(nbytes=buffer.nbytes)
        return buffer

    @property
    def name(self) -> str:
        """The segment name (the only thing that crosses a pipe)."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        """Payload bytes (header excluded) — the pipe traffic avoided."""
        header = self._header_view()
        n = int(header[3] + header[4]) * int(header[5])
        del header
        return n

    @property
    def generation(self) -> int:
        """Current generation stamp (starts at 1)."""
        header = self._header_view()
        gen = int(header[2])
        del header
        return gen

    def bump_generation(self) -> int:
        """Owner-side: mark the contents superseded; returns the new
        generation.  Attached readers observe the bump through their
        own mapping (same physical pages) and keep a valid view."""
        header = self._header_view()
        header[2] += 1
        gen = int(header[2])
        del header
        return gen

    # -- data ----------------------------------------------------------
    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(u, v)`` payload as **read-only** label-dtype views.

        Zero-copy: the arrays alias the segment pages.  Mutating
        consumers must ``.copy()`` first — the read-only flag makes an
        accidental in-place write a loud ``ValueError`` instead of a
        cross-process data race.
        """
        u, v = self._payload_views(writable=False)
        return u, v

    def _header_view(self) -> np.ndarray:
        return np.frombuffer(
            self._shm.buf, dtype=np.int64, count=_HEADER_SLOTS
        )

    def _payload_views(self, *, writable: bool) -> Tuple[np.ndarray, np.ndarray]:
        header = self._header_view()
        u_len, v_len = int(header[3]), int(header[4])
        dtype = _PAYLOAD_DTYPES[int(header[5])]
        del header
        u = np.frombuffer(
            self._shm.buf, dtype=dtype, count=u_len,
            offset=HEADER_BYTES,
        )
        v = np.frombuffer(
            self._shm.buf, dtype=dtype, count=v_len,
            offset=HEADER_BYTES + u_len * dtype.itemsize,
        )
        if not writable:
            u.flags.writeable = False
            v.flags.writeable = False
        return u, v

    # -- teardown ------------------------------------------------------
    def export(self) -> str:
        """Hand ownership to whoever attaches next; returns the name.

        Worker-side half of a create-in-worker transfer: the local
        mapping closes, the registry forgets the segment (this process
        will *not* sweep it), and the tracker registration is dropped —
        the adopting process (``attach(owner=True)``) takes over unlink
        duty.
        """
        name = self.name
        _deregister(name)
        _untrack(name)
        self.owner = False
        self.close()
        return name

    def close(self) -> None:
        """Drop this process's mapping (never the segment itself).

        Tolerates live exported views (:class:`BufferError`): the
        mapping then lives until the last view dies, which is the
        correct degradation — invalidating memory under a numpy array
        would be far worse than a deferred unmap.  Deferred mappings
        are parked and re-closed at interpreter exit so their
        ``__del__`` never spams "Exception ignored" warnings.
        """
        try:
            self._shm.close()
        except BufferError:
            _retire_mapping(self._shm)

    def unlink(self) -> None:
        """Remove the segment name; mappings stay valid until closed."""
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def release(self, *, _deregister_first: bool = True) -> None:
        """Owner teardown: unlink the name, then drop the mapping.

        Idempotent.  Unlink comes first so the segment cannot leak even
        if live views defer the unmap (see :meth:`close`).
        """
        if self._released:
            return
        self._released = True
        if _deregister_first:
            _deregister(self.name)
        self.unlink()
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardBuffer({self.name!r}, owner={self.owner}, "
            f"bytes={self._shm.size})"
        )


# ----------------------------------------------------------------------
# mapped_view
# ----------------------------------------------------------------------
@contextlib.contextmanager
def mapped_view(
    path, dtype, shape, mode: str = "r"
) -> Iterator[np.ndarray]:
    """A :class:`numpy.memmap` whose map is *closed* on context exit.

    ``np.memmap`` alone unmaps only when the array is garbage
    collected; on filesystems with strict unlink semantics (Windows) a
    spill file cannot be deleted while mapped, so the external sort and
    streaming Kernel 2 must close deterministically before cleanup.

    Discipline: any data needed after the ``with`` block must be
    **copied out** inside it (``np.array(view[...])``); slices of the
    yielded array do not survive the close.
    """
    mm = np.memmap(path, dtype=dtype, mode=mode, shape=shape)
    try:
        yield mm
    finally:
        raw = mm._mmap
        if raw is not None:
            try:
                raw.close()
            except BufferError:  # pragma: no cover - exported views
                pass
