"""The process heap policy: freed arrays stay in the heap for the next run.

Every kernel allocates and frees arrays of megabytes (scale 14) to
hundreds of megabytes (scale 22).  Under glibc's defaults such an array
is a fresh ``mmap`` — the threshold starts at 128 KiB and adapts only up
to 32 MiB — and memory freed at the top of the heap goes back to the
kernel once it exceeds the trim threshold.  The next run then faults
every page of its arrays in again, and the kernel zeroes each one: at
scale 14 that is a tenth of a cold serial run, and it measures the
allocator, not the kernels.  :func:`keep_heap` sets three ``mallopt``
parameters once per process:

* ``M_MMAP_THRESHOLD`` to :data:`MMAP_THRESHOLD`, so arrays come from the
  heap; a glibc that refuses a threshold that high gets ``M_MMAP_MAX``
  0 instead (no allocation is served by ``mmap``);
* ``M_TRIM_THRESHOLD`` to :data:`TRIM_THRESHOLD`, so freed memory stays;
* ``M_ARENA_MAX`` to :data:`ARENA_MAX`, so the async executor's threads
  share one heap instead of each keeping what it once needed.

``M_TOP_PAD`` is not set: alternating pairs did not separate padding
from no padding.

**What it costs.**  A process keeps up to the largest heap any of its
runs needed; it never grows beyond that peak, it only stops shrinking
below it.  That is what a long-lived service worker pays, and it is why
the arena cap is part of the policy: per-thread arenas would each keep
their own peak.  On a 2-core Xeon guest, ``bench/run.py --workload
cold-async`` read a peak RSS of 105.5–106.1 MiB without the cap and
85.7–88.3 MiB with it (95.7–100.0 MiB under glibc's defaults), at an
unchanged or shorter wall.

Off glibc, or where ``mallopt`` is missing, :func:`keep_heap` changes
nothing and returns :data:`UNAVAILABLE`.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, Dict, Optional, Union

try:  # POSIX; without it no fault count is reported
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

#: mallopt parameter numbers, from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_MMAP_MAX = -4
_M_ARENA_MAX = -8

#: 1 GiB: above the largest single array of a scale-22 run (the paper's
#: largest: 67 M edges, whose 64-bit sort keys are 537 MB and each
#: ``uint32`` label array 268 MB).
MMAP_THRESHOLD = 1 << 30
#: The largest value ``mallopt``'s ``int`` argument takes (2 GiB - 1).
#: Freed memory is kept up to the largest heap any run of the process
#: needed (the bound a long-lived service worker pays; see above).
TRIM_THRESHOLD = 2**31 - 1
#: One arena, so threads cannot each keep a peak of their own.
ARENA_MAX = 1

#: What :func:`keep_heap` reports where it can change nothing.
UNAVAILABLE = "unavailable"

HeapPolicy = Union[Dict[str, int], str]

# Process-wide by nature: mallopt settings belong to the process.
_applied: Optional[HeapPolicy] = None


def keep_heap() -> HeapPolicy:
    """Apply the heap policy to this process (once) and report it.

    Returns the settings ``mallopt`` accepted, by name — e.g.
    ``{"mmap_threshold": 1073741824, "trim_threshold": 2147483647,
    "arena_max": 1}`` — or :data:`UNAVAILABLE`.  Later calls apply
    nothing and return the first call's report.  Call it before the
    process starts threads: an arena a thread already holds stays.
    """
    global _applied
    if _applied is None:
        _applied = _apply(_mallopt())
    return _applied


def _apply(mallopt: Optional[Callable[[int, int], int]]) -> HeapPolicy:
    if mallopt is None:
        return UNAVAILABLE
    applied: Dict[str, int] = {}
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        applied["mmap_threshold"] = MMAP_THRESHOLD
    elif mallopt(_M_MMAP_MAX, 0):
        applied["mmap_max"] = 0
    if mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD):
        applied["trim_threshold"] = TRIM_THRESHOLD
    if mallopt(_M_ARENA_MAX, ARENA_MAX):
        applied["arena_max"] = ARENA_MAX
    return applied or UNAVAILABLE


def _mallopt() -> Optional[Callable[[int, int], int]]:
    """glibc's ``mallopt``, or ``None`` off glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def minor_faults() -> Optional[int]:
    """Minor page faults this process has taken so far (``None`` where
    the platform does not count them).  A fault is a page the kernel
    mapped, and zeroed, on first touch."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
