"""Wall-clock timing primitives used by kernels and the harness.

The benchmark's headline metric is *edges per second*, so timing must be
monotonic, low-overhead, and easy to aggregate.  ``StopWatch`` is a small
re-startable timer; ``Timings`` accumulates named durations (e.g. the read
/ compute / write phases inside a kernel); ``timed`` is a context manager
for ad-hoc measurement.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator


class StopWatch:
    """A re-startable monotonic wall-clock timer.

    Examples
    --------
    >>> sw = StopWatch().start()
    >>> _ = sum(range(1000))
    >>> elapsed = sw.stop()
    >>> elapsed >= 0.0
    True
    """

    __slots__ = ("_start", "_elapsed", "_running")

    def __init__(self) -> None:
        self._start = 0.0
        self._elapsed = 0.0
        self._running = False

    def start(self) -> "StopWatch":
        """Start (or resume) the timer.  Idempotent while running."""
        if not self._running:
            self._start = time.perf_counter()
            self._running = True
        return self

    def stop(self) -> float:
        """Stop the timer and return total accumulated seconds."""
        if self._running:
            self._elapsed += time.perf_counter() - self._start
            self._running = False
        return self._elapsed

    def reset(self) -> None:
        """Zero the accumulator and stop the timer."""
        self._start = 0.0
        self._elapsed = 0.0
        self._running = False

    @property
    def running(self) -> bool:
        """Whether the timer is currently accumulating."""
        return self._running

    @property
    def elapsed(self) -> float:
        """Accumulated seconds, including the live segment if running."""
        if self._running:
            return self._elapsed + (time.perf_counter() - self._start)
        return self._elapsed


@dataclass
class Timings:
    """Named wall-clock durations, e.g. per-phase breakdown of a kernel.

    Attributes
    ----------
    entries:
        Mapping of phase name to accumulated seconds.
    """

    entries: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` against phase ``name``."""
        if seconds < 0:
            raise ValueError(f"negative duration for {name!r}: {seconds}")
        self.entries[name] = self.entries.get(name, 0.0) + seconds

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Context manager measuring the enclosed block into ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    @property
    def total(self) -> float:
        """Sum of all phase durations."""
        return sum(self.entries.values())

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict copy of the phase durations."""
        return dict(self.entries)


@contextmanager
def timed() -> Iterator[StopWatch]:
    """Context manager yielding a running :class:`StopWatch`.

    The watch is stopped when the block exits, so ``watch.elapsed`` after
    the ``with`` gives the block's wall-clock duration.

    Examples
    --------
    >>> with timed() as watch:
    ...     _ = [i * i for i in range(100)]
    >>> watch.elapsed > 0
    True
    """
    watch = StopWatch().start()
    try:
        yield watch
    finally:
        watch.stop()
