"""Communication traffic accounting.

Every collective or point-to-point operation on a communicator logs a
:class:`TrafficRecord`.  The log is the bridge between the parallel
implementation and the paper's claim that Kernel 3's parallel form is
network-dominated: the log supplies the measured byte counts that the
ranks table of ``report --ranks`` sets beside
:func:`repro.harness.figures.allreduce_closed_form`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List


@dataclass(frozen=True)
class TrafficRecord:
    """One communication event.

    Attributes
    ----------
    op:
        Operation name (``send``, ``bcast``, ``allreduce`` …).
    bytes_moved:
        Total bytes crossing rank boundaries for this event, modelled
        with the naive algorithm (e.g. an allreduce among ``p`` ranks of
        an ``n``-byte payload moves ``2*(p-1)*n`` bytes).
    messages:
        Number of point-to-point messages the naive algorithm uses.
    rank:
        The rank that logged the event (collectives are logged once, by
        rank 0, to avoid double counting).
    """

    op: str
    bytes_moved: int
    messages: int
    rank: int


class TrafficLog:
    """Thread-safe accumulator of :class:`TrafficRecord` events."""

    def __init__(self) -> None:
        self._records: List[TrafficRecord] = []
        self._lock = threading.Lock()

    def record(self, op: str, bytes_moved: int, messages: int, rank: int) -> None:
        """Append one event."""
        with self._lock:
            self._records.append(
                TrafficRecord(op=op, bytes_moved=int(bytes_moved),
                              messages=int(messages), rank=rank)
            )

    def extend(self, records: Iterable[TrafficRecord]) -> None:
        """Append events recorded elsewhere (one rank's own log)."""
        with self._lock:
            self._records.extend(records)

    @property
    def records(self) -> List[TrafficRecord]:
        """Copy of all events so far."""
        with self._lock:
            return list(self._records)

    @property
    def total_bytes(self) -> int:
        """Total bytes across all events."""
        with self._lock:
            return sum(r.bytes_moved for r in self._records)

    @property
    def total_messages(self) -> int:
        """Total messages across all events."""
        with self._lock:
            return sum(r.messages for r in self._records)

    def bytes_by_op(self) -> Dict[str, int]:
        """Bytes aggregated per operation name."""
        out: Dict[str, int] = {}
        with self._lock:
            for record in self._records:
                out[record.op] = out.get(record.op, 0) + record.bytes_moved
        return out

    def clear(self) -> None:
        """Reset the log."""
        with self._lock:
            self._records.clear()

    def summary(self) -> Dict[str, object]:
        """JSON-safe rollup used by results and benchmarks."""
        return {
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "bytes_by_op": self.bytes_by_op(),
        }
