"""Dependency-free span tracing for the pipeline's execution layers.

One :class:`TraceCollector` exists per traced run (``config.trace``).
Every execution layer — stage phases, scheduler tasks, lane ops, shm
segment lifecycle, artifact-cache probes, service job lifecycle —
records :class:`Span` intervals against the collector's **run clock**
(``time.perf_counter`` relative to the collector's creation).  The
collector also notes the epoch time of its creation so traces from
different processes (service vs. pipeline worker) can be aligned on
one axis by :func:`chrome_trace`.

Design rules:

* **Cheap no-op when disabled.**  Instrumented code calls the
  module-level :func:`span`, which costs one thread-local read and a
  ``None`` check when no collector is active and returns a shared
  do-nothing handle.  No allocation, no clock read, no locking.
* **Ambient, thread-scoped current collector.**  ``activate()`` binds a
  collector to the *current thread* — deliberately not a contextvar,
  because the scheduler's pool threads and the service's job threads
  must each opt in explicitly (a worker thread re-activates the
  collector around the task body).  Layers with no collector parameter
  in their signatures (``artifacts``, ``shmplane``) read the ambient
  collector and stay signature-stable.
* **Durations on ``perf_counter``, never epoch.**  Span ``start``/
  ``dur`` are monotonic-clock values; epoch time appears only once per
  collector (``epoch0``) for cross-process alignment.
* **Cross-process spans re-anchor via a handshake offset.**  A lane
  worker records spans on its own raw ``perf_counter`` clock and ships
  them back in the op reply; the parent adds the offset measured over
  the warm-up ping round-trip (see :func:`clock_offset`) when merging.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "TraceCollector",
    "activate",
    "chrome_trace",
    "clock_offset",
    "current",
    "span",
    "task_busy_seconds",
]


@dataclass
class Span:
    """One closed interval on a collector's run clock.

    Attributes
    ----------
    name:
        What happened (``stage:k1-sort``, ``task:k0:write:0``,
        ``lane-op:encode-shard``, ``cache:k1``, ``job:run`` …).
    cat:
        Coarse layer bucket: ``stage`` / ``task`` / ``lane`` / ``shm``
        / ``cache`` / ``job`` / ``run``.
    start, dur:
        Seconds on the owning collector's run clock; ``dur >= 0``.
    span_id, parent_id:
        Intra-trace links.  ``parent_id`` is ``None`` for roots.
    proc, thread:
        Execution-context labels (``main`` / ``lane-0`` /
        ``service`` …; thread name within the process).  These become
        the Perfetto pid/tid rows.
    args:
        Free-form JSON-safe attributes.
    """

    name: str
    cat: str
    start: float
    dur: float
    span_id: int
    parent_id: Optional[int]
    proc: str
    thread: str
    args: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "cat": self.cat,
            "start": self.start,
            "dur": self.dur,
            "id": self.span_id,
            "parent": self.parent_id,
            "proc": self.proc,
            "thread": self.thread,
            "args": dict(self.args),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "Span":
        return cls(
            name=doc["name"],
            cat=doc["cat"],
            start=doc["start"],
            dur=doc["dur"],
            span_id=doc["id"],
            parent_id=doc.get("parent"),
            proc=doc.get("proc", "main"),
            thread=doc.get("thread", "?"),
            args=dict(doc.get("args") or {}),
        )


class _NullSpan:
    """Shared do-nothing handle returned when tracing is disabled."""

    __slots__ = ()
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        pass


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """An open span: a context manager that closes it on exit."""

    __slots__ = ("collector", "name", "cat", "start", "span_id",
                 "parent_id", "proc", "thread", "args")

    def __init__(self, collector, name, cat, start, span_id, parent_id,
                 proc, thread, args):
        self.collector = collector
        self.name = name
        self.cat = cat
        self.start = start
        self.span_id = span_id
        self.parent_id = parent_id
        self.proc = proc
        self.thread = thread
        self.args = args

    def set(self, **args) -> None:
        """Attach attributes to the span (any time before it closes)."""
        self.args.update(args)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.collector.end(self)
        return False


class TraceCollector:
    """Per-run span sink with a monotonic run clock.

    Parameters
    ----------
    label:
        Default ``proc`` label for spans this collector records.
    raw_clock:
        When true, span ``start`` values are *raw* ``perf_counter``
        readings instead of collector-relative ones.  Lane workers use
        this so the parent can re-anchor their spans by adding a single
        handshake offset (raw worker clock → parent run clock).
    """

    def __init__(self, label: str = "main", *, raw_clock: bool = False):
        self.t0 = 0.0 if raw_clock else time.perf_counter()
        self.epoch0 = time.time()
        self.label = label
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 0
        self._stack = threading.local()

    # -- clock ---------------------------------------------------------

    def now(self) -> float:
        """Current run-clock reading (seconds since the collector)."""
        return time.perf_counter() - self.t0

    # -- recording -----------------------------------------------------

    def _alloc_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _ambient_parent(self) -> Optional[int]:
        stack = getattr(self._stack, "items", None)
        return stack[-1].span_id if stack else None

    def begin(self, name: str, cat: str = "run", *,
              start: Optional[float] = None,
              parent_id: object = "ambient",
              proc: Optional[str] = None,
              **args) -> _ActiveSpan:
        """Open a span; it becomes the ambient parent on this thread.

        ``start`` overrides the clock reading (pass a value derived
        from the *same* ``perf_counter`` sample as an adjacent timing
        record so the two stay bitwise consistent).  ``parent_id`` may
        be an explicit id, ``None`` for a root, or the default ambient
        (top of this thread's open-span stack).
        """
        if parent_id == "ambient":
            parent_id = self._ambient_parent()
        handle = _ActiveSpan(
            collector=self,
            name=name,
            cat=cat,
            start=self.now() if start is None else start,
            span_id=self._alloc_id(),
            parent_id=parent_id,
            proc=proc or self.label,
            thread=threading.current_thread().name,
            args=args,
        )
        stack = getattr(self._stack, "items", None)
        if stack is None:
            stack = self._stack.items = []
        stack.append(handle)
        return handle

    def end(self, handle: _ActiveSpan, *,
            end: Optional[float] = None, dur: Optional[float] = None,
            **args) -> Span:
        """Close a span opened with :meth:`begin`.

        ``dur`` overrides the computed duration — pass a value derived
        from the same ``perf_counter`` samples as an adjacent timing
        record so the span and the record agree bit-for-bit.
        """
        if args:
            handle.args.update(args)
        if dur is None:
            finish = self.now() if end is None else end
            dur = finish - handle.start
        stack = getattr(self._stack, "items", None)
        if stack and handle in stack:
            stack.remove(handle)
        completed = Span(
            name=handle.name,
            cat=handle.cat,
            start=handle.start,
            dur=max(0.0, dur),
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            proc=handle.proc,
            thread=handle.thread,
            args=handle.args,
        )
        with self._lock:
            self._spans.append(completed)
        return completed

    def span(self, name: str, cat: str = "run", **args) -> _ActiveSpan:
        """``with collector.span(...)``: begin/end around a block."""
        return self.begin(name, cat, **args)

    def add_span(self, name: str, cat: str, start: float, dur: float, *,
                 parent_id: object = "ambient",
                 proc: Optional[str] = None,
                 thread: Optional[str] = None,
                 args: Optional[Dict[str, object]] = None) -> int:
        """Record an already-measured interval (post-hoc span)."""
        if parent_id == "ambient":
            parent_id = self._ambient_parent()
        completed = Span(
            name=name,
            cat=cat,
            start=start,
            dur=max(0.0, dur),
            span_id=self._alloc_id(),
            parent_id=parent_id,
            proc=proc or self.label,
            thread=thread or threading.current_thread().name,
            args=dict(args or {}),
        )
        with self._lock:
            self._spans.append(completed)
        return completed.span_id

    def merge(self, span_docs: Iterable[Dict[str, object]], *,
              offset: float, proc: Optional[str] = None,
              parent_id: object = "ambient") -> List[int]:
        """Adopt foreign spans (e.g. a lane worker's) into this trace.

        ``offset`` is added to every ``start`` — for raw-clock worker
        spans pass ``handshake_offset - self.t0`` so worker readings
        land on this collector's run clock.  Foreign span/parent ids
        are remapped to fresh local ids; foreign *roots* are parented
        to ``parent_id`` (default: this thread's ambient span, i.e.
        the dispatch span the caller holds open).
        """
        if parent_id == "ambient":
            parent_id = self._ambient_parent()
        docs = [Span.from_dict(d) for d in span_docs]
        id_map: Dict[int, int] = {}
        for foreign in docs:
            id_map[foreign.span_id] = self._alloc_id()
        new_ids: List[int] = []
        adopted: List[Span] = []
        for foreign in docs:
            adopted.append(Span(
                name=foreign.name,
                cat=foreign.cat,
                start=foreign.start + offset,
                dur=foreign.dur,
                span_id=id_map[foreign.span_id],
                parent_id=id_map.get(foreign.parent_id, parent_id),
                proc=proc or foreign.proc,
                thread=foreign.thread,
                args=foreign.args,
            ))
            new_ids.append(id_map[foreign.span_id])
        with self._lock:
            self._spans.extend(adopted)
        return new_ids

    # -- output --------------------------------------------------------

    def spans(self) -> List[Span]:
        """Snapshot of completed spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def span_docs(self) -> List[Dict[str, object]]:
        return [s.to_dict() for s in self.spans()]

    def trace_doc(self) -> Dict[str, object]:
        """The portable run-trace document (rides results and pipes)."""
        return {"epoch0": self.epoch0, "spans": self.span_docs()}


# -- ambient current collector (thread-scoped) -------------------------

_tls = threading.local()


def current() -> Optional[TraceCollector]:
    """The collector bound to this thread, or ``None``."""
    return getattr(_tls, "collector", None)


class _Activation:
    """``with activate(col)``: bind ``col`` to this thread, restore after."""

    __slots__ = ("collector", "_previous")

    def __init__(self, collector: Optional[TraceCollector]):
        self.collector = collector

    def __enter__(self) -> Optional[TraceCollector]:
        self._previous = getattr(_tls, "collector", None)
        _tls.collector = self.collector
        return self.collector

    def __exit__(self, *exc) -> bool:
        _tls.collector = self._previous
        return False


def activate(collector: Optional[TraceCollector]) -> _Activation:
    """Bind a collector (or ``None``) to the current thread."""
    return _Activation(collector)


def span(name: str, cat: str = "run", **args):
    """Open a span on the ambient collector; no-op when tracing is off.

    The disabled path is deliberately minimal — a thread-local read and
    a ``None`` check returning a shared inert handle — so instrumented
    layers never pay for tracing they did not ask for.
    """
    collector = getattr(_tls, "collector", None)
    if collector is None:
        return NULL_SPAN
    return collector.begin(name, cat, **args)


# -- cross-process clock handshake -------------------------------------

def clock_offset(parent_send: float, parent_recv: float,
                 worker_clock: float) -> float:
    """Offset mapping a worker's raw clock onto the parent's clock.

    ``parent_send``/``parent_recv`` bracket a ping round-trip on the
    parent clock; ``worker_clock`` is the worker's ``perf_counter``
    reading inside it.  Assuming symmetric transit, the worker read its
    clock at the parent midpoint, so ``worker + offset ≈ parent``:

    >>> clock_offset(10.0, 10.2, 4.0)
    6.1
    """
    return (parent_send + parent_recv) / 2.0 - worker_clock


# -- post-hoc span grafting --------------------------------------------

def graft_span(trace_doc: Dict[str, object], *, name: str,
               span_id: int, begin_epoch: float, end_epoch: float,
               parent_id: Optional[int] = None, cat: str = "job",
               proc: str = "service", thread: str = "?",
               args: Optional[Dict[str, object]] = None) -> bool:
    """Append one epoch-clock interval onto a portable trace document.

    Used by layers that observed an interval on the wall clock *around*
    a traced run — the service's job lifecycle, a remote worker agent's
    dispatch handling — after the collector is gone.  The document's
    ``epoch0`` anchor maps epochs onto the run clock
    (``epoch - epoch0``); without one the graft is refused (returns
    ``False``) rather than guessed.  Callers use *negative* ids to stay
    clear of the collector's positive id space.
    """
    epoch0 = trace_doc.get("epoch0")
    if not isinstance(epoch0, (int, float)):
        return False
    spans = trace_doc.setdefault("spans", [])
    if not isinstance(spans, list):
        return False
    spans.append({
        "name": name, "cat": cat,
        "start": begin_epoch - epoch0,
        "dur": max(0.0, end_epoch - begin_epoch),
        "id": span_id, "parent": parent_id,
        "proc": proc, "thread": thread,
        "args": dict(args or {}),
    })
    return True


# -- derived metrics ---------------------------------------------------

def task_busy_seconds(span_docs: Sequence[Dict[str, object]],
                      key: str = "group") -> Dict[str, float]:
    """Recompute per-``key`` busy seconds from scheduler task spans.

    Busy excludes each task's recorded ``queue_wait`` (time spent
    waiting for a lane worker), mirroring
    ``TaskTiming.seconds`` — so the result must match
    ``ScheduleResult.group_busy_seconds()`` / ``lane_busy_seconds()``
    when computed over the same run.
    """
    busy: Dict[str, float] = {}
    for doc in span_docs:
        if doc.get("cat") != "task":
            continue
        args = doc.get("args") or {}
        label = args.get(key)
        if label is None:
            continue
        seconds = doc["dur"] - args.get("queue_wait", 0.0)
        busy[label] = busy.get(label, 0.0) + seconds
    return busy


# -- Chrome/Perfetto export --------------------------------------------

def chrome_trace(*docs: Dict[str, object]) -> Dict[str, object]:
    """Render run-trace documents as one Chrome Trace Event JSON doc.

    Multiple documents (service-side lifecycle + pipeline run) align on
    the epoch axis via each doc's ``epoch0``; all timestamps shift so
    the earliest event lands at ``ts == 0``.  ``proc``/``thread``
    labels map to synthetic ``pid``/``tid`` rows (sorted, ``main``
    first) with ``process_name``/``thread_name`` metadata events, so
    Perfetto shows one track per worker/lane identity.
    """
    present = [doc for doc in docs if doc and doc.get("spans")]
    if not present:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base_epoch = min(doc["epoch0"] for doc in present)
    rows: List[Tuple[float, Span]] = []
    for doc in present:
        shift = doc["epoch0"] - base_epoch
        for span_doc in doc["spans"]:
            rows.append((shift + span_doc["start"], Span.from_dict(span_doc)))
    t_min = min(ts for ts, _ in rows)

    def _proc_key(label: str) -> Tuple[int, str]:
        return (0 if label == "main" else 1, label)

    procs = sorted({s.proc for _, s in rows}, key=_proc_key)
    pid_of = {label: index + 1 for index, label in enumerate(procs)}
    threads = sorted({(s.proc, s.thread) for _, s in rows})
    tid_of = {pair: index + 1 for index, pair in enumerate(threads)}

    events: List[Dict[str, object]] = []
    for label in procs:
        events.append({"ph": "M", "name": "process_name", "pid": pid_of[label],
                       "tid": 0, "args": {"name": label}})
    for proc_label, thread_label in threads:
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid_of[proc_label],
            "tid": tid_of[(proc_label, thread_label)],
            "args": {"name": thread_label},
        })
    for ts, span_row in sorted(rows, key=lambda row: row[0]):
        args = dict(span_row.args)
        args["span_id"] = span_row.span_id
        if span_row.parent_id is not None:
            args["parent_id"] = span_row.parent_id
        events.append({
            "ph": "X",
            "name": span_row.name,
            "cat": span_row.cat,
            "ts": (ts - t_min) * 1e6,
            "dur": span_row.dur * 1e6,
            "pid": pid_of[span_row.proc],
            "tid": tid_of[(span_row.proc, span_row.thread)],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
