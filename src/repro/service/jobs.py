"""Job records, the durable JSONL job store, and its replay.

A *job* is one submitted workload moving through ``PENDING → RUNNING →
{SUCCEEDED, FAILED, CANCELLED}``.  Two kinds exist: a ``"run"`` job is
one :class:`~repro.api.spec.RunSpec`; a ``"sweep"`` job is a parent
over a :class:`~repro.api.spec.SweepSpec` grid whose cells are child
run jobs fanned across the worker pool.  The in-memory truth lives in
:class:`BenchmarkService`; this module owns the shapes plus the
append-only JSONL store that makes job history durable — one line per
lifecycle event, written under a lock, flushed immediately, so a crash
loses at most the event being written and concurrent workers never
interleave partial lines.

Everything that reads the log back lives here too, as pure functions
of the event list: :func:`replay` folds it into the jobs a restarted
service resumes from (terminal jobs verbatim from their terminal event
documents; jobs in flight at a crash re-queued), :func:`compact_events`
picks the events a compacted log keeps, and :func:`retryable` is the
one worker-crash retry rule both of them — and the live service — use.
"""

from __future__ import annotations

import enum
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.api.runner import RunOutcome
from repro.api.spec import RunSpec, SweepSpec


class JobState(str, enum.Enum):
    """Lifecycle states of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)


#: Event names that end a job's lifecycle in the store.
TERMINAL_EVENTS = ("succeeded", "failed", "cancelled")

#: Worker-crash retry budget.  A job whose worker died (process crash,
#: remote heartbeat loss) produced no wrong result, so it is retried,
#: each retry logged as one durable ``requeued`` event, while fewer
#: than this many retries have been spent.  Live, the dispatch loop
#: counts the retries of one dispatch (zero again after replay
#: re-queues the job); replay counts the job's durable ``requeued``
#: events.  A job that keeps killing its workers (e.g. OOM) therefore
#: converges to FAILED instead of poisoning every restart.
MAX_LIVE_REQUEUES = 2


def retryable(terminal: Mapping[str, object], requeues: int) -> bool:
    """Whether a terminal event is a worker crash still worth a retry.

    ``terminal`` is a (would-be) terminal event document and
    ``requeues`` the retries already spent against
    :data:`MAX_LIVE_REQUEUES`.
    """
    return (
        terminal.get("event") == "failed"
        and str(terminal.get("error", "")).startswith("WorkerCrashError")
        and requeues < MAX_LIVE_REQUEUES
    )


#: The JSON-safe result-payload keys a terminal event may carry (the
#: subset of a result document that is *result*, not status) — used to
#: split a replayed terminal event back into view vs. payload.
PAYLOAD_KEYS = (
    "records", "rank_sha256", "rank_summary", "wall_seconds",
    "validation", "cells", "trace", "observability", "remote",
    "artifact_sync",
)


@dataclass
class Job:
    """One submitted workload and everything known about its execution.

    Mutable service-internal state; callers see :meth:`view` snapshots.

    ``kind="run"`` jobs carry a ``spec``; ``kind="sweep"`` parents carry
    a ``sweep`` plus ``cells`` (grid-ordered ``{"backend", "scale",
    "job_id", "skipped"}`` references to child jobs).  ``result_payload``
    is the JSON-safe result document — for process-pool jobs it is all
    the service ever receives (the rank vector stays in the worker);
    thread-pool jobs additionally keep the live ``outcome``.
    """

    job_id: str
    spec: Optional[RunSpec]
    spec_hash: str
    kind: str = "run"
    sweep: Optional[SweepSpec] = None
    cells: List[Dict[str, object]] = field(default_factory=list)
    state: JobState = JobState.PENDING
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    outcome: Optional[RunOutcome] = None
    result_payload: Optional[Dict[str, object]] = None
    #: How many in-flight submissions were deduplicated onto this job
    #: (each returned this job's id instead of queueing new work).
    duplicate_submissions: int = 0
    #: Set exactly when the job reaches a terminal state; waiters
    #: (:meth:`BenchmarkService.result`) block on it instead of on a
    #: future, so sweep parents and replayed jobs wait the same way.
    done: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )

    def view(self) -> Dict[str, object]:
        """JSON-safe status snapshot (no result payload)."""
        doc: Dict[str, object] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state.value,
            "spec_hash": self.spec_hash,
            "spec": self.spec.to_dict() if self.spec is not None else None,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "duplicate_submissions": self.duplicate_submissions,
        }
        if self.kind == "sweep":
            doc["sweep"] = self.sweep.to_dict() if self.sweep else None
            doc["cells"] = [dict(cell) for cell in self.cells]
        return doc

    def result_doc(self) -> Dict[str, object]:
        """JSON-safe result payload for a terminal job.

        For run jobs this carries the per-kernel records, the bit-exact
        rank digest (:func:`repro.api.runner.rank_sha256`), and — when
        the spec asked for it — the eigenvector validation verdicts, so
        a remote client sees exactly what ``repro run --validate``
        would.  For sweep parents it carries the assembled sweep table
        (per-cell documents plus the flattened grid-ordered records).
        """
        doc = self.view()
        if self.result_payload is not None:
            doc.update(self.result_payload)
        return doc


class JobStore:
    """Append-only JSONL event log, safe under concurrent workers.

    Each line is one event: ``{"event": ..., "time": ..., **payload}``.
    ``path=None`` disables persistence (events are dropped) so the
    in-memory service works without a filesystem side effect.

    Parameters
    ----------
    path:
        The JSONL file (created lazily; parent directories made).
    compact_every:
        When set, the store compacts itself after every ``N`` appended
        events — the periodic half of log hygiene (``repro serve
        --compact`` is the on-startup half).
    """

    def __init__(
        self, path: Optional[Path], *, compact_every: Optional[int] = None
    ) -> None:
        if compact_every is not None and compact_every < 1:
            raise ValueError(
                f"compact_every must be >= 1, got {compact_every}"
            )
        self.path = Path(path) if path is not None else None
        self.compact_every = compact_every
        self._appended = 0
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if self.path.exists() and self.path.stat().st_size:
                # A crash can leave a torn final line: end it, so the
                # next event is not glued onto the fragment and lost
                # with it.
                with open(self.path, "rb+") as fh:
                    fh.seek(-1, os.SEEK_END)
                    if fh.read(1) != b"\n":
                        fh.write(b"\n")

    def append(self, event: str, payload: Dict[str, object]) -> None:
        """Write one event line (no-op when the store is disabled)."""
        if self.path is None:
            return
        doc = {"event": event, "time": time.time()}
        doc.update(payload)
        line = json.dumps(doc, sort_keys=True, default=str)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
            self._appended += 1
            # Auto-compact only on terminal-event appends: the service
            # writes those *outside* its own lock, so the full-log
            # rewrite never stalls submit/status/HTTP traffic that
            # appends (submitted/deduplicated) while holding it.
            if (
                self.compact_every
                and self._appended >= self.compact_every
                and event in TERMINAL_EVENTS
            ):
                self._compact_locked()
                self._appended = 0

    def compact(self) -> int:
        """Rewrite the log keeping only the events :func:`compact_events`
        keeps; returns the number of events dropped."""
        if self.path is None or not self.path.exists():
            return 0
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        events = load_events(self.path)
        keep = compact_events(events)
        staging = self.path.with_name(self.path.name + ".compact-tmp")
        with open(staging, "w", encoding="utf-8") as fh:
            for event in keep:
                fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(staging, self.path)
        return len(events) - len(keep)


def compact_events(
    events: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    """The events of a log that :func:`replay` reads, in log order.

    A job with a terminal event keeps its ``submitted`` (or
    ``sweep-submitted``) event and its *last* terminal event, plus its
    ``requeued`` trail when :func:`retryable` may retry that event (the
    trail is the count that caps the retries) and its ``sweep-cells``
    roster when that event carries none.  Jobs still in flight keep
    their full trail; ``deduplicated`` events always go (the count
    rides in the terminal doc).  ``replay(compact_events(events)) ==
    replay(events)`` holds for every log.
    """
    last_terminal: Dict[object, int] = {}
    for index, event in enumerate(events):
        if event.get("event") in TERMINAL_EVENTS:
            last_terminal[event.get("job_id")] = index
    keep: List[Dict[str, object]] = []
    for index, event in enumerate(events):
        name = event.get("event")
        last = last_terminal.get(event.get("job_id"))
        if name in ("submitted", "sweep-submitted"):
            keep.append(event)
        elif name in TERMINAL_EVENTS:
            if last == index:
                keep.append(event)
        elif name == "deduplicated":
            continue
        elif last is None:
            keep.append(event)  # in-flight job: keep its trail
        elif name == "requeued" and retryable(events[last], 0):
            keep.append(event)
        elif name == "sweep-cells" \
                and not isinstance(events[last].get("cells"), list):
            keep.append(event)
    return keep


@dataclass
class Replay:
    """The state a restarted service resumes from.

    ``jobs`` holds every restorable job in submission order: terminal
    ones final (``done`` set), the run jobs in ``requeue`` (id → reason)
    PENDING, and sweep parents RUNNING — to ``rearm`` over their logged
    cells, or to ``relower`` when the crash came before the roster.
    ``next_id`` is above every job id the log names.
    """

    jobs: Dict[str, Job] = field(default_factory=dict)
    requeue: Dict[str, str] = field(default_factory=dict)
    rearm: List[str] = field(default_factory=list)
    relower: List[str] = field(default_factory=list)
    next_id: int = 1


def replay(events: List[Dict[str, object]]) -> Replay:
    """Fold an event log into the state a restarted service resumes.

    Pure: it builds :class:`Job` objects and touches nothing else.
    Terminal jobs restore verbatim from their last terminal event — the
    stored records/digests *are* the result — unless :func:`retryable`
    retries it; those, and jobs PENDING or RUNNING when the previous
    process died, re-queue.  A FAILED sweep parent reopens (a) when any
    of its cells is retried — otherwise they would complete as orphans
    under a durably failed parent — or (b) when every cell in fact
    succeeded (the crash landed between the last cell's terminal event
    and the parent's, so the logged failure is stale).  Jobs with
    neither a usable spec nor a terminal event are dropped.
    """
    infos: Dict[str, Dict[str, object]] = {}
    state = Replay()
    for event in events:
        job_id = event.get("job_id")
        # Burn every id the log names — dropped jobs and sweep cell
        # references too — so none is reissued to an unrelated workload.
        named = [job_id]
        if isinstance(event.get("cells"), list):
            named += [cell.get("job_id") for cell in event["cells"]
                      if isinstance(cell, dict)]
        for some_id in named:
            tail = str(some_id).rsplit("-", 1)[-1]
            if isinstance(some_id, str) and tail.isdecimal():
                state.next_id = max(state.next_id, int(tail) + 1)
        if not isinstance(job_id, str):
            continue
        name = event.get("event")
        if name in ("submitted", "sweep-submitted"):
            infos[job_id] = {"submitted": event, "cells": None,
                             "requeues": 0, "terminal": None}
        elif job_id not in infos:
            continue
        elif name == "sweep-cells":
            infos[job_id]["cells"] = event.get("cells")
        elif name == "requeued":
            infos[job_id]["requeues"] += 1
        elif name in TERMINAL_EVENTS:
            infos[job_id]["terminal"] = event

    for job_id, info in infos.items():
        job = _replayed_job(job_id, info)
        if job is None:
            continue
        state.jobs[job_id] = job
        if job.state.terminal:
            continue
        if job.kind == "run":
            crash = info["terminal"]  # a retryable worker crash, or None
            state.requeue[job_id] = (
                f"replay: {crash.get('error')}" if crash is not None
                else "replay: unfinished when the store was last written"
            )
        elif isinstance(info["cells"], list):
            job.cells = [dict(cell) for cell in info["cells"]]
            state.rearm.append(job_id)
        else:
            state.relower.append(job_id)  # crashed mid-lowering

    for job in state.jobs.values():
        if job.kind != "sweep" or job.state is not JobState.FAILED:
            continue
        cell_ids = {
            cell.get("job_id") for cell in job.cells if cell.get("job_id")
        }
        children = [state.jobs.get(cell_id) for cell_id in cell_ids]
        if cell_ids & state.requeue.keys() or (
            children and all(
                child is not None and child.state is JobState.SUCCEEDED
                for child in children
            )
        ):
            job.state = JobState.RUNNING
            job.error = job.finished_at = job.result_payload = None
            state.rearm.append(job.job_id)
    for job in state.jobs.values():
        if job.state.terminal:
            job.done.set()
    return state


def _replayed_job(job_id: str, info: Dict[str, object]) -> Optional[Job]:
    """One logged job as replay restores it (``None`` when unusable)."""
    submitted = info["submitted"]
    terminal = info["terminal"]
    run = submitted.get("event") == "submitted"
    try:
        parsed = (RunSpec if run else SweepSpec).from_dict(
            submitted.get("spec" if run else "sweep"))
    except (ValueError, TypeError):  # unreadable: e.g. another version's
        parsed = None
    if parsed is None and terminal is None:
        return None  # nothing to re-run, no result
    if run and parsed is not None and terminal is not None \
            and retryable(terminal, info["requeues"]):
        terminal = None
    job = Job(
        job_id=job_id, spec=parsed if run else None,
        sweep=None if run else parsed, kind="run" if run else "sweep",
        spec_hash=str(submitted.get("spec_hash")
                      or (parsed.spec_hash() if parsed else "")),
        state=JobState.PENDING if run else JobState.RUNNING,
    )
    submitted_at = submitted.get("time")
    if isinstance(submitted_at, (int, float)):
        job.submitted_at = float(submitted_at)
    if terminal is None:
        return job
    job.state = JobState(terminal["event"])
    job.error = terminal.get("error")
    for attr in ("started_at", "finished_at"):
        value = terminal.get(attr)
        if isinstance(value, (int, float)):
            setattr(job, attr, float(value))
    if job.finished_at is None:
        value = terminal.get("time")
        if isinstance(value, (int, float)):
            job.finished_at = float(value)
    dupes = terminal.get("duplicate_submissions")
    if isinstance(dupes, int):
        job.duplicate_submissions = dupes
    if job.kind == "sweep":
        # view() carries cell *references* only; the full per-cell
        # documents (digests) stay in the result payload, matching live
        # parents' shape.  Fall back to the sweep-cells event for
        # terminal docs that carry no cell roster.
        cells = terminal.get("cells")
        if not isinstance(cells, list):
            cells = info["cells"]
        if isinstance(cells, list):
            job.cells = [
                {key: cell.get(key)
                 for key in ("backend", "scale", "job_id", "skipped")}
                for cell in cells
            ]
    payload = {key: terminal[key] for key in PAYLOAD_KEYS if key in terminal}
    if payload:
        job.result_payload = payload
    return job


def load_events(path: Path) -> List[Dict[str, object]]:
    """Read a store file back (replay, offline analysis, tests).

    Tolerates a torn final line — the one crash artifact the
    append-under-lock discipline permits.
    """
    events: List[Dict[str, object]] = []
    path = Path(path)
    if not path.exists():
        return events
    text = path.read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events
