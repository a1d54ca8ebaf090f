"""The benchmark job service: many clients, one execution surface.

:class:`BenchmarkService` is a long-lived object with submit / status /
result / cancel semantics over declarative
:class:`~repro.api.spec.RunSpec`s and :class:`~repro.api.spec.SweepSpec`
grids:

* **Worker pool** — jobs are scheduled on a small thread pool whose
  threads hand the work to a :mod:`~repro.service.pool` worker pool.
  ``worker_kind="thread"`` runs jobs in-process (kernels are numpy/
  file-I/O dominated and release the GIL); ``worker_kind="process"``
  ships each spec as JSON to one of ``workers`` long-lived worker
  *processes* and receives back the same record/rank-digest document
  the job store persists — true multi-core fan-out with bit-identical
  results (specs are environment-free; the shared artifact cache's
  per-entry locks are ``flock``-based and therefore process-safe).
* **Sweep jobs** — :meth:`submit_sweep` lowers a SweepSpec grid into
  per-cell child RunSpec jobs fanned across the pool, tracks a parent
  job aggregating cell statuses, and assembles the sweep table
  (grid-ordered records plus per-cell digests) as the parent's result.
* **Deduplication** — a spec is identified by its
  :meth:`~repro.api.spec.RunSpec.spec_hash`; submitting a spec that is
  already pending or running returns the existing job id instead of
  queueing the work twice.  Duplicate sweep *cells* collapse the same
  way, across the whole pool.  Completed specs re-run on resubmission —
  with a shared ``cache_dir`` their Kernel 0/1/2 artifacts come back as
  :class:`~repro.core.artifacts.ArtifactCache` hits, so the expensive
  work still happens exactly once.
* **Durability + replay** — every lifecycle event (and, on success,
  the per-kernel records plus the bit-exact rank digest) is appended to
  a JSONL :class:`~repro.service.jobs.JobStore`.  On startup the
  service *replays* the store: terminal jobs are restored verbatim from
  their terminal event documents (no re-execution), and jobs that were
  PENDING or RUNNING at a crash are re-queued exactly once.  A sweep
  interrupted mid-grid resumes: finished cells come back from the log,
  the rest re-run, and the parent completes.  Replay itself is the
  pure :func:`~repro.service.jobs.replay` fold; the service applies its
  result through the same parent arming, cell fan-out and scheduler
  submit the live path uses.  ``compact=True`` keeps the log bounded.

The HTTP front end (:mod:`repro.service.httpd`) and the CLI are thin
layers over this class.
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.api.runner import RunOutcome, sweep_cells
from repro.api.spec import RunSpec, SweepSpec
from repro.core.procpool import RemoteOpError, WorkerCrashError
from repro.service.jobs import (
    Job,
    JobState,
    JobStore,
    Replay,
    load_events,
    replay,
    retryable,
)
from repro.service.metrics import ServiceMetrics
from repro.service.pool import make_worker_pool

logger = logging.getLogger("repro.service")

#: Default worker count (scheduler threads == workers for both kinds).
DEFAULT_WORKERS = 2

#: With ``compact=True``, the store also compacts itself after this
#: many appended events.
COMPACT_EVERY = 1000


class JobError(Exception):
    """Base class for job-service failures."""


class UnknownJobError(JobError, KeyError):
    """No job with the given id."""


class JobFailedError(JobError):
    """The job's pipeline execution raised; carries the error text."""


class JobCancelledError(JobError):
    """The job was cancelled before it ran."""


class BenchmarkService:
    """Concurrent benchmark job execution over declarative specs.

    Parameters
    ----------
    workers:
        Concurrent job count (scheduler threads; for
        ``worker_kind="process"`` also the worker-process count).
    worker_kind:
        ``"thread"`` (in-process execution, default) or ``"process"``
        (jobs fan out to long-lived worker processes; results come back
        as JSON documents, the rank vector stays in the worker and only
        its digest crosses the boundary).
    cache_dir:
        Shared :class:`~repro.core.artifacts.ArtifactCache` root handed
        to every job whose spec's ``cache_policy`` allows it.  Safe to
        share across workers *and processes*: entries publish via
        atomic rename and eviction respects per-entry flock reader
        locks.
    store_path:
        JSONL job-store file; ``None`` keeps the service memory-only.
        An existing store is replayed on startup: terminal jobs are
        restored from their logged result documents and jobs that were
        in flight when the previous process died are re-queued.
    compact:
        Compact the store on startup (before replaying it) and then
        after every :data:`COMPACT_EVERY` appended events.
    worker_listen:
        ``worker_kind="remote"`` only: the ``(host, port)`` the
        :class:`~repro.service.remote.RemoteWorkerPool` listens on for
        ``repro worker --connect`` agents (``port=0`` binds an
        ephemeral port — read :attr:`worker_address` back).  Defaults
        to ``("127.0.0.1", 0)``.
    heartbeat_timeout:
        ``worker_kind="remote"`` only: a worker whose heartbeat age
        exceeds this is lost — its in-flight job requeues (then
        retries on another worker) and the worker may reconnect.

    Examples
    --------
    >>> from repro.api import RunSpec
    >>> with BenchmarkService(workers=2) as service:
    ...     job_id = service.submit(RunSpec(scale=6, backend="numpy"))
    ...     outcome = service.result(job_id)
    >>> len(outcome.records)
    4
    """

    def __init__(
        self,
        *,
        workers: int = DEFAULT_WORKERS,
        worker_kind: str = "thread",
        cache_dir: Optional[Path] = None,
        store_path: Optional[Path] = None,
        compact: bool = False,
        worker_listen: Optional[Tuple[str, int]] = None,
        heartbeat_timeout: float = 10.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.worker_kind = worker_kind
        if worker_kind == "remote":
            listen = worker_listen or ("127.0.0.1", 0)
            self._workers = make_worker_pool(
                worker_kind, workers,
                host=listen[0], port=int(listen[1]),
                heartbeat_timeout=heartbeat_timeout,
            )
        else:
            if worker_listen is not None:
                raise ValueError(
                    "worker_listen applies only to worker_kind='remote'"
                )
            self._workers = make_worker_pool(worker_kind, workers)
        self._scheduler = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-job"
        )
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._futures: Dict[str, object] = {}
        self._inflight: Dict[str, str] = {}  # spec_hash -> primary job id
        #: scheduler-thread name -> the job id it is currently driving
        #: (the /healthz per-worker in-flight view).
        self._running_jobs: Dict[str, str] = {}
        self.metrics = ServiceMetrics()
        #: child job id -> parent sweep-job ids still waiting on it.
        self._cell_parents: Dict[str, Set[str]] = {}
        #: parent sweep-job id -> child job ids not yet terminal.
        self._parent_waiting: Dict[str, Set[str]] = {}
        self._next_id = 1
        self._closed = False
        #: True only during close(wait=False): child terminations it
        #: induces must not durably finalize sweep parents (the store
        #: keeps them open so a restart can resume the sweep).
        self._terminating = False
        self.store = JobStore(
            store_path, compact_every=COMPACT_EVERY if compact else None
        )
        if compact:
            self.store.compact()
        if self.store.path is not None:
            self._resume(replay(load_events(self.store.path)))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Stop accepting jobs and shut the pools down.

        ``wait=False`` is the ``^C`` path: still-queued jobs are
        cancelled (marked CANCELLED in memory but *not* in the store —
        a queued job survives a service restart), and with
        ``worker_kind="process"`` the worker processes are terminated
        so in-flight jobs fail fast — their scheduler threads observe
        the dead worker, mark the jobs FAILED, and append the
        ``failed`` event, so a later replay never resurrects a zombie
        RUNNING job (replay re-queues such worker-crash failures — the
        job produced no wrong result, its worker was killed).  Sweep
        parents are deliberately *not* finalized by shutdown-induced
        child terminations: their store entry stays open so a restart
        resumes the sweep.
        """
        with self._lock:
            self._closed = True
            if not wait:
                self._terminating = True
        if not wait:
            # Kill workers first so running jobs unblock immediately
            # (a no-op for thread workers, which run to completion).
            self._workers.terminate()
        self._scheduler.shutdown(wait=wait, cancel_futures=not wait)
        if not wait:
            # Queued jobs and open sweep parents are cancelled in memory
            # only, so local waiters blocked in result() wake while the
            # store keeps them open: a restart re-queues the jobs and
            # resumes the sweeps (the _terminating gate already keeps
            # shutdown-induced child terminations from closing parents).
            with self._lock:
                cancelled = [
                    job for job in self._jobs.values()
                    if (job.kind == "sweep" and not job.state.terminal)
                    or (job.state is JobState.PENDING
                        and job.job_id in self._futures
                        and self._futures[job.job_id].cancelled())
                ]
            for job in cancelled:
                self._finish(job, JobState.CANCELLED, durable=False)
            if self._workers.kind in ("process", "remote"):
                # Give in-flight scheduler threads a moment to append
                # their terminal (FAILED) events before the process
                # exits.  Thread workers keep running past close() and
                # finish on their own — never stall shutdown on them.
                deadline = time.monotonic() + 10.0
                for job in list(self._jobs.values()):
                    if job.state is JobState.RUNNING and job.kind == "run":
                        job.done.wait(
                            timeout=max(0.0, deadline - time.monotonic())
                        )
        self._workers.shutdown(wait=wait)

    def __enter__(self) -> "BenchmarkService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: Union[RunSpec, Dict[str, object]]) -> str:
        """Queue a spec; returns its job id.

        A dict is parsed through the strict
        :meth:`~repro.api.spec.RunSpec.from_dict` (unknown fields
        refused).  An identical spec already pending or running returns
        the in-flight job's id.
        """
        if isinstance(spec, dict):
            spec = RunSpec.from_dict(spec)
        spec_hash = spec.spec_hash()
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            primary_id = self._deduplicate_locked(spec_hash)
            if primary_id is not None:
                return primary_id
            job_id = self._next_job_id_locked()
            job = Job(job_id=job_id, spec=spec, spec_hash=spec_hash)
            self._jobs[job_id] = job
            self._inflight[spec_hash] = job_id
            # Log "submitted" before the worker can pick the job up, so
            # the durable event order is always submitted → running.
            self.store.append(
                "submitted",
                {"job_id": job_id, "spec_hash": spec_hash,
                 "spec": spec.to_dict()},
            )
            self._enqueue_locked(job)
        return job_id

    def submit_sweep(
        self, sweep: Union[SweepSpec, Dict[str, object]]
    ) -> str:
        """Queue a whole sweep grid; returns the *parent* job id.

        The grid is lowered into per-cell RunSpec child jobs (harness
        order: backend-major, then scale) fanned across the worker
        pool; capability-skipped cells are recorded as such.  Duplicate
        cells — within the grid or against jobs already in flight —
        deduplicate by spec hash onto one child.  The parent job is
        RUNNING until every cell is terminal; its result document is
        the assembled sweep table.  Poll it like any job; fetch
        ``GET /jobs/<id>/result`` (or :meth:`result_doc`) when done.

        Raises
        ------
        ValueError
            When no backend in the grid supports the sweep's execution
            strategy (parity with ``execute_sweep``).
        """
        if isinstance(sweep, dict):
            sweep = SweepSpec.from_dict(sweep)
        sweep_hash = sweep.spec_hash()
        cells_plan = sweep_cells(sweep)  # may raise ValueError
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            primary_id = self._deduplicate_locked(sweep_hash)
            if primary_id is not None:
                return primary_id
            parent_id = self._next_job_id_locked()
            parent = Job(
                job_id=parent_id, spec=None, spec_hash=sweep_hash,
                kind="sweep", sweep=sweep, state=JobState.RUNNING,
                started_at=time.time(),
            )
            self._jobs[parent_id] = parent
            self._inflight[sweep_hash] = parent_id
            # Logged before any cell is submitted so a crash during
            # lowering still replays the parent (which then re-lowers).
            self.store.append(
                "sweep-submitted",
                {"job_id": parent_id, "spec_hash": sweep_hash,
                 "sweep": sweep.to_dict()},
            )
        self._attach_cells(parent, cells_plan)
        return parent_id

    def _deduplicate_locked(self, spec_hash: str) -> Optional[str]:
        """In-flight dedup by workload hash (caller holds the lock)."""
        primary_id = self._inflight.get(spec_hash)
        if primary_id is None:
            return None
        primary = self._jobs[primary_id]
        if primary.state.terminal:
            return None
        primary.duplicate_submissions += 1
        self.store.append(
            "deduplicated",
            {"job_id": primary_id, "spec_hash": spec_hash},
        )
        return primary_id

    def _next_job_id_locked(self) -> str:
        job_id = f"job-{self._next_id:05d}"
        self._next_id += 1
        return job_id

    def _enqueue_locked(self, job: Job) -> None:
        """Hand a PENDING job to the scheduler (caller holds the lock)."""
        self._futures[job.job_id] = self._scheduler.submit(
            self._run_job, job.job_id
        )

    def _attach_cells(
        self,
        parent: Job,
        cells_plan: List[Tuple[str, int, Optional[RunSpec]]],
    ) -> None:
        """Submit a sweep's cells and wire up parent aggregation."""
        cells: List[Dict[str, object]] = []
        try:
            for backend, scale, cell_spec in cells_plan:
                if cell_spec is None:
                    cells.append({
                        "backend": backend, "scale": scale,
                        "job_id": None, "skipped": True,
                    })
                    continue
                child_id = self.submit(cell_spec)
                cells.append({
                    "backend": backend, "scale": scale,
                    "job_id": child_id, "skipped": False,
                })
        except RuntimeError:
            # The service closed mid-fan-out.  Unwind the parent in
            # memory (waiters must not block forever) but leave its
            # store entry open — without a sweep-cells event the next
            # start re-lowers the grid, deduplicating onto any cells
            # that did get submitted.
            self._finish(parent, JobState.CANCELLED, durable=False)
            raise
        with self._lock:
            parent.cells = cells
        idle = self._arm_parent(parent)
        self.store.append(
            "sweep-cells", {"job_id": parent.job_id, "cells": cells}
        )
        if idle:
            self._maybe_finalize_parent(parent.job_id)

    def _arm_parent(self, parent: Job) -> bool:
        """Make a sweep parent wait on its unfinished cells.

        Returns True when no cell is left to wait on (the caller then
        finalizes the parent).
        """
        with self._lock:
            pending: Set[str] = set()
            for cell in parent.cells:
                child = self._jobs.get(cell.get("job_id"))
                if child is not None and not child.state.terminal:
                    pending.add(child.job_id)
                    self._cell_parents.setdefault(child.job_id, set()).add(
                        parent.job_id
                    )
            self._parent_waiting[parent.job_id] = pending
        return not pending

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_job(self, job_id: str) -> None:
        """Scheduler-thread body: one job, cradle to grave."""
        job = self._jobs[job_id]
        if self._terminating and self._workers.kind in ("process", "remote"):
            # Dequeued in the race window between terminate() and
            # cancel_futures: the workers are already dead, so running
            # would only record a spurious failure.  Leave no durable
            # trace (the job never ran) so the next start re-queues it.
            # Thread workers instead run slipped-through jobs to
            # completion (close never interrupts a pipeline mid-kernel).
            self._finish(job, JobState.CANCELLED, durable=False)
            return
        with self._lock:
            if job.state is not JobState.PENDING:  # cancelled meanwhile
                return
            job.state = JobState.RUNNING
            job.started_at = time.time()
            self._running_jobs[threading.current_thread().name] = job_id
        payload: Optional[Dict[str, object]] = None
        outcome: Optional[RunOutcome] = None
        error: Optional[str] = None
        t_dispatched = t_received = None
        requeues = 0
        try:
            # Guarded: a store I/O failure here must fail the job (and
            # wake its waiters via the finally below), never strand it
            # RUNNING with the spec hash pinned in the dedup map.
            self.store.append("running", {"job_id": job_id})
            while True:
                t_dispatched = time.time()
                try:
                    payload, outcome = self._workers.run_spec(
                        job.spec.to_dict(),
                        str(self.cache_dir)
                        if self.cache_dir is not None else None,
                        job_id=job_id,
                    )
                    t_received = time.time()
                except WorkerCrashError as exc:
                    # The *worker* died under the job (process crash,
                    # remote heartbeat loss, torn socket) — the job
                    # produced no wrong result.  Requeue it live on the
                    # next available worker under the same rule (and
                    # durable ``requeued`` event) replay uses.  During
                    # shutdown the retry would only spin against a
                    # terminated pool: converge to FAILED, which replay
                    # retries on the next start.
                    crash = {"event": "failed",
                             "error": f"WorkerCrashError: {exc}"}
                    if self._terminating or not retryable(crash, requeues):
                        error = crash["error"]
                        break
                    requeues += 1
                    self._requeue(job, crash["error"])
                    continue
                break
        except RemoteOpError as exc:
            # A worker-side job failure, already worded exactly as the
            # in-process exception would have been ("{type}: {message}").
            error = str(exc)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            # A run whose eigenvector validation FAILed is a benchmark
            # failure, mirroring `repro run --validate`'s exit 1; the
            # payload is kept so result_doc still shows the verdict.
            failed = [
                verdict for verdict in (payload.get("validation") or [])
                if not verdict.get("passed")
            ]
            if failed:
                error = (
                    "validation failed "
                    f"(l1={failed[0]['l1_distance']:.4f}, "
                    f"cosine={failed[0]['cosine_similarity']:.6f})"
                )
        if payload is not None and t_dispatched is not None:
            self._append_job_spans(
                job, payload, t_dispatched, t_received, requeues=requeues
            )
        with self._lock:
            self._running_jobs.pop(threading.current_thread().name, None)
        self._finish(
            job, JobState.FAILED if error is not None else JobState.SUCCEEDED,
            error=error, payload=payload, outcome=outcome,
        )

    def _requeue(self, job: Job, reason: str) -> None:
        """Log one hand-back of ``job`` to the queue, live or on replay:
        the durable ``requeued`` event, the counter, and one warning
        joining the requeue to its cause."""
        self.metrics.record_requeue()
        self.store.append(
            "requeued",
            {"job_id": job.job_id, "spec_hash": job.spec_hash,
             "reason": reason},
        )
        logger.warning(
            "requeued job %s (spec %s): %s", job.job_id, job.spec_hash, reason
        )

    def _finish(
        self,
        job: Job,
        state: JobState,
        *,
        error: Optional[str] = None,
        payload: Optional[Dict[str, object]] = None,
        outcome: Optional[RunOutcome] = None,
        durable: bool = True,
    ) -> bool:
        """Make ``job`` terminal: the one place any job becomes so.

        Releases its spec hash from dedup, wakes waiters and settles
        waiting sweep parents; ``durable`` also counts it in the metrics
        and appends its terminal event (shutdown paths leave it out, so
        a restart resumes the job).  Returns False, changing nothing,
        when the job already was terminal.  Call without the lock.
        """
        with self._lock:
            if job.state.terminal:
                return False
            job.state = state
            job.error = error
            job.finished_at = time.time()
            job.result_payload = payload
            job.outcome = outcome
            if self._inflight.get(job.spec_hash) == job.job_id:
                self._inflight.pop(job.spec_hash)
            if payload is not None:
                doc = job.result_doc()
            else:
                doc = {"job_id": job.job_id}
                if error is not None:
                    doc["error"] = error
        try:
            if durable:
                # Sweep parents aggregate their cells' records; the
                # cells already fed the metrics one by one, so only the
                # state counter moves for them.
                self.metrics.record_job(
                    state.value, payload if job.kind == "run" else None
                )
                self.store.append(state.value, doc)
        finally:
            # A store failure (disk full, directory gone) must never
            # strand waiters: the job *is* terminal in memory.
            job.done.set()
            self._child_finished(job.job_id)
        return True

    def _append_job_spans(
        self,
        job: Job,
        payload: Dict[str, object],
        t_dispatched: float,
        t_received: Optional[float],
        *,
        requeues: int = 0,
    ) -> None:
        """Graft service-side job-lifecycle spans onto the run trace.

        Only possible when the job's payload carries a trace (the spec
        set ``trace``): the pipeline's collector recorded its creation
        epoch, so service events — which live on the epoch clock — map
        onto the run clock as ``epoch - epoch0``.  Negative ids keep
        the grafted spans clear of the pipeline collector's positive id
        space; negative *starts* (the queue began before the collector
        existed) are fine — the Chrome export shifts all timestamps so
        the earliest lands at zero.  Remote dispatches additionally
        graft the worker's registration/heartbeat/dispatch provenance
        from the payload's ``remote`` annotation.
        """
        from repro.core.trace import graft_span

        trace_doc = payload.get("trace")
        if not isinstance(trace_doc, dict):
            return
        thread = threading.current_thread().name
        t_result = time.time()

        def graft(name: str, span_id: int, parent: Optional[int],
                  begin: float, end: float,
                  args: Optional[Dict[str, object]] = None) -> None:
            merged = {"job_id": job.job_id}
            merged.update(args or {})
            graft_span(
                trace_doc, name=name, span_id=span_id, parent_id=parent,
                begin_epoch=begin, end_epoch=end,
                proc="service", thread=thread, args=merged,
            )

        graft(f"job:{job.job_id}", -1, None, job.submitted_at, t_result,
              {"requeues": requeues} if requeues else None)
        graft("job:queue", -2, -1, job.submitted_at, job.started_at)
        graft("job:dispatch", -3, -1, job.started_at, t_dispatched)
        if t_received is not None:
            graft("job:run", -4, -1, t_dispatched, t_received)
            graft("job:result", -5, -1, t_received, t_result)
        remote = payload.get("remote")
        if isinstance(remote, dict) and t_received is not None:
            worker = remote.get("worker_id")
            info = {
                "worker_id": worker,
                "host": remote.get("host"),
                "transport": remote.get("transport"),
            }
            dispatched = remote.get("dispatched_at")
            completed = remote.get("completed_at")
            if isinstance(dispatched, (int, float)) \
                    and isinstance(completed, (int, float)):
                graft(f"job:remote-dispatch:{worker}", -6, -4,
                      float(dispatched), float(completed), info)
            registered = remote.get("registered_at")
            if isinstance(registered, (int, float)):
                graft("worker:registered", -7, -6,
                      float(registered), float(registered), info)
            heartbeat = remote.get("last_heartbeat_at")
            if isinstance(heartbeat, (int, float)):
                graft("worker:last-heartbeat", -8, -6,
                      float(heartbeat), float(heartbeat), info)

    # ------------------------------------------------------------------
    # Sweep aggregation
    # ------------------------------------------------------------------
    def _child_finished(self, child_id: str) -> None:
        """Settle a terminal child against every waiting sweep parent."""
        with self._lock:
            parent_ids = list(self._cell_parents.pop(child_id, ()))
            ready: List[str] = []
            for parent_id in parent_ids:
                waiting = self._parent_waiting.get(parent_id)
                if waiting is None:
                    continue
                waiting.discard(child_id)
                if not waiting:
                    ready.append(parent_id)
        for parent_id in ready:
            self._maybe_finalize_parent(parent_id)

    def _maybe_finalize_parent(self, parent_id: str) -> None:
        """Assemble the sweep table and close the parent job."""
        with self._lock:
            parent = self._jobs[parent_id]
            if parent.state.terminal or self._terminating:
                # Shutdown-induced child terminations must not close
                # the parent durably: its store entry stays open so a
                # restart replays and resumes the sweep.
                return
            cell_docs: List[Dict[str, object]] = []
            records: List[Dict[str, object]] = []
            failures: List[str] = []
            for cell in parent.cells:
                doc = dict(cell)
                if cell.get("skipped"):
                    doc["state"] = "skipped"
                    cell_docs.append(doc)
                    continue
                child = self._jobs.get(cell["job_id"])
                if child is None:
                    # A replayed store can reference a child whose
                    # events were unusable (e.g. unparseable spec from
                    # a newer version); surface it, don't crash.
                    doc["state"] = "failed"
                    doc["error"] = "child job could not be restored"
                    cell_docs.append(doc)
                    failures.append(
                        f"{cell['backend']}/s{cell['scale']} (lost)"
                    )
                    continue
                doc["state"] = child.state.value
                if child.error:
                    doc["error"] = child.error
                child_payload = child.result_payload or {}
                if "rank_sha256" in child_payload:
                    doc["rank_sha256"] = child_payload["rank_sha256"]
                cell_docs.append(doc)
                # Records appear once, in the flattened grid-ordered
                # table (duplicate cells repeat their shared child's
                # rows there, preserving the execute_sweep shape); the
                # per-cell docs carry state + digest only, so the
                # parent's store line and HTTP payload stay lean.
                if child.state is JobState.SUCCEEDED:
                    records.extend(child_payload.get("records") or [])
                else:
                    failures.append(
                        f"{cell['backend']}/s{cell['scale']} "
                        f"({child.state.value})"
                    )
            self._parent_waiting.pop(parent_id, None)
            error = (
                f"{len(failures)} of {len(parent.cells)} sweep cells "
                f"did not succeed: {', '.join(failures)}"
            ) if failures else None
        self._finish(
            parent, JobState.FAILED if failures else JobState.SUCCEEDED,
            error=error, payload={"cells": cell_docs, "records": records},
        )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _resume(self, state: Replay) -> None:
        """Apply a :func:`~repro.service.jobs.replay` of the store.

        Re-arms dedup and parent aggregation before any work starts,
        then re-queues, re-lowers and finalizes through the live paths.
        """
        with self._lock:
            self._jobs.update(state.jobs)
            self._next_id = state.next_id
            for job_id in [*state.requeue, *state.rearm, *state.relower]:
                job = self._jobs[job_id]
                self._inflight.setdefault(job.spec_hash, job_id)
        idle = [
            parent_id for parent_id in state.rearm
            if self._arm_parent(self._jobs[parent_id])
        ]
        for job_id, reason in state.requeue.items():
            self._requeue(self._jobs[job_id], reason)
            with self._lock:
                self._enqueue_locked(self._jobs[job_id])
        for parent_id in state.relower:
            parent = self._jobs[parent_id]
            try:
                cells_plan = sweep_cells(parent.sweep)
            except ValueError as exc:
                self._finish(parent, JobState.FAILED, error=str(exc))
                continue
            self._attach_cells(parent, cells_plan)
        for parent_id in idle:
            self._maybe_finalize_parent(parent_id)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def _job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(
                f"unknown job id {job_id!r}; known: {sorted(self._jobs)}"
            ) from None

    def status(self, job_id: str) -> Dict[str, object]:
        """JSON-safe status snapshot of one job."""
        with self._lock:
            return self._job(job_id).view()

    def jobs(self) -> List[Dict[str, object]]:
        """Status snapshots of every job, in submission order."""
        with self._lock:
            return [job.view() for job in self._jobs.values()]

    def result(self, job_id: str, timeout: Optional[float] = None):
        """Block until the job finishes and return its result.

        Returns the live :class:`RunOutcome` when one exists (thread
        workers); otherwise — process workers, sweep parents, jobs
        restored by replay — the JSON-safe result document (the rank
        vector never crossed into this process; its digest rides in
        ``rank_sha256``).

        Raises
        ------
        JobFailedError / JobCancelledError:
            Terminal non-success states.
        concurrent.futures.TimeoutError:
            ``timeout`` elapsed first.
        """
        job = self._job(job_id)
        if not job.done.wait(timeout):
            raise FuturesTimeout(
                f"job {job_id} still {job.state.value} after {timeout}s"
            )
        if job.state is JobState.FAILED:
            raise JobFailedError(f"job {job_id} failed: {job.error}")
        if job.state is not JobState.SUCCEEDED:
            raise JobCancelledError(f"job {job_id} was cancelled")
        if job.outcome is not None:
            return job.outcome
        with self._lock:
            return job.result_doc()

    def result_doc(self, job_id: str) -> Dict[str, object]:
        """JSON-safe result payload (records + rank digest) of a job."""
        with self._lock:
            return self._job(job_id).result_doc()

    def job_trace(self, job_id: str) -> Optional[Dict[str, object]]:
        """The Perfetto-loadable Chrome trace of a terminal traced job.

        ``None`` when the job recorded no trace (spec had ``trace``
        off, or the job failed before producing one).  The run-trace
        document stored in the payload — pipeline spans plus the
        service's grafted job-lifecycle spans — is rendered through
        :func:`repro.core.trace.chrome_trace`.
        """
        from repro.core.trace import chrome_trace

        with self._lock:
            job = self._job(job_id)
            payload = job.result_payload or {}
            trace_doc = payload.get("trace")
        if not isinstance(trace_doc, dict):
            return None
        return chrome_trace(trace_doc)

    def queue_depth(self) -> int:
        """Jobs submitted but not yet picked up by a scheduler thread."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values()
                if job.state is JobState.PENDING
            )

    @property
    def worker_address(self) -> Optional[Tuple[str, int]]:
        """The remote pool's worker-listen address (``None`` for local
        worker kinds)."""
        return getattr(self._workers, "address", None)

    def set_artifact_base(self, base_url: Optional[str]) -> None:
        """Advertise the HTTP front end's base URL to remote workers
        (they fetch/push artifact-cache entries against it).  No-op
        for local worker kinds."""
        if hasattr(self._workers, "artifact_base"):
            self._workers.artifact_base = base_url

    def workers_health(self) -> Dict[str, Dict[str, object]]:
        """Per-worker health rows for ``/healthz``.

        Remote pools report every *connected* worker — kind, transport,
        host, heartbeat age, and the in-flight job id (``None`` when
        idle).  Local pools have no pool-owned identities or
        heartbeats, so their rows are the scheduler threads currently
        driving jobs, labelled with the pool's kind/transport (idle
        local services report ``{}``).
        """
        view = self._workers.workers_view()
        if view:
            return {
                str(row.pop("worker")): row for row in view
            }
        transport = getattr(self._workers, "transport", "inline")
        with self._lock:
            running = dict(self._running_jobs)
        return {
            name: {
                "kind": self.worker_kind,
                "transport": transport,
                "job_id": running_job_id,
                "heartbeat_age_s": None,
            }
            for name, running_job_id in running.items()
        }

    def jobs_by_state(self) -> Dict[str, int]:
        """Job counts per lifecycle state (the /metrics gauge)."""
        with self._lock:
            counts: Dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.state.value] = counts.get(job.state.value, 0) + 1
            return counts

    def metrics_text(self) -> str:
        """The Prometheus text document for ``GET /metrics``."""
        return self.metrics.render(
            jobs_by_state=self.jobs_by_state(),
            queue_depth=self.queue_depth(),
            worker_stats=self._workers.stats(),
            worker_detail=self._workers.workers_view(),
        )

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a job that has not started; returns whether it worked.

        A running pipeline is never interrupted mid-kernel (the paper's
        sequencing makes partial runs meaningless) — cancelling a
        RUNNING or terminal job returns False.  Sweep parents are
        RUNNING from submission; cancel their PENDING cells instead.
        """
        with self._lock:
            job = self._job(job_id)
            if job.state is not JobState.PENDING:
                return False
            future = self._futures.get(job_id)
            if future is None or not future.cancel():
                return False  # a worker grabbed it in between
        return self._finish(job, JobState.CANCELLED)
