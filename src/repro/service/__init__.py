"""``repro.service`` — the long-lived benchmark job service.

:class:`BenchmarkService` executes :class:`~repro.api.spec.RunSpec`
jobs concurrently (submit / status / result / cancel) on a thread,
multi-process, or remote-TCP worker pool
(``worker_kind=thread|process|remote`` — specs ship to workers as
JSON, results return as the job store's record/rank-digest documents;
``remote`` dispatches to ``repro-pipeline worker --connect`` agents
with heartbeat liveness and cross-host artifact sync), fans :class:`~repro.api.spec.SweepSpec` grids out
as parent/child sweep jobs (``submit_sweep``), deduplicates in-flight
duplicates by spec hash, shares one artifact cache across workers and
processes, and appends every lifecycle event to a durable JSONL
:class:`~repro.service.jobs.JobStore` that it replays on restart
(finished jobs restore verbatim, interrupted ones re-queue).  The
stdlib HTTP front end (:mod:`repro.service.httpd`, ``repro-pipeline
serve``) lets many remote clients drive one service.
"""

from __future__ import annotations

from repro.core.procpool import RemoteOpError, WorkerCrashError
from repro.service.agent import WorkerAgent, run_worker
from repro.service.framing import FrameChannel, FrameError
from repro.service.jobs import Job, JobState, JobStore, load_events
from repro.service.pool import (
    WORKER_KINDS,
    ProcessWorkerPool,
    ThreadWorkerPool,
)
from repro.service.remote import RemoteWorkerPool
from repro.service.service import (
    BenchmarkService,
    JobCancelledError,
    JobError,
    JobFailedError,
    UnknownJobError,
)
from repro.service.httpd import (
    BenchmarkHTTPServer,
    make_server,
    run_server,
    serve_in_thread,
)

__all__ = [
    "BenchmarkHTTPServer",
    "BenchmarkService",
    "FrameChannel",
    "FrameError",
    "Job",
    "JobCancelledError",
    "JobError",
    "JobFailedError",
    "JobState",
    "JobStore",
    "ProcessWorkerPool",
    "RemoteOpError",
    "RemoteWorkerPool",
    "ThreadWorkerPool",
    "UnknownJobError",
    "WORKER_KINDS",
    "WorkerAgent",
    "WorkerCrashError",
    "load_events",
    "make_server",
    "run_server",
    "run_worker",
    "serve_in_thread",
]
