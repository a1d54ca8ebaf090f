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

from repro._util.lazy import lazy_exports

# Loaded on first use: the CLI parser reads WORKER_KINDS without the
# HTTP server, the TCP plane or the service machinery.
__getattr__ = lazy_exports(__name__, {
    "RemoteOpError": "repro.core.procpool",
    "WorkerCrashError": "repro.core.procpool",
    "WorkerAgent": "repro.service.agent",
    "run_worker": "repro.service.agent",
    "FrameChannel": "repro.service.framing",
    "FrameError": "repro.service.framing",
    "Job": "repro.service.jobs",
    "JobState": "repro.service.jobs",
    "JobStore": "repro.service.jobs",
    "load_events": "repro.service.jobs",
    "WORKER_KINDS": "repro.service.pool",
    "ProcessWorkerPool": "repro.service.pool",
    "ThreadWorkerPool": "repro.service.pool",
    "RemoteWorkerPool": "repro.service.remote",
    "BenchmarkService": "repro.service.service",
    "JobCancelledError": "repro.service.service",
    "JobError": "repro.service.service",
    "JobFailedError": "repro.service.service",
    "UnknownJobError": "repro.service.service",
    "BenchmarkHTTPServer": "repro.service.httpd",
    "make_server": "repro.service.httpd",
    "run_server": "repro.service.httpd",
    "serve_in_thread": "repro.service.httpd",
})

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
