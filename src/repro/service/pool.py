"""Worker pools: where benchmark jobs actually execute.

The :class:`~repro.service.service.BenchmarkService` schedules jobs on
a small thread pool; each scheduler thread hands the job's spec
*document* to a worker pool and blocks for the result *document*
(see :mod:`repro.service.worker` for the document shapes).  Two pools
implement that contract:

* :class:`ThreadWorkerPool` — runs the job on the scheduler thread
  itself (the historical behaviour; kernels are numpy/file-I/O bound
  and release the GIL).  It additionally returns the live
  :class:`~repro.api.runner.RunOutcome` so in-process callers keep
  rank-vector access.
* :class:`ProcessWorkerPool` — a fixed set of long-lived worker
  *processes*: the shared runtime of :mod:`repro.core.procpool` serving
  one ``run-spec`` op.  Workers are spawned lazily on first use and
  reused across jobs; a worker that dies mid-job is replaced and the
  job fails with :class:`~repro.core.procpool.WorkerCrashError`.
  Workers are plain subprocesses, so the serving process starts no
  multiprocessing helper (forkserver, resource tracker) for them, and
  a worker may start ``parallel_executor="mp"`` rank processes.
  Each worker imports the whole execution stack
  (:data:`~repro.service.worker.WORKER_WARM`) before it answers its
  start-up ping; the serving process itself never imports numpy or
  scipy for a process pool.
  ``terminate()`` kills every child immediately — the ``^C`` path, so
  in-flight jobs fail fast instead of outliving the service as zombies.

A third pool, :class:`~repro.service.remote.RemoteWorkerPool`
(``worker_kind="remote"``), lives in :mod:`repro.service.remote`: it
speaks the same spec-document-in / result-document-out contract over
TCP to ``repro worker --connect`` agents on other hosts, with
heartbeat-based liveness in place of pipe EOF.

Specs cross the process boundary as JSON documents and results come
back as the record/rank-digest documents the job store persists, so a
process-pooled service is bit-identical (rank digests, records) to a
thread-pooled one — asserted by ``tests/unit/test_worker_pool.py``
(and a remote-pooled one by ``tests/unit/test_remote_pool.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import WORKER_KINDS
from repro.core.procpool import ProcessPool
from repro.service.worker import (
    WORKER_OPS,
    WORKER_WARM,
    run_spec_job_with_outcome,
)

if TYPE_CHECKING:
    from repro.api.runner import RunOutcome


class ThreadWorkerPool:
    """Run jobs on the calling (scheduler) thread."""

    kind = "thread"
    transport = "inline"

    def __init__(self, workers: int) -> None:
        del workers  # concurrency is the scheduler pool's; nothing to own

    def run_spec(
        self,
        spec_doc: Dict[str, object],
        cache_dir: Optional[str],
        *,
        job_id: Optional[str] = None,
    ) -> Tuple[Dict[str, object], Optional[RunOutcome]]:
        """Execute in-process; payload plus the live outcome."""
        del job_id  # provenance labelling is the remote pool's concern
        return run_spec_job_with_outcome(spec_doc, cache_dir)

    def stats(self) -> Dict[str, int]:
        """Worker lifecycle counters; threads never spawn or crash."""
        return {"workers_spawned": 0, "workers_crashed": 0}

    def workers_view(self) -> List[Dict[str, object]]:
        """No pool-owned workers; the service reports its scheduler
        threads' in-flight jobs instead."""
        return []

    def shutdown(self, wait: bool = True) -> None:
        """Nothing to stop — job threads belong to the scheduler."""

    def terminate(self) -> None:
        """Threads cannot be killed; in-flight jobs run to completion."""


class ProcessWorkerPool(ProcessPool):
    """:class:`~repro.core.procpool.ProcessPool` serving ``run-spec``.

    When the service process dies, a worker's ``recv()`` sees EOF and
    its loop exits.
    """

    kind = "process"
    transport = "pipe"

    def __init__(self, workers: int) -> None:
        super().__init__(workers, WORKER_OPS, name="worker",
                         warm=WORKER_WARM)

    def workers_view(self) -> List[Dict[str, object]]:
        """No per-worker health rows: pipe workers have no heartbeat
        (EOF is their only liveness signal), so the service's scheduler
        view covers them."""
        return []

    def run_spec(
        self,
        spec_doc: Dict[str, object],
        cache_dir: Optional[str],
        *,
        job_id: Optional[str] = None,
    ) -> Tuple[Dict[str, object], Optional[RunOutcome]]:
        """Ship one spec to a worker; payload only (the rank vector
        stays in the worker — its digest rides in the payload)."""
        del job_id  # provenance labelling is the remote pool's concern
        return self.run("run-spec", (spec_doc, cache_dir)), None


def make_worker_pool(kind: str, workers: int, **remote_options):
    """Build the pool for a ``worker_kind`` value (with a clear error).

    ``remote_options`` (``host``/``port``/``heartbeat_timeout``/
    ``heartbeat_interval``/``register_timeout``/``artifact_base``) are
    forwarded to :class:`~repro.service.remote.RemoteWorkerPool` and
    refused for the local kinds, where they could only be silently
    ignored configuration.
    """
    if kind == "remote":
        from repro.service.remote import RemoteWorkerPool

        return RemoteWorkerPool(workers, **remote_options)
    if remote_options:
        raise ValueError(
            f"options {sorted(remote_options)} apply only to "
            f"worker_kind='remote', not {kind!r}"
        )
    if kind == "thread":
        return ThreadWorkerPool(workers)
    if kind == "process":
        return ProcessWorkerPool(workers)
    raise ValueError(
        f"worker_kind must be one of {WORKER_KINDS}, got {kind!r}"
    )
