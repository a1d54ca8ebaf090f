"""Worker pools: thread/process parity and the pool factory.

The process pool's runtime (worker reuse, crash → replace, slot tokens,
terminate, shutdown) is the shared one, covered in ``test_procpool.py``.
"""

from __future__ import annotations

import pytest

from repro.api import RunSpec
from repro.core.procpool import RemoteOpError
from repro.service.pool import (
    WORKER_KINDS,
    ProcessWorkerPool,
    ThreadWorkerPool,
    make_worker_pool,
)
from repro.service.worker import outcome_payload, run_spec_job

SPEC = RunSpec(scale=6, backend="numpy")

#: Payload fields whose values must be identical across worker kinds
#: (timings are wall-clock and therefore excluded).
def _comparable(payload):
    return {
        "rank_sha256": payload["rank_sha256"],
        "rank_summary": payload["rank_summary"],
        "records": [
            {k: v for k, v in record.items()
             if k not in ("seconds", "edges_per_second")}
            for record in payload["records"]
        ],
    }


class TestThreadWorkerPool:
    def test_payload_and_outcome(self):
        pool = ThreadWorkerPool(2)
        payload, outcome = pool.run_spec(SPEC.to_dict(), None)
        assert outcome is not None
        assert payload == outcome_payload(outcome)
        assert payload["rank_sha256"] == outcome.rank_digest
        assert len(payload["records"]) == 4
        pool.shutdown()

    def test_matches_run_spec_job(self):
        pool = ThreadWorkerPool(1)
        payload, _ = pool.run_spec(SPEC.to_dict(), None)
        assert _comparable(payload) == _comparable(
            run_spec_job(SPEC.to_dict(), None)
        )


class TestProcessWorkerPool:
    def test_process_payload_bit_identical_to_thread(self):
        """The acceptance bar for the pool layer: a spec shipped to a
        worker process as JSON returns the same result document (rank
        digest, records modulo timing) as in-process execution."""
        process_pool = ProcessWorkerPool(1)
        try:
            via_process, outcome = process_pool.run_spec(SPEC.to_dict(), None)
        finally:
            process_pool.shutdown()
        assert outcome is None  # the rank vector stays in the worker
        via_thread, _ = ThreadWorkerPool(1).run_spec(SPEC.to_dict(), None)
        assert _comparable(via_process) == _comparable(via_thread)

    def test_remote_failure_reads_as_the_in_process_one_would(self):
        """The service stores ``str(error)`` in the job document, so it
        must read ``"{type}: {message}"`` exactly as a thread worker's
        failure is formatted."""
        pool = ProcessWorkerPool(1)
        bad = RunSpec(scale=6, backend="graphblas", execution="parallel")
        try:
            with pytest.raises(Exception) as local:
                ThreadWorkerPool(1).run_spec(bad.to_dict(), None)
            with pytest.raises(RemoteOpError) as excinfo:
                pool.run_spec(bad.to_dict(), None)
            assert excinfo.value.error_type == "ExecutorCapabilityError"
            assert str(excinfo.value) == (
                f"{type(local.value).__name__}: {local.value}"
            )
            # The pool survives a job failure: the worker is reusable.
            payload, _ = pool.run_spec(SPEC.to_dict(), None)
            assert payload["rank_sha256"]
            assert pool.stats() == {
                "workers_spawned": 1, "workers_crashed": 0,
            }
        finally:
            pool.shutdown()


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_worker_pool("thread", 1), ThreadWorkerPool)
        pool = make_worker_pool("process", 1)
        assert isinstance(pool, ProcessWorkerPool)
        pool.shutdown()
        assert set(WORKER_KINDS) == {"thread", "process", "remote"}

    def test_remote_kind(self):
        from repro.service.remote import RemoteWorkerPool

        pool = make_worker_pool("remote", 1, port=0)
        try:
            assert isinstance(pool, RemoteWorkerPool)
            assert pool.address[1] > 0
        finally:
            pool.shutdown()

    def test_remote_options_refused_for_local_kinds(self):
        with pytest.raises(ValueError, match="remote"):
            make_worker_pool("thread", 1, heartbeat_timeout=5.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="worker_kind"):
            make_worker_pool("fiber", 1)
