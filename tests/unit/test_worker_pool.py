"""Worker pools: thread/process parity and the pool factory.

The process pool's runtime (worker reuse, crash → replace, slot tokens,
terminate, shutdown) is the shared one, covered in ``test_procpool.py``.
"""

from __future__ import annotations

import json
import subprocess
import textwrap

import pytest
from procpool_ops import HAS_PROC, host

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


#: Runs one job through a process pool at module level: no
#: ``if __name__ == "__main__":`` guard, as in a ``-c`` program.
UNGUARDED_HOST = textwrap.dedent("""
    from repro.api import RunSpec
    from repro.service.pool import ProcessWorkerPool

    pool = ProcessWorkerPool(1)
    payload, _ = pool.run_spec(RunSpec(scale=6, backend="numpy").to_dict(),
                               None)
    pool.shutdown()
    print(payload["rank_sha256"])
""")

#: Runs one job through a process-worker service, then reports the
#: host's child processes, the pool's workers and the host's resource
#: tracker pid.
SERVICE_CHILDREN = textwrap.dedent("""
    import json, os
    from multiprocessing import resource_tracker
    from procpool_ops import children
    from repro.api import RunSpec
    from repro.service import BenchmarkService

    with BenchmarkService(worker_kind="process", workers=2) as service:
        service.result(service.submit(RunSpec(scale=6, backend="numpy")),
                       timeout=240)
        found = children(os.getpid())
        workers = [h.process.pid for h in service._workers._handles]
    print(json.dumps({
        "children": sorted(found), "workers": sorted(workers),
        "tracker": resource_tracker._resource_tracker._pid,
    }))
""")


def _last_line(args) -> str:
    proc = host(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err[-2000:]
    return out.splitlines()[-1]


class TestProcessHosts:
    """Any interpreter can host a process pool, and hosting one starts
    nothing but the workers."""

    def test_hosts_without_a_main_guard(self, tmp_path):
        expected = run_spec_job(SPEC.to_dict(), None)["rank_sha256"]
        assert _last_line(["-c", UNGUARDED_HOST]) == expected
        script = tmp_path / "unguarded.py"
        script.write_text(UNGUARDED_HOST, encoding="utf-8")
        assert _last_line([str(script)]) == expected

    @pytest.mark.skipif(not HAS_PROC, reason="no /proc")
    def test_service_starts_nothing_but_workers(self):
        found = json.loads(_last_line(["-c", SERVICE_CHILDREN]))
        assert len(found["workers"]) == 1  # one job, one lazy spawn
        assert found["children"] == found["workers"]
        assert found["tracker"] is None


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
