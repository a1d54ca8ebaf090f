"""RemoteWorkerPool + WorkerAgent: parity, partitions, no double-completion.

The agents here run as *threads* against an in-process pool listener —
the TCP stack is real, only the process boundary is elided (the
integration suite and CI's remote serve leg cover real agent
processes).  Short heartbeat timeouts keep the partition scenarios
fast and deterministic.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.api import RunSpec
from repro.service.agent import WorkerAgent
from repro.core.procpool import RemoteOpError, WorkerCrashError
from repro.service.remote import RemoteWorkerPool

from tests.unit.test_worker_pool import SPEC, _comparable


def start_agent(pool, **kwargs):
    """A thread-hosted agent dialed at the pool's listener."""
    host, port = pool.address
    kwargs.setdefault("quiet", True)
    kwargs.setdefault("reconnect_delay", 0.1)
    agent = WorkerAgent(host, port, **kwargs)
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    return agent, thread


def wait_connected(pool, count, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pool.stats()["workers_connected"] >= count:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"expected {count} connected workers, have "
        f"{pool.stats()['workers_connected']}"
    )


class TestParity:
    def test_remote_payload_bit_identical_to_thread(self):
        """The acceptance bar for the transport: a spec shipped over
        TCP returns the same result document (rank digest, records
        modulo timing) as in-process execution."""
        from repro.service.pool import ThreadWorkerPool

        pool = RemoteWorkerPool(1, heartbeat_timeout=10.0)
        agent, thread = start_agent(pool, worker_id="parity-1")
        try:
            via_remote, outcome = pool.run_spec(SPEC.to_dict(), None)
            assert outcome is None  # the rank vector stays in the agent
            via_thread, _ = ThreadWorkerPool(1).run_spec(SPEC.to_dict(), None)
            assert _comparable(via_remote) == _comparable(via_thread)
            # Dispatch provenance rides in the payload for /healthz and
            # trace grafting.
            assert via_remote["remote"]["worker_id"] == "parity-1"
            assert via_remote["remote"]["transport"] == "tcp"
        finally:
            pool.shutdown()
            thread.join(timeout=5)

    def test_job_error_carries_original_type_name(self):
        pool = RemoteWorkerPool(1, heartbeat_timeout=10.0)
        agent, thread = start_agent(pool)
        bad = RunSpec(scale=6, backend="graphblas", execution="parallel")
        try:
            with pytest.raises(RemoteOpError) as excinfo:
                pool.run_spec(bad.to_dict(), None)
            assert excinfo.value.error_type == "ExecutorCapabilityError"
            # The session survives a job failure: the agent is reusable.
            payload, _ = pool.run_spec(SPEC.to_dict(), None)
            assert payload["rank_sha256"]
        finally:
            pool.shutdown()
            thread.join(timeout=5)

    def test_duplicate_worker_ids_are_disambiguated(self):
        pool = RemoteWorkerPool(2, heartbeat_timeout=10.0)
        _, t1 = start_agent(pool, worker_id="twin")
        wait_connected(pool, 1)
        _, t2 = start_agent(pool, worker_id="twin")
        wait_connected(pool, 2)
        try:
            names = {row["worker"] for row in pool.workers_view()}
            assert names == {"twin", "twin~2"}
        finally:
            pool.shutdown()
            t1.join(timeout=5)
            t2.join(timeout=5)


class TestPartitions:
    def test_worker_killed_mid_job_fails_with_crash_error(self):
        """Socket death mid-job = WorkerCrashError (the requeue
        currency), and a reconnecting agent resumes service."""
        pool = RemoteWorkerPool(1, heartbeat_timeout=10.0)
        agent, thread = start_agent(pool, worker_id="victim",
                                    job_delay=30.0, max_reconnects=0)
        wait_connected(pool, 1)
        try:
            started = threading.Event()
            failure = []

            def dispatch():
                started.set()
                try:
                    pool.run_spec(SPEC.to_dict(), None, job_id="job-k")
                except WorkerCrashError as exc:
                    failure.append(exc)

            runner = threading.Thread(target=dispatch, daemon=True)
            runner.start()
            started.wait()
            # Wait until the job is actually in flight on the worker.
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if any(r["job_id"] == "job-k" for r in pool.workers_view()):
                    break
                time.sleep(0.02)
            agent.stop()  # slam the socket shut mid-job (SIGKILL stand-in)
            runner.join(timeout=10)
            assert failure, "dispatch did not fail on worker death"
            assert "lost mid-job" in str(failure[0])
            assert pool.stats()["workers_crashed"] == 1
            # A fresh agent (a reconnect is a fresh registration) takes
            # the next dispatch.
            _, t2 = start_agent(pool, worker_id="replacement")
            payload, _ = pool.run_spec(SPEC.to_dict(), None)
            assert payload["remote"]["worker_id"] == "replacement"
        finally:
            pool.shutdown()
            thread.join(timeout=5)

    def test_heartbeat_timeout_loses_slow_worker_without_double_completion(self):
        """A worker that is alive but not beating is declared lost; its
        job requeues, and the result it eventually produces is dropped
        (counted), never double-completed."""
        # Agent heartbeats every 60s against a 0.5s deadline: guaranteed
        # to miss while remaining fully alive and busy.
        pool = RemoteWorkerPool(1, heartbeat_timeout=0.5)
        agent, thread = start_agent(
            pool, worker_id="slow", heartbeat_interval=60.0,
            job_delay=1.5, max_reconnects=0,
        )
        wait_connected(pool, 1)
        try:
            with pytest.raises(WorkerCrashError, match="heartbeat timeout"):
                pool.run_spec(SPEC.to_dict(), None, job_id="job-slow")
            # The agent is still computing; give it time to finish and
            # try to deliver into the closed channel.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if agent.jobs_completed or agent.jobs_failed:
                    break
                time.sleep(0.05)
            stats = pool.stats()
            assert stats["workers_crashed"] == 1
            # The late result found no channel (socket closed at loss) —
            # either way results_dropped stays consistent with exactly
            # zero settled dispatches.
            assert stats["results_dropped"] == 0
        finally:
            pool.shutdown()
            thread.join(timeout=5)

    def test_torn_frame_loses_the_worker_not_the_pool(self):
        """A connection spewing garbage is cut; registered workers and
        later registrations are unaffected."""
        pool = RemoteWorkerPool(2, heartbeat_timeout=10.0)
        _, thread = start_agent(pool, worker_id="healthy")
        wait_connected(pool, 1)
        try:
            # A torn peer: registers properly, then violates framing.
            raw = socket.create_connection(pool.address, timeout=5)
            from repro.service.framing import FrameChannel

            torn = FrameChannel(raw)
            torn.send({"type": "register", "worker_id": "torn", "pid": 0})
            assert torn.recv()["type"] == "registered"
            wait_connected(pool, 2)
            raw.sendall(struct.pack("!I", 50) + b"half a frame")
            raw.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if pool.stats()["workers_connected"] == 1:
                    break
                time.sleep(0.02)
            assert pool.stats()["workers_connected"] == 1
            assert pool.stats()["workers_crashed"] == 1
            payload, _ = pool.run_spec(SPEC.to_dict(), None)
            assert payload["remote"]["worker_id"] == "healthy"
        finally:
            pool.shutdown()
            thread.join(timeout=5)

    def test_garbage_connection_rejected_at_handshake(self):
        pool = RemoteWorkerPool(1, heartbeat_timeout=10.0)
        try:
            raw = socket.create_connection(pool.address, timeout=5)
            raw.sendall(b"GET / HTTP/1.1\r\n\r\n")  # a confused client
            raw.close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                if pool.stats()["registrations_rejected"] == 1:
                    break
                time.sleep(0.02)
            assert pool.stats()["registrations_rejected"] == 1
            assert pool.stats()["workers_connected"] == 0
        finally:
            pool.shutdown()

    def test_no_workers_times_out_with_guidance(self):
        pool = RemoteWorkerPool(1, heartbeat_timeout=10.0,
                                register_timeout=0.2)
        try:
            with pytest.raises(WorkerCrashError, match="no remote worker"):
                pool.run_spec(SPEC.to_dict(), None)
        finally:
            pool.shutdown()


class TestLifecycle:
    def test_shutdown_frame_exits_agent_cleanly(self):
        pool = RemoteWorkerPool(1, heartbeat_timeout=10.0)
        host, port = pool.address
        agent = WorkerAgent(host, port, worker_id="clean", quiet=True)
        exit_code = []
        thread = threading.Thread(
            target=lambda: exit_code.append(agent.run()), daemon=True
        )
        thread.start()
        wait_connected(pool, 1)
        pool.shutdown()
        thread.join(timeout=10)
        assert exit_code == [0]  # shutdown frame, not a torn connection

    def test_an_older_services_artifact_base_fetches_nothing(self, tmp_path):
        """A ``registered`` reply from a service that still advertises
        ``artifact_base``: the agent runs its job against its own cache
        root and sends no request to that base."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        from repro.core.artifacts import ArtifactCache
        from repro.service.framing import FrameChannel

        requests = []

        class Counting(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802
                requests.append(self.path)
                self.send_error(404)

            do_PUT = do_GET
            log_message = lambda *args: None  # noqa: E731

        http = ThreadingHTTPServer(("127.0.0.1", 0), Counting)
        threading.Thread(target=http.serve_forever, daemon=True).start()
        spec = RunSpec(scale=6, backend="numpy", cache_policy="shared")
        agent = WorkerAgent("127.0.0.1", 1, cache_dir=tmp_path, quiet=True)
        ours, theirs = socket.socketpair()
        service_end = FrameChannel(theirs)
        try:
            service_end.send({
                "type": "registered", "worker_id": "old",
                "heartbeat_interval": 3600.0,
                "artifact_base": f"http://127.0.0.1:{http.server_port}",
            })
            service_end.send({"type": "run", "seq": 1, "job_id": "j",
                              "spec": spec.to_dict()})
            service_end.send({"type": "shutdown"})
            assert agent._session(ours) == "shutdown"
            assert service_end.recv()["type"] == "register"
            reply = service_end.recv()
        finally:
            service_end.close()
            http.shutdown()
            http.server_close()
        assert reply["type"] == "result" and reply["ok"], reply
        assert "artifact_sync" not in reply["payload"]
        assert requests == []
        kinds = {entry.kind for entry in ArtifactCache(tmp_path).entries()}
        assert {"k0", "k1"} <= kinds  # its own root is where it cached

    def test_reconnect_after_service_restart(self):
        """An agent outlives the pool: when a new pool binds, the agent
        re-registers and serves again (the cross-restart path)."""
        pool = RemoteWorkerPool(1, heartbeat_timeout=10.0)
        host, port = pool.address
        agent, thread = start_agent(pool, worker_id="phoenix")
        wait_connected(pool, 1)
        pool.terminate()  # hard stop: no shutdown frame
        # Rebind on the same port so the agent's redial finds us.
        deadline = time.monotonic() + 10
        pool2 = None
        while time.monotonic() < deadline:
            try:
                pool2 = RemoteWorkerPool(
                    1, host=host, port=port, heartbeat_timeout=10.0
                )
                break
            except OSError:
                time.sleep(0.1)
        assert pool2 is not None, "could not rebind the worker port"
        try:
            wait_connected(pool2, 1)
            payload, _ = pool2.run_spec(SPEC.to_dict(), None)
            assert payload["remote"]["worker_id"] == "phoenix"
        finally:
            pool2.shutdown()
            thread.join(timeout=5)
