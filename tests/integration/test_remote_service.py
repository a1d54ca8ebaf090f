"""The distributed worker plane end-to-end: a remote-kind service with
real TCP agents, requeue on worker death, and observability parity.

Most tests embed agents as threads (the TCP stack is real; only the
process boundary is elided).  The SIGKILL scenario uses real
``repro-pipeline worker`` subprocesses — the exact CI remote-leg
topology — because killing a thread cannot model a dying host.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.api import RunSpec, execute_spec
from repro.core.artifacts import (
    ArtifactCache, cache_key, k0_cache_fields,
)
from repro.service import BenchmarkService, WorkerAgent, serve_in_thread
from repro.service.jobs import load_events

_SRC = str(Path(repro.__file__).resolve().parents[1])

SPEC = RunSpec(scale=6, backend="numpy", cache_policy="shared")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(url: str, doc):
    request = urllib.request.Request(
        url,
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _poll_terminal(base: str, job_id: str, timeout: float = 180.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, doc = _get(f"{base}/jobs/{job_id}")
        if doc["state"] not in ("pending", "running"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class _RemoteRig:
    """A remote-kind service + HTTP front end + N thread-hosted agents."""

    def __init__(self, tmp_path, *, agents=2, heartbeat_timeout=10.0,
                 agent_kwargs=None, shared_agent_cache=False):
        self.service = BenchmarkService(
            workers=agents,
            worker_kind="remote",
            cache_dir=tmp_path / "svc-cache",
            store_path=tmp_path / "jobs.jsonl",
            worker_listen=("127.0.0.1", 0),
            heartbeat_timeout=heartbeat_timeout,
        )
        self.server, _ = serve_in_thread(self.service, port=0)
        host, port = self.server.server_address[:2]
        self.base = f"http://{host}:{port}"
        whost, wport = self.service.worker_address
        self.agents = []
        self.threads = []
        for index in range(agents):
            cache = (
                tmp_path / "agent-cache"
                if shared_agent_cache
                else tmp_path / f"agent-cache-{index}"
            )
            agent = WorkerAgent(
                whost, wport,
                cache_dir=cache,
                worker_id=f"agent-{index}",
                quiet=True,
                reconnect_delay=0.1,
                **(agent_kwargs or {}),
            )
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            self.agents.append(agent)
            self.threads.append(thread)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if self.service._workers.stats()["workers_connected"] == agents:
                break
            time.sleep(0.02)

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.close(wait=False)
        # Without stop() the reconnect loop outlives the service by
        # design and each join just runs out its 5 s.
        for agent in self.agents:
            agent.stop()
        for thread in self.threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


@pytest.fixture()
def rig(tmp_path):
    rig = _RemoteRig(tmp_path)
    yield rig
    rig.close()


class TestRemoteParity:
    def test_run_digest_matches_inprocess_execution(self, rig):
        status, doc = _post(f"{rig.base}/jobs", {"spec": SPEC.to_dict()})
        assert status == 202
        final = _poll_terminal(rig.base, doc["job_id"])
        assert final["state"] == "succeeded", final["error"]
        _, result = _get(f"{rig.base}/jobs/{doc['job_id']}/result")
        assert result["rank_sha256"] == execute_spec(SPEC).rank_digest
        assert result["remote"]["transport"] == "tcp"
        assert result["remote"]["worker_id"].startswith("agent-")

    def test_sweep_digests_bit_identical_to_thread_kind(self, rig, tmp_path):
        """The acceptance bar: one sweep fanned across two TCP agents
        produces exactly the rank digests a thread-kind service does."""
        sweep = {
            "base": SPEC.to_dict(),
            "scales": [6, 7],
            "backends": ["numpy", "python"],
        }
        _, doc = _post(f"{rig.base}/jobs", {"sweep": sweep})
        final = _poll_terminal(rig.base, doc["job_id"], timeout=300)
        assert final["state"] == "succeeded", final["error"]
        _, remote_result = _get(f"{rig.base}/jobs/{doc['job_id']}/result")

        local = BenchmarkService(
            workers=2, worker_kind="thread",
            cache_dir=tmp_path / "thread-cache",
        )
        try:
            from repro.api import SweepSpec

            job_id = local.submit_sweep(SweepSpec.from_dict(sweep))
            deadline = time.monotonic() + 300
            while time.monotonic() < deadline:
                if local.status(job_id)["state"] not in (
                    "pending", "running"
                ):
                    break
                time.sleep(0.05)
            assert local.status(job_id)["state"] == "succeeded"
            local_result = local.result_doc(job_id)
        finally:
            local.close()

        def digests(result):
            return {
                (c["backend"], c["scale"]): c["rank_sha256"]
                for c in result["cells"]
            }

        assert digests(remote_result) == digests(local_result)
        # Every cell's child job carries remote provenance (the cells
        # really ran on TCP agents, not some local fallback).
        workers = set()
        for cell in remote_result["cells"]:
            _, child = _get(f"{rig.base}/jobs/{cell['job_id']}/result")
            workers.add(child["remote"]["worker_id"])
        assert workers <= {"agent-0", "agent-1"} and workers

    def test_traced_remote_job_grafts_worker_spans(self, rig):
        spec = SPEC.with_overrides(trace=True)
        _, doc = _post(f"{rig.base}/jobs", {"spec": spec.to_dict()})
        final = _poll_terminal(rig.base, doc["job_id"])
        assert final["state"] == "succeeded", final["error"]
        _, trace_doc = _get(f"{rig.base}/jobs/{doc['job_id']}/trace")
        names = {
            e["name"] for e in trace_doc["traceEvents"]
            if e.get("ph") == "X"
        }
        assert "worker:job" in names
        assert any(n.startswith("job:remote-dispatch:") for n in names)


class TestEntryTransport:
    def test_export_import_round_trip_and_safety(self, tmp_path):
        """The tar entry transport: a faithful round trip, and unsafe
        archives refused."""
        # A really produced entry: a run's Kernel 0 dataset.
        execute_spec(SPEC, cache_dir=tmp_path / "a")
        cache_a = ArtifactCache(tmp_path / "a")
        key = cache_key(k0_cache_fields(SPEC.to_config(None)))
        assert cache_a.published("k0", key)
        data = cache_a.export_entry("k0", key)
        assert data is not None

        cache_b = ArtifactCache(tmp_path / "b")
        assert cache_b.import_entry("k0", key, data)
        for path in cache_a.entry_dir("k0", key).iterdir():
            twin = cache_b.entry_dir("k0", key) / path.name
            assert twin.read_bytes() == path.read_bytes()
        # Re-import of a warm entry is a cheap success (rename race).
        assert cache_b.import_entry("k0", key, data)

        # Unsafe archives are refused: absolute and traversal members,
        # and archives with no marker.
        import io
        import tarfile

        def tar_of(members):
            buf = io.BytesIO()
            with tarfile.open(fileobj=buf, mode="w") as archive:
                for name, payload in members:
                    info = tarfile.TarInfo(name)
                    info.size = len(payload)
                    archive.addfile(info, io.BytesIO(payload))
            return buf.getvalue()

        bad_key = "f" * len(key)
        assert not cache_b.import_entry(
            "k0", bad_key, tar_of([("../escape.txt", b"x")])
        )
        assert not cache_b.import_entry(
            "k0", bad_key, tar_of([("/abs.txt", b"x")])
        )
        assert not cache_b.import_entry(
            "k0", bad_key, tar_of([("data.txt", b"x")])  # no marker
        )
        assert not cache_b.import_entry("k0", bad_key, b"not a tar")
        assert cache_b.export_entry("k0", bad_key) is None


class TestObservability:
    def test_healthz_reports_per_worker_rows(self, rig):
        status, doc = _get(f"{rig.base}/healthz")
        assert status == 200
        assert doc["worker_kind"] == "remote"
        assert doc["worker_transport"] == "tcp"
        assert doc["workers_connected"] == 2
        assert doc["worker_listen"] == list(rig.service.worker_address)
        assert set(doc["workers"]) == {"agent-0", "agent-1"}
        for row in doc["workers"].values():
            assert row["kind"] == "remote"
            assert row["transport"] == "tcp"
            assert isinstance(row["heartbeat_age_s"], (int, float))
            assert row["job_id"] is None  # idle

    def test_metrics_report_worker_info_and_churn(self, rig):
        with urllib.request.urlopen(
            f"{rig.base}/metrics", timeout=30
        ) as response:
            text = response.read().decode("utf-8")
        assert "repro_remote_workers_connected 2" in text
        assert 'repro_worker_info{worker="agent-0",kind="remote",' in text
        assert 'repro_worker_heartbeat_age_seconds{worker="agent-0"}' in text
        assert "repro_remote_registrations_rejected_total 0" in text
        assert "repro_jobs_requeued_total 0" in text

    def test_local_kind_healthz_unchanged(self, tmp_path):
        """Thread-kind services keep the pre-remote /healthz shape: no
        remote-only fields, idle workers report {} (compat contract)."""
        service = BenchmarkService(workers=1, worker_kind="thread")
        server, _ = serve_in_thread(service, port=0)
        try:
            host, port = server.server_address[:2]
            _, doc = _get(f"http://{host}:{port}/healthz")
            assert doc["workers"] == {}
            assert "workers_connected" not in doc
            assert "worker_listen" not in doc
            assert doc["worker_transport"] == "inline"
        finally:
            server.shutdown()
            server.server_close()
            service.close(wait=False)


class TestRequeue:
    def test_remote_worker_death_requeues_and_completes(self, tmp_path):
        """Kill the serving agent mid-job: the job requeues onto the
        surviving agent, completes with the right digest, and the store
        carries a `requeued` event naming the crash."""
        rig = _RemoteRig(
            tmp_path, agents=2, heartbeat_timeout=5.0,
        )
        try:
            # Slow down only agent 0's jobs so we know who is serving.
            rig.agents[0].job_delay = 5.0
            # Stop agent 1 so the dispatch lands on agent 0 first.
            rig.agents[1].stop()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                view = rig.service._workers.workers_view()
                if [r["worker"] for r in view] == ["agent-0"]:
                    break
                time.sleep(0.02)
            _, doc = _post(f"{rig.base}/jobs", {"spec": SPEC.to_dict()})
            job_id = doc["job_id"]
            # Wait for the dispatch to be in flight on agent 0.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                view = rig.service._workers.workers_view()
                if any(r["job_id"] == job_id for r in view):
                    break
                time.sleep(0.02)
            # Bring a healthy replacement up, then slam agent 0's socket.
            whost, wport = rig.service.worker_address
            rescue = WorkerAgent(
                whost, wport, cache_dir=tmp_path / "rescue-cache",
                worker_id="rescue", quiet=True,
            )
            t_rescue = threading.Thread(target=rescue.run, daemon=True)
            t_rescue.start()
            rig.agents[0].stop()

            final = _poll_terminal(rig.base, job_id)
            assert final["state"] == "succeeded", final["error"]
            _, result = _get(f"{rig.base}/jobs/{job_id}/result")
            assert result["rank_sha256"] == execute_spec(SPEC).rank_digest
            assert result["remote"]["worker_id"] == "rescue"

            events = load_events(rig.service.store.path)
            requeued = [
                e for e in events
                if e["event"] == "requeued" and e["job_id"] == job_id
            ]
            assert requeued, "no requeued event in the job store"
            assert "WorkerCrashError" in requeued[0]["reason"]
            assert requeued[0]["spec_hash"]

            with urllib.request.urlopen(
                f"{rig.base}/metrics", timeout=30
            ) as response:
                text = response.read().decode("utf-8")
            assert "repro_jobs_requeued_total 1" in text
        finally:
            rig.close()

    def test_process_crash_emits_requeued_event_with_reason(self, tmp_path):
        """The local process pool shares the remote path's requeue code
        and event vocabulary: kill a process worker mid-job and the
        store shows the same `requeued` shape before the job succeeds."""
        service = BenchmarkService(
            workers=1, worker_kind="process",
            store_path=tmp_path / "jobs.jsonl",
        )
        try:
            # Warm the pool, then arrange for the *next* dispatch to die.
            first = service.submit(RunSpec(scale=6, backend="numpy"))
            service.result(first)
            victim = service._workers._handles[0]

            killer_done = threading.Event()

            def kill_when_running():
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if victim.alive() and any(
                        service._running_jobs.values()
                    ):
                        victim.process.kill()
                        break
                    time.sleep(0.01)
                killer_done.set()

            slow = RunSpec(scale=11, backend="python")  # long enough to hit
            threading.Thread(target=kill_when_running, daemon=True).start()
            job_id = service.submit(slow)
            result = service.result(job_id)  # process kind: a payload doc
            killer_done.wait(timeout=30)
            assert result["rank_sha256"]  # retried on a fresh worker

            events = load_events(service.store.path)
            requeued = [
                e for e in events
                if e["event"] == "requeued" and e["job_id"] == job_id
            ]
            assert requeued, "process crash did not record a requeue"
            assert "WorkerCrashError" in requeued[0]["reason"]
            assert "died" in requeued[0]["reason"]
        finally:
            service.close(wait=False)


class TestSubprocessAgents:
    """The CI remote-leg topology with real `repro-pipeline worker`
    processes — and a real SIGKILL mid-sweep."""

    def test_sigkill_one_agent_mid_sweep_still_completes(self, tmp_path):
        service = BenchmarkService(
            workers=2, worker_kind="remote",
            cache_dir=tmp_path / "svc-cache",
            store_path=tmp_path / "jobs.jsonl",
            worker_listen=("127.0.0.1", 0),
            heartbeat_timeout=5.0,
        )
        server, _ = serve_in_thread(service, port=0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        whost, wport = service.worker_address
        procs = []
        try:
            for index in range(2):
                procs.append(subprocess.Popen(
                    [
                        sys.executable, "-m", "repro.cli.main", "worker",
                        "--connect", f"{whost}:{wport}",
                        "--cache-dir", str(tmp_path / f"agent{index}-cache"),
                        "--worker-id", f"proc-{index}",
                        "--job-delay", "0.3",
                    ],
                    env=_child_env(),
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                ))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if service._workers.stats()["workers_connected"] == 2:
                    break
                time.sleep(0.05)
            assert service._workers.stats()["workers_connected"] == 2

            sweep = {
                "base": SPEC.to_dict(),
                "scales": [6, 7],
                "backends": ["numpy", "python"],
            }
            _, doc = _post(f"{base}/jobs", {"sweep": sweep})
            job_id = doc["job_id"]
            # Let cells start flowing, then SIGKILL one agent mid-work.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                view = service._workers.workers_view()
                if any(r["job_id"] for r in view):
                    break
                time.sleep(0.02)
            os.kill(procs[0].pid, signal.SIGKILL)
            procs[0].wait(timeout=10)

            final = _poll_terminal(base, job_id, timeout=300)
            assert final["state"] == "succeeded", final["error"]
            _, result = _get(f"{base}/jobs/{job_id}/result")
            expected = {
                (cell["backend"], cell["scale"]):
                    execute_spec(SPEC.with_overrides(
                        backend=cell["backend"], scale=cell["scale"],
                    )).rank_digest
                for cell in result["cells"]
            }
            actual = {
                (cell["backend"], cell["scale"]): cell["rank_sha256"]
                for cell in result["cells"]
            }
            assert actual == expected
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            server.shutdown()
            server.server_close()
            service.close(wait=False)
