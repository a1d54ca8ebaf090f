"""The service-jobs workload: a closed-loop HTTP client against a
``repro-pipeline serve --worker-kind process --workers 2`` subprocess.

One client thread keeps two jobs outstanding (``POST /jobs`` then
``GET /jobs/<id>`` every 5 ms), because sweep clients wait for their
cells: a slow service receives less load.  Jobs cycle three small
scales with distinct seeds and ``cache_policy="off"``, so kernel work
is tens of milliseconds and the HTTP front end, job store, scheduler
threads and worker pipes are a large share of each job's latency.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from common import SRC, Sizes, Workload, peak_rss_mib, percentile
from spans import SpanRecorder

OUTSTANDING = 2
POLL_SECONDS = 0.005
TERMINAL = ("succeeded", "failed", "cancelled")


@dataclass
class JobTrace:
    job_id: str
    spec: Dict[str, object]
    posted: float
    done: float = 0.0
    polls: int = 0
    status: Dict[str, object] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.done - self.posted


class ServiceWorkload(Workload):
    name = "service-jobs"

    def __init__(self, seed: int, seconds: float, sizes: Sizes,
                 scratch: Path) -> None:
        super().__init__(seed, seconds, sizes, scratch)
        self.server: Optional[subprocess.Popen] = None
        self.port = 0
        self.store = scratch / "jobs.jsonl"
        self._specs = self._spec_stream()
        self.recorder: Optional[SpanRecorder] = None
        self.requests = 0

    # -- inputs ----------------------------------------------------------
    def _spec(self, index: int = 0, **changes: object):
        """Job ``index`` of this seed: a small cold scipy run (scales
        cycle, seeds are distinct so nothing deduplicates)."""
        from repro.api import RunSpec

        scales = self.sizes.job_scales
        fields: Dict[str, object] = dict(
            scale=scales[index % len(scales)],
            seed=self.seed * 100_000 + index, edge_factor=16, num_files=4,
            file_format="tsv", backend="scipy", validation="off",
            cache_policy="off")
        fields.update(changes)
        return RunSpec(**fields)

    def _spec_stream(self) -> Iterator[Dict[str, object]]:
        index = 0
        while True:
            yield self._spec(index).to_dict()
            index += 1

    # -- HTTP ------------------------------------------------------------
    def http(self, method: str, path: str, body: object = None,
             span: Optional[str] = None, **args: object):
        """One request on its own connection (the server speaks
        HTTP/1.0); returns ``(status, parsed JSON or text)``."""
        self.requests += 1
        payload = None if body is None else json.dumps(body).encode("utf-8")
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=60)
        traced = span is not None and self.recorder is not None
        with self.recorder.span(span, **args) if traced else nullcontext():
            try:
                connection.request(
                    method, path, body=payload,
                    headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                data = response.read()
            finally:
                connection.close()
        kind = response.getheader("Content-Type") or ""
        if kind.startswith("application/json"):
            return response.status, json.loads(data.decode("utf-8"))
        return response.status, data.decode("utf-8")

    def closed_loop(self, at_least: int, seconds: float) -> List[JobTrace]:
        """Keep OUTSTANDING jobs in flight until ``at_least`` jobs were
        submitted and ``seconds`` have passed, then drain.  Returns the
        finished jobs."""
        waiting: Dict[str, JobTrace] = {}
        finished: List[JobTrace] = []
        submitted = 0
        started = time.perf_counter()
        while True:
            while len(waiting) < OUTSTANDING and (
                    submitted < at_least
                    or time.perf_counter() - started < seconds):
                spec = next(self._specs)
                posted = time.perf_counter()
                status, reply = self.http(
                    "POST", "/jobs", {"spec": spec},
                    span="service.httpd.post_jobs", job=submitted)
                submitted += 1
                self.attempted += 1
                if status != 202:
                    self.failed += 1
                    self.notes.append(f"POST /jobs -> {status}: {reply}")
                    continue
                waiting[reply["job_id"]] = JobTrace(
                    reply["job_id"], spec, posted)
            if not waiting:
                break
            progressed = False
            for job in list(waiting.values()):
                _, status = self.http(
                    "GET", f"/jobs/{job.job_id}",
                    span="service.httpd.get_job", job_id=job.job_id)
                job.polls += 1
                if status["state"] in TERMINAL:
                    job.done = time.perf_counter()
                    job.status = status
                    finished.append(waiting.pop(job.job_id))
                    progressed = True
                    if status["state"] != "succeeded":
                        self.failed += 1
                        self.notes.append(
                            f"job {job.job_id} {status['state']}: "
                            f"{status.get('error')}")
            if not progressed:
                time.sleep(POLL_SECONDS)
        return finished

    # -- lifecycle -------------------------------------------------------
    def setup(self) -> None:
        """Spawn the service and run the first warm-up job through it."""
        self.scratch.mkdir(parents=True, exist_ok=True)
        log = open(self.scratch / "serve.log", "wb")
        try:
            self.server = subprocess.Popen(
                [sys.executable, "-c",
                 "from repro.cli.main import main; raise SystemExit(main())",
                 "serve", "--worker-kind", "process", "--workers", "2",
                 "--port", "0", "--store", str(self.store),
                 "--cache-dir", str(self.scratch / "service-cache")],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=subprocess.PIPE, stderr=log)
        finally:
            log.close()
        line = self.server.stdout.readline().decode("utf-8")
        if "serving on http://" not in line:
            raise RuntimeError(f"serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.closed_loop(1, 0.0)
        if self.failed:
            log_tail = (self.scratch / "serve.log").read_text(
                encoding="utf-8", errors="replace")[-1500:]
            raise RuntimeError(
                "the service could not run its first job: "
                f"{'; '.join(self.notes)}\nserve.log:\n{log_tail}")

    def warm_up(self) -> None:
        self.closed_loop(self.sizes.warmup_jobs, 0.0)
        self.attempted = 0  # warm-up jobs are not measured operations

    def teardown(self) -> None:
        """SIGTERM is serve's graceful path: it stops its workers.  (The
        parent kills this process's whole group afterwards, so a worker
        that outlived a hung serve cannot be left behind.)"""
        server, self.server = self.server, None
        if server is None:
            return
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=20)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()

    # -- checks ----------------------------------------------------------
    def scrape(self) -> Dict[str, float]:
        """Unlabelled samples and ``name{labels}`` samples of /metrics."""
        _, text = self.http("GET", "/metrics")
        samples: Dict[str, float] = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return samples

    def verify(self, finished: List[JobTrace]) -> bool:
        """Every n-th job's digest equals an in-process run of its spec;
        the service lost no worker and requeued nothing."""
        from repro.api import RunSpec, execute_spec

        ok = True
        for job in finished[::self.sizes.digest_every]:
            _, result = self.http("GET", f"/jobs/{job.job_id}/result")
            local = execute_spec(RunSpec.from_dict(job.spec)).rank_digest
            if result.get("rank_sha256") != local:
                self.notes.append(f"job {job.job_id} digest differs")
                ok = False
        samples = self.scrape()
        for counter in ("repro_workers_crashed_total",
                        "repro_jobs_requeued_total"):
            if samples.get(counter, 0.0) != 0.0:
                self.notes.append(f"{counter} = {samples[counter]}")
                ok = False
        return ok

    @staticmethod
    def _typical_latency(jobs: List[JobTrace]) -> float:
        """Mean over the job scales of the median submit→done latency
        at that scale.  The plain median of the mix sits wherever the
        middle scale's cluster happens to be cut and spreads 2-3x more
        from run to run."""
        by_scale: Dict[object, List[float]] = {}
        for job in jobs:
            by_scale.setdefault(job.spec["scale"], []).append(job.latency)
        return statistics.mean(
            statistics.median(latencies) for latencies in by_scale.values())

    def _window_samples(self, finished: List[JobTrace]) -> Tuple[
            List[float], List[float]]:
        """Typical latency and completions per second over every window
        of ten cycles of the job scales (sliding one cycle at a time),
        so that a run yields samples, not one mean that a two-second
        stall of the host drags along."""
        step = len(self.sizes.job_scales)
        window = min(10 * step, len(finished) - 1)
        by_post = sorted(finished, key=lambda job: job.posted)
        latency = [self._typical_latency(by_post[i:i + window])
                   for i in range(0, len(finished) - window + 1, step)]
        done = sorted(job.done for job in finished)
        rate = [window / (done[i + window] - done[i])
                for i in range(0, len(finished) - window, step)]
        return latency, rate

    def _k3_edges(self, finished: List[JobTrace]) -> int:
        return sum(
            int(j.spec["iterations"]) * int(j.spec["edge_factor"])
            * (1 << int(j.spec["scale"])) for j in finished)

    # -- end-to-end pass -------------------------------------------------
    def timed(self) -> Dict[str, object]:
        self.warm_up()
        k3_sum = 'repro_kernel_seconds_sum{kernel="k3-pagerank"}'
        before = self.scrape()[k3_sum]
        finished = self.closed_loop(self.sizes.min_jobs, self.seconds)
        k3_seconds = self.scrape()[k3_sum] - before
        peak_rss_mb = peak_rss_mib()  # before the checks add their own
        if len(finished) < 2:
            raise RuntimeError(f"no job finished: {self.notes}")
        latency, rate = self._window_samples(finished)
        return self.report(
            self.verify(finished),
            samples={
                "run_wall_s": latency,
                "jobs_per_s": rate,
                "k3_edges_per_s": [self._k3_edges(finished) / k3_seconds],
            },
            peak_rss_mb=peak_rss_mb)

    # -- per-layer pass --------------------------------------------------
    def layer_pass(self, trace_path: Path) -> Dict[str, object]:
        self.warm_up()
        self.recorder = recorder = SpanRecorder()
        with recorder.span("layer-pass", workload=self.name):
            self.requests = 0
            with recorder.span("closed-loop", jobs=self.sizes.layer_jobs):
                finished = self.closed_loop(self.sizes.layer_jobs, 0.0)
            requests = self.requests
            for _ in range(self.sizes.probe_repeats * 4):
                self.http("GET", "/healthz", span="service.httpd.healthz")
                self.http("GET", "/metrics", span="service.httpd.metrics")
            latencies = [j.latency for j in finished]
            waits = [j.status["started_at"] - j.status["submitted_at"]
                     for j in finished]
            runs = [j.status["finished_at"] - j.status["started_at"]
                    for j in finished]
            samples = self.scrape()
            metrics: Dict[str, float] = {
                "bench.traced_run_wall_s": self._typical_latency(finished),
                "service.httpd.post_jobs_ms_p50":
                    recorder.median("service.httpd.post_jobs") * 1e3,
                "service.httpd.get_job_ms_p50":
                    recorder.median("service.httpd.get_job") * 1e3,
                "service.httpd.healthz_ms":
                    recorder.median("service.httpd.healthz") * 1e3,
                "service.httpd.metrics_ms":
                    recorder.median("service.httpd.metrics") * 1e3,
                "service.httpd.requests": requests,
                "service.httpd.polls_per_job":
                    sum(j.polls for j in finished) / len(finished),
                "service.service.queue_wait_ms_p50":
                    statistics.median(waits) * 1e3,
                "service.service.run_ms_p50": statistics.median(runs) * 1e3,
                "service.service.job_latency_p50_s":
                    statistics.median(latencies),
                "service.service.job_latency_p95_s":
                    percentile(latencies, 0.95),
                "service.service.jobs_finished": samples[
                    'repro_jobs_finished_total{state="succeeded"}'],
                "service.service.requeued":
                    samples["repro_jobs_requeued_total"],
                "service.pool.workers_crashed":
                    samples["repro_workers_crashed_total"],
            }
            with recorder.span("verify"):
                ok = self.verify(finished)
            self.teardown()  # the store is complete; free both cores
            self.recorder = None
            ok = self._store_probes(recorder, metrics) and ok
            ok = self._service_probes(recorder, metrics) and ok
            ok = self._pool_probes(recorder, metrics) and ok
            self._framing_probes(recorder, metrics)
        recorder.write_chrome_trace(trace_path)
        return self.report(ok, metrics=metrics,
                           self_seconds=recorder.self_seconds())

    def _small_spec(self, index: int = 0, **changes: object):
        return self._spec(index, **{
            "scale": self.sizes.job_scales[0], **changes})

    def _extra_over_direct(self, recorder, name: str, operation,
                           pairs: int) -> float:
        """Median seconds by which ``operation(spec index)`` (under a
        span called ``name``) exceeds a direct ``execute_spec`` of the
        same small spec made right before it.  Paired, because both
        halves then sample the same stretch of machine time: the
        difference of two separately taken medians is mostly weather."""
        from repro.api import execute_spec

        extra = []
        for index in range(pairs):
            with recorder.span("direct") as direct:
                execute_spec(self._small_spec(index))
            with recorder.span(name) as span:
                operation(index)
            extra.append(span.seconds - direct.seconds)
        return statistics.median(extra)

    def _store_probes(self, recorder, metrics) -> bool:
        """service.jobs: replay and compact the timed loop's own store,
        append to a fresh one."""
        from repro.service.jobs import JobStore, load_events

        with recorder.span("service.jobs.replay"):
            events = load_events(self.store)
        metrics["service.jobs.replay_events_per_s"] = (
            len(events) / recorder.median("service.jobs.replay"))
        metrics["service.jobs.store_bytes"] = self.store.stat().st_size
        with recorder.span("service.jobs.compact"):
            JobStore(self.store).compact()
        metrics["service.jobs.compact_s"] = recorder.median(
            "service.jobs.compact")
        count = self.sizes.store_events
        store = JobStore(self.scratch / "append.jsonl")
        payload = {"job_id": "job-000001", "spec_hash": "0" * 24}
        with recorder.span("service.jobs.append", events=count):
            for _ in range(count):
                store.append("running", payload)
        metrics["service.jobs.append_us"] = (
            recorder.median("service.jobs.append") / count * 1e6)
        return len(load_events(store.path)) == count

    def _service_probes(self, recorder, metrics) -> bool:
        """service.service and api.spec, in this process on thread
        workers: submit→result against direct calls, a sweep over a
        shared cache, in-flight dedup, /metrics rendering."""
        from repro.api import RunSpec, SweepSpec
        from repro.service import BenchmarkService

        ok = True
        repeats = self.sizes.probe_repeats
        service = BenchmarkService(
            workers=2, worker_kind="thread",
            cache_dir=self.scratch / "sweep-cache")
        try:
            metrics["service.service.submit_result_ms"] = 1e3 * (
                self._extra_over_direct(
                    recorder, "service.service.submit_result",
                    lambda index: service.result(
                        service.submit(self._small_spec(index))),
                    repeats * 4))
            sweep = SweepSpec(
                base=self._small_spec(cache_policy="shared"),
                scales=self.sizes.sweep_scales,
                backends=("scipy", "numpy"), repeats=2)
            with recorder.span("service.service.sweep"):
                table = service.result(service.submit_sweep(sweep))
            if len(table["cells"]) != 2 * len(self.sizes.sweep_scales):
                self.notes.append("sweep table is missing cells")
                ok = False
            slow = self._small_spec(
                repeats + 1, scale=max(self.sizes.job_scales))
            first = service.submit(slow)
            second = service.submit(slow)
            metrics["service.service.dedup_hits"] = int(first == second)
            service.result(first)
            for _ in range(repeats * 4):
                with recorder.span("service.metrics.render"):
                    service.metrics_text()
        finally:
            service.close()
        document = self._small_spec().to_dict()
        calls = 200 * repeats
        with recorder.span("api.spec.parse_hash", calls=calls):
            for _ in range(calls):
                RunSpec.from_dict(document).spec_hash()
        metrics.update({
            "service.service.sweep_wall_s":
                recorder.median("service.service.sweep"),
            "service.metrics.render_ms":
                recorder.median("service.metrics.render") * 1e3,
            "api.spec.parse_hash_us":
                recorder.median("api.spec.parse_hash") / calls * 1e6,
        })
        return ok

    def _pool_probes(self, recorder, metrics) -> bool:
        """service.pool / service.remote: small specs through each worker
        kind, each against a direct call of the same spec; the three
        kinds must agree on a digest."""
        from repro.service.agent import WorkerAgent
        from repro.service.pool import ProcessWorkerPool, ThreadWorkerPool
        from repro.service.remote import RemoteWorkerPool

        digests = {}
        extra_ms = {}

        def dispatch(kind: str, pool) -> None:
            with recorder.span(f"{kind}:first"):
                pool.run_spec(self._small_spec().to_dict(), None)

            def run(index: int) -> None:
                payload, _ = pool.run_spec(
                    self._small_spec(index).to_dict(), None)
                if index == 0:
                    digests[kind] = payload["rank_sha256"]

            extra_ms[kind] = 1e3 * self._extra_over_direct(
                recorder, f"{kind}:dispatch", run,
                self.sizes.probe_repeats * 4)

        pool = ThreadWorkerPool(1)
        try:
            dispatch("thread", pool)
        finally:
            pool.shutdown()
        pool = ProcessWorkerPool(1)
        try:
            dispatch("process", pool)
        finally:
            pool.shutdown()
        pool = RemoteWorkerPool(1, heartbeat_timeout=30.0)
        host, port = pool.address
        agent = WorkerAgent(host, port, worker_id="bench-agent", quiet=True)
        thread = threading.Thread(target=agent.run, daemon=True)
        try:
            with recorder.span("service.remote.register"):
                thread.start()
                while pool.stats()["workers_connected"] < 1:
                    time.sleep(0.001)
            dispatch("remote", pool)
        finally:
            pool.shutdown()
            agent.stop()
            thread.join(timeout=10)
        metrics.update({
            "service.pool.thread_dispatch_ms": extra_ms["thread"],
            "service.pool.process_dispatch_ms": extra_ms["process"],
            "service.pool.process_spawn_s":
                recorder.median("process:first")
                - recorder.median("process:dispatch"),
            "service.remote.dispatch_ms": extra_ms["remote"],
            "service.remote.register_s":
                recorder.median("service.remote.register"),
        })
        if len(set(digests.values())) != 1 or thread.is_alive():
            self.notes.append(f"worker kinds disagree or agent hung: {digests}")
            return False
        return True

    def _framing_probes(self, recorder, metrics) -> None:
        """service.framing: documents echoed over a socketpair by a
        second thread."""
        from repro.service.framing import FrameChannel

        left, right = socket.socketpair()
        near, far = FrameChannel(left), FrameChannel(right)

        def echo() -> None:
            while True:
                document = far.recv()
                if document is None:
                    return
                far.send(document)

        thread = threading.Thread(target=echo, daemon=True)
        thread.start()
        try:
            for label, size, trips in (("1k", 1 << 10, 500),
                                       ("1m", 1 << 20, 10)):
                document = {"blob": "x" * size}
                with recorder.span(f"service.framing.{label}", trips=trips):
                    for _ in range(trips):
                        near.send(document)
                        near.recv()
                seconds = recorder.median(f"service.framing.{label}")
                if label == "1k":
                    metrics["service.framing.roundtrip_us_1k"] = (
                        seconds / trips * 1e6)
                else:
                    metrics["service.framing.mb_per_s_1m"] = (
                        2 * trips * size / 1e6 / seconds)
        finally:
            near.close()
            thread.join(timeout=10)
            far.close()
