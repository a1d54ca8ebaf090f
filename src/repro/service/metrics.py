"""Service metrics: counters, histograms, and the Prometheus text view.

The benchmark service exposes ``GET /metrics`` in the Prometheus text
exposition format (version 0.0.4) so a scraper — or a plain ``curl`` —
can watch job throughput, queue depth, worker churn, cache behaviour,
and per-kernel latency without touching the job API.  The state model
is standard Prometheus practice: counters and histograms accumulate
from service start and reset on restart (rate queries difference them),
while gauges (queue depth, jobs by state) are read live at scrape time.

:class:`ServiceMetrics` owns the accumulating half; the service feeds
it one terminal result payload per finished job
(:meth:`ServiceMetrics.record_job`) and supplies the live gauges at
render time.  Everything is stdlib — no prometheus_client dependency.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Sequence

#: Per-kernel wall-seconds histogram bucket upper bounds.  Static —
#: Prometheus buckets must never change between scrapes — and spanning
#: the repo's realistic kernel range (sub-10ms cache reads to
#: half-minute large-scale sorts); +Inf is implicit.
KERNEL_SECONDS_BUCKETS = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
)


class _Histogram:
    """One cumulative histogram: bucket counts plus sum and count."""

    def __init__(self, buckets: Sequence[float]) -> None:
        self.bounds = tuple(buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # last slot: +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Per-bucket *cumulative* counts (``le`` semantics), +Inf last."""
        out: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


class ServiceMetrics:
    """Accumulating service counters, fed one finished job at a time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs_finished: Dict[str, int] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._shm_bytes_saved = 0
        self._kernel_seconds: Dict[str, _Histogram] = {}
        self._requeues = 0

    def record_requeue(self) -> None:
        """One in-flight job requeued after its worker was lost."""
        with self._lock:
            self._requeues += 1

    def record_job(
        self, state: str, payload: Optional[Mapping[str, object]]
    ) -> None:
        """Fold one terminal job into the counters.

        ``payload`` is the job's result document (may be ``None`` for
        failures/cancellations): the ``observability`` summary the
        worker computed plus the per-kernel ``records`` feed the cache,
        shm, and latency series.
        """
        with self._lock:
            self._jobs_finished[state] = self._jobs_finished.get(state, 0) + 1
            if not payload:
                return
            summary = payload.get("observability") or {}
            self._cache_hits += int(summary.get("cache_hits", 0))
            self._cache_misses += int(summary.get("cache_misses", 0))
            self._shm_bytes_saved += int(summary.get("shm_bytes_saved", 0))
            for record in payload.get("records") or []:
                kernel = record.get("kernel")
                seconds = record.get("seconds")
                if kernel is None or seconds is None:
                    continue
                histogram = self._kernel_seconds.get(kernel)
                if histogram is None:
                    histogram = self._kernel_seconds[kernel] = _Histogram(
                        KERNEL_SECONDS_BUCKETS
                    )
                histogram.observe(float(seconds))

    # ------------------------------------------------------------------
    def render(
        self,
        *,
        jobs_by_state: Mapping[str, int],
        queue_depth: int,
        worker_stats: Mapping[str, int],
        worker_detail: Optional[Sequence[Mapping[str, object]]] = None,
    ) -> str:
        """The Prometheus text exposition document.

        Live gauges come from the caller (the service reads them under
        its own lock at scrape time); accumulated series come from this
        object.
        """
        with self._lock:
            lines: List[str] = []

            def header(name: str, kind: str, help_text: str) -> None:
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")

            header("repro_jobs", "gauge", "Jobs known to the service, by state.")
            for state in sorted(jobs_by_state):
                lines.append(
                    f'repro_jobs{{state="{state}"}} {jobs_by_state[state]}'
                )
            header("repro_jobs_finished_total", "counter",
                   "Jobs that reached a terminal state since service start.")
            for state in sorted(self._jobs_finished):
                lines.append(
                    f'repro_jobs_finished_total{{state="{state}"}} '
                    f"{self._jobs_finished[state]}"
                )
            header("repro_queue_depth", "gauge",
                   "Jobs submitted but not yet dispatched to a worker.")
            lines.append(f"repro_queue_depth {queue_depth}")
            header("repro_workers_spawned_total", "counter",
                   "Worker processes started (including crash respawns).")
            lines.append(
                f"repro_workers_spawned_total "
                f"{worker_stats.get('workers_spawned', 0)}"
            )
            header("repro_workers_crashed_total", "counter",
                   "Worker processes that died mid-job and were replaced.")
            lines.append(
                f"repro_workers_crashed_total "
                f"{worker_stats.get('workers_crashed', 0)}"
            )
            header("repro_jobs_requeued_total", "counter",
                   "In-flight jobs requeued after their worker was lost "
                   "(process crash or remote heartbeat/connection loss).")
            lines.append(f"repro_jobs_requeued_total {self._requeues}")
            if "workers_connected" in worker_stats:
                # Remote-pool churn gauges: only rendered when the pool
                # actually tracks connections, so local-kind scrapes
                # stay unchanged.
                header("repro_remote_workers_connected", "gauge",
                       "Remote worker agents currently registered.")
                lines.append(
                    f"repro_remote_workers_connected "
                    f"{worker_stats['workers_connected']}"
                )
                header("repro_remote_registrations_rejected_total",
                       "counter",
                       "Connections dropped before a valid register "
                       "frame (port scans, protocol garbage).")
                lines.append(
                    f"repro_remote_registrations_rejected_total "
                    f"{worker_stats.get('registrations_rejected', 0)}"
                )
                header("repro_remote_results_dropped_total", "counter",
                       "Worker results discarded for want of a matching "
                       "in-flight dispatch (stale seq after a requeue).")
                lines.append(
                    f"repro_remote_results_dropped_total "
                    f"{worker_stats.get('results_dropped', 0)}"
                )
            if worker_detail:
                header("repro_worker_info", "gauge",
                       "One series per connected worker: kind, "
                       "transport, and host ride as labels.")
                for row in worker_detail:
                    lines.append(
                        f'repro_worker_info{{worker="{row.get("worker")}",'
                        f'kind="{row.get("kind")}",'
                        f'transport="{row.get("transport")}",'
                        f'host="{row.get("host")}"}} 1'
                    )
                header("repro_worker_heartbeat_age_seconds", "gauge",
                       "Seconds since each connected worker's last "
                       "heartbeat at scrape time.")
                for row in worker_detail:
                    age = row.get("heartbeat_age_s")
                    if isinstance(age, (int, float)):
                        lines.append(
                            f"repro_worker_heartbeat_age_seconds"
                            f'{{worker="{row.get("worker")}"}} {age}'
                        )
            header("repro_artifact_cache_probes_total", "counter",
                   "Artifact-cache probes by finished jobs, by outcome.")
            lines.append(
                f'repro_artifact_cache_probes_total{{outcome="hit"}} '
                f"{self._cache_hits}"
            )
            lines.append(
                f'repro_artifact_cache_probes_total{{outcome="miss"}} '
                f"{self._cache_misses}"
            )
            probes = self._cache_hits + self._cache_misses
            header("repro_artifact_cache_hit_ratio", "gauge",
                   "Cache hits over probes across finished jobs (0 when "
                   "no probes yet).")
            ratio = self._cache_hits / probes if probes else 0.0
            lines.append(f"repro_artifact_cache_hit_ratio {ratio}")
            header("repro_shm_bytes_saved_total", "counter",
                   "Payload bytes the shared-memory shard plane kept off "
                   "worker pipes.")
            lines.append(
                f"repro_shm_bytes_saved_total {self._shm_bytes_saved}"
            )
            header("repro_kernel_seconds", "histogram",
                   "Per-kernel wall seconds across finished jobs.")
            for kernel in sorted(self._kernel_seconds):
                histogram = self._kernel_seconds[kernel]
                cumulative = histogram.cumulative()
                for bound, count in zip(histogram.bounds, cumulative):
                    lines.append(
                        f'repro_kernel_seconds_bucket{{kernel="{kernel}",'
                        f'le="{bound}"}} {count}'
                    )
                lines.append(
                    f'repro_kernel_seconds_bucket{{kernel="{kernel}",'
                    f'le="+Inf"}} {cumulative[-1]}'
                )
                lines.append(
                    f'repro_kernel_seconds_sum{{kernel="{kernel}"}} '
                    f"{histogram.total}"
                )
                lines.append(
                    f'repro_kernel_seconds_count{{kernel="{kernel}"}} '
                    f"{histogram.count}"
                )
            return "\n".join(lines) + "\n"
