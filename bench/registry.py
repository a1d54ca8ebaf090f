"""Which workload's layer pass measures each per-layer metric, and which
end-to-end metric it is expected to move.

``BENCHMARK.json`` fixes every metric's name, unit and direction (its
schema has no room for more); this table — the only copy, printed by
``run.py --metrics`` — adds, per per-layer metric, the *home* workload
whose layer pass measures it and the prediction ``moves`` — "end-to-end
metric @ workload" — written down before any optimisation is measured.
A workload reports 0 for a per-layer metric whose home is elsewhere: its
layer pass does not exercise that layer.  Metrics whose home is
``PIPELINE`` come from the program's own records and are measured on
all three pipeline workloads.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from common import PIPELINE_WORKLOADS, WORKLOADS, load_manifest

SERIAL, ASYNC, WARM, SERVICE = WORKLOADS
PIPELINE = PIPELINE_WORKLOADS
COLD = (SERIAL, ASYNC)

CODEC = ("run_wall_s @ cold-serial, cold-async; not warm-cache, "
         "service-jobs")
ASYNC_WALL = "run_wall_s @ cold-async; not cold-serial"
WARM_WALL = "run_wall_s @ warm-cache; not cold-serial, cold-async"
JOBS = "jobs_per_s, run_wall_s @ service-jobs"
LATENCY = "run_wall_s @ service-jobs; not the pipeline workloads"

#: name -> (home workloads, moves)
PER_LAYER: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "bench.traced_run_wall_s": (WORKLOADS, "run_wall_s under benchmark "
                                "spans; minus run_wall_s = span overhead"),
    # cold-serial: direct calls that replay the pipeline
    "generators.generate_s": ((SERIAL,), "run_wall_s @ cold-serial, "
                              "cold-async; not warm-cache"),
    "generators.edges_per_s": ((SERIAL,), "run_wall_s @ cold-serial"),
    "edgeio.encode_s": ((SERIAL,), CODEC),
    "edgeio.encode_mb_per_s": ((SERIAL,), CODEC),
    "edgeio.decode_s": ((SERIAL,), CODEC),
    "edgeio.decode_mb_per_s": ((SERIAL,), CODEC),
    "edgeio.write_s": ((SERIAL,), CODEC),
    "edgeio.read_s": ((SERIAL,), CODEC),
    "edgeio.bytes_written": ((SERIAL,), CODEC),
    "sort.sort_s": ((SERIAL,), "run_wall_s @ cold-serial, cold-async"),
    "sort.edges_per_s": ((SERIAL,), "run_wall_s @ cold-serial, cold-async"),
    "backends.k0_s": (PIPELINE, "run_wall_s @ cold-serial"),
    "backends.k1_s": (PIPELINE, "run_wall_s @ cold-serial"),
    "backends.k2_s": (PIPELINE, "run_wall_s @ cold-serial"),
    "backends.k3_s": (PIPELINE, "k3_edges_per_s @ all; run_wall_s @ "
                      "warm-cache (most of its wall)"),
    "backends.k2_construct_s": ((SERIAL,), "run_wall_s @ cold-serial"),
    "backends.k0_edges_per_s": (PIPELINE, "run_wall_s @ cold-serial"),
    "backends.k1_edges_per_s": (PIPELINE, "run_wall_s @ cold-serial"),
    "backends.k2_edges_per_s": (PIPELINE, "run_wall_s @ cold-serial"),
    "backends.k3_edges_per_s": (PIPELINE, "k3_edges_per_s @ all"),
    "backends.k0_phase_generate_s": ((SERIAL,), "run_wall_s @ cold-serial"),
    "backends.k0_phase_write_s": ((SERIAL,), CODEC),
    "backends.k1_phase_read_s": ((SERIAL,), CODEC),
    "backends.k1_phase_sort_s": ((SERIAL,), "run_wall_s @ cold-serial"),
    "backends.k1_phase_write_s": ((SERIAL,), CODEC),
    "backends.k2_phase_read_s": ((SERIAL,), CODEC),
    "backends.k2_phase_construct_s": ((SERIAL,), "run_wall_s @ cold-serial"),
    "backends.k2_phase_filter_s": ((SERIAL,), "run_wall_s @ cold-serial"),
    "backends.k2_phase_normalize_s": ((SERIAL,), "run_wall_s @ cold-serial"),
    "pagerank.k3_iter_ms": ((SERIAL,), "k3_edges_per_s @ all; run_wall_s "
                            "@ warm-cache"),
    "pagerank.k3_nnz": ((SERIAL,), "k3_edges_per_s (work per iteration)"),
    "pagerank.k3_computed_gb_per_s": ((SERIAL,), "k3_edges_per_s @ all"),
    "pagerank.k3_bw_share": ((SERIAL,), "k3_edges_per_s headroom"),
    "machine.copy_gb_per_s": ((SERIAL,), "nothing: the machine, for "
                              "pagerank.k3_bw_share"),
    "core.executor.unattributed_s": ((SERIAL,), "run_wall_s @ cold-serial"),
    "core.executor.contracts_s": ((SERIAL,), "run_wall_s of validated "
                                  "runs; nothing timed here"),
    "core.trace.null_span_ns": ((SERIAL,), "run_wall_s @ cold-serial, "
                                "cold-async"),
    "core.trace.overhead_share": (COLD, "run_wall_s of traced runs"),
    "core.trace.spans": (COLD, "core.trace.overhead_share"),
    "cli.import_s": ((SERIAL,), "setup_s @ all"),
    "cli.run_s10_s": ((SERIAL,), "setup_s @ all"),
    # cold-async
    "core.async_executor.overlap_saved_s": ((ASYNC,), ASYNC_WALL),
    "core.async_executor.busy_s": ((ASYNC,), ASYNC_WALL),
    "core.async_executor.k0_busy_s": ((ASYNC,), ASYNC_WALL),
    "core.async_executor.k1_busy_s": ((ASYNC,), ASYNC_WALL),
    "core.async_executor.k2_busy_s": ((ASYNC,), ASYNC_WALL),
    "core.async_executor.k3_busy_s": ((ASYNC,), ASYNC_WALL),
    "core.async_executor.lane_busy_thread_s": ((ASYNC,), ASYNC_WALL),
    "core.scheduler.task_overhead_us": ((ASYNC,), ASYNC_WALL),
    "core.streaming.k2_serial_s": ((ASYNC,), ASYNC_WALL),
    "core.streaming.k2_overlap_s": ((ASYNC,), ASYNC_WALL),
    "core.lanes.prestart_s": ((ASYNC,), "run_wall_s @ cold-async once "
                              "process lanes are the default"),
    "core.lanes.dispatch_pipe_ms": ((ASYNC,), "as core.lanes.prestart_s "
                                    "(one 2^20-edge shard)"),
    "core.lanes.dispatch_shm_ms": ((ASYNC,), "as core.lanes.prestart_s "
                                   "(one 2^20-edge shard)"),
    "core.lanes.async_thread_wall_s": ((ASYNC,), "run_wall_s @ cold-async "
                                       "at scale 18: the side of the "
                                       "lane choice that is the default"),
    "core.lanes.async_proc_wall_s": ((ASYNC,), "the thread-vs-process "
                                     "lane choice at scale 18; compare "
                                     "core.lanes.async_thread_wall_s"),
    "core.lanes.async_proc_shm_wall_s": ((ASYNC,), "the pipe-vs-shm plane "
                                         "choice at scale 18"),
    "core.shmplane.create_ms": ((ASYNC,), "core.lanes.dispatch_shm_ms"),
    "core.shmplane.attach_ms": ((ASYNC,), "core.lanes.dispatch_shm_ms"),
    "core.shmplane.create_gb_per_s": ((ASYNC,),
                                      "core.lanes.dispatch_shm_ms"),
    "core.shmplane.leaked_segments": ((ASYNC,), "nothing: must be 0"),
    # warm-cache
    "core.artifacts.populate_s": ((WARM,), "setup_s @ warm-cache"),
    "core.artifacts.cache_bytes": ((WARM,), "setup_s @ warm-cache"),
    "core.artifacts.store_csr_ms": ((WARM,), "setup_s @ warm-cache"),
    "core.artifacts.dataset_hit_ms": ((WARM,), WARM_WALL),
    "core.artifacts.load_csr_ms": ((WARM,), WARM_WALL),
    "core.artifacts.key_us": ((WARM,), WARM_WALL),
    "core.artifacts.entries_ms": ((WARM,), "cache ls/prune; nothing timed"),
    "core.artifacts.hit_ratio": ((WARM,), WARM_WALL + " (expect 1.0)"),
    "core.artifacts.export_mb_per_s": ((WARM,), "nothing yet: cross-host "
                                       "sync base"),
    "core.artifacts.import_mb_per_s": ((WARM,), "nothing yet: cross-host "
                                       "sync base"),
    # service-jobs
    "service.httpd.post_jobs_ms_p50": ((SERVICE,), JOBS),
    "service.httpd.get_job_ms_p50": ((SERVICE,), JOBS),
    "service.httpd.healthz_ms": ((SERVICE,), "nothing timed; monitoring"),
    "service.httpd.metrics_ms": ((SERVICE,), "nothing timed; monitoring"),
    "service.httpd.requests": ((SERVICE,), JOBS),
    "service.httpd.polls_per_job": ((SERVICE,), JOBS),
    "service.service.queue_wait_ms_p50": ((SERVICE,), LATENCY),
    "service.service.run_ms_p50": ((SERVICE,), LATENCY),
    "service.service.job_latency_p50_s": ((SERVICE,), LATENCY),
    "service.service.job_latency_p95_s": ((SERVICE,), LATENCY),
    "service.service.submit_result_ms": ((SERVICE,), JOBS),
    "service.service.sweep_wall_s": ((SERVICE,), JOBS),
    "service.service.dedup_hits": ((SERVICE,), "nothing: must be 1"),
    "service.service.jobs_finished": ((SERVICE,), "nothing: a count"),
    "service.service.requeued": ((SERVICE,), "nothing: must be 0"),
    "service.pool.thread_dispatch_ms": ((SERVICE,), LATENCY),
    "service.pool.process_dispatch_ms": ((SERVICE,), LATENCY),
    "service.pool.process_spawn_s": ((SERVICE,), "setup_s @ service-jobs"),
    "service.pool.workers_crashed": ((SERVICE,), "nothing: must be 0"),
    "service.remote.dispatch_ms": ((SERVICE,), "run_wall_s of a "
                                   "remote-worker service; none here"),
    "service.remote.register_s": ((SERVICE,), "setup_s of a "
                                  "remote-worker service; none here"),
    "service.framing.roundtrip_us_1k": ((SERVICE,),
                                        "service.remote.dispatch_ms"),
    "service.framing.mb_per_s_1m": ((SERVICE,),
                                    "service.remote.dispatch_ms"),
    "service.jobs.append_us": ((SERVICE,), JOBS),
    "service.jobs.replay_events_per_s": ((SERVICE,), "setup_s on restart"),
    "service.jobs.store_bytes": ((SERVICE,), "setup_s on restart"),
    "service.jobs.compact_s": ((SERVICE,), "setup_s on restart"),
    "service.metrics.render_ms": ((SERVICE,), "service.httpd.metrics_ms"),
    "api.spec.parse_hash_us": ((SERVICE,), LATENCY),
}


def units() -> Dict[str, str]:
    """name -> unit for every metric ``BENCHMARK.json`` declares; raises
    when the manifest and this table name different per-layer metrics."""
    manifest = load_manifest()
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if set(declared) != set(PER_LAYER):
        raise RuntimeError(
            "BENCHMARK.json and bench/registry.py disagree on: "
            f"{sorted(set(declared) ^ set(PER_LAYER))}")
    declared.update({m["name"]: m["unit"] for m in manifest["end_to_end"]})
    return declared


def home_metrics(workload: str) -> List[str]:
    return [name for name, (homes, _) in PER_LAYER.items()
            if workload in homes]


def print_table() -> None:
    """Every declared metric: unit, direction, bound or home workloads,
    and for a per-layer metric what it should move."""
    manifest = load_manifest()
    units()  # the two tables name the same metrics
    print("end-to-end (every workload reports each):")
    for m in manifest["end_to_end"]:
        print(f"  {m['name']:<40} {m['unit']:<9} {m['better']:<7} "
              f"bound {m['bound']:.0%}")
    print("per-layer: name, unit, better, measured on -> should move")
    for m in manifest["per_layer"]:
        homes, moves = PER_LAYER[m["name"]]
        on = "all" if homes == WORKLOADS else ", ".join(homes)
        print(f"  {m['name']:<40} {m['unit']:<9} {m['better']:<7} "
              f"{on} -> {moves}")
