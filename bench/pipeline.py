"""The three pipeline workloads: cold-serial, cold-async, warm-cache.

All three run one graph (``backend=scipy, edge_factor=16, num_files=4,
file_format=tsv``, graph seed = ``--seed``) through
:func:`repro.api.execute_spec`; they differ only in the spec fields that
choose the executor and the cache.  ``timed()`` measures the end-to-end
metrics with tracing off; ``layer_pass()`` measures the per-layer ones
under :class:`spans.SpanRecorder` spans around direct calls into each
layer's public functions.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import SRC, Sizes, Workload, peak_rss_mib
from spans import SpanRecorder

# The share of run_wall_s the direct-call replay may leave unexplained
# on cold-serial before the layer pass fails ("numbers that add up").
UNATTRIBUTED_BUDGET = 0.15

KERNELS = ("k0-generate", "k1-sort", "k2-filter", "k3-pagerank")

_SPEC_FIELDS = {
    "cold-serial": {"execution": "serial", "cache_policy": "off"},
    "cold-async": {"execution": "async", "cache_policy": "off"},
    "warm-cache": {"execution": "serial", "cache_policy": "shared"},
}


class PipelineWorkload(Workload):
    def __init__(self, name: str, seed: int, seconds: float, sizes: Sizes,
                 scratch: Path, full_check: bool) -> None:
        super().__init__(seed, seconds, sizes, scratch)
        self.name = name
        self.full_check = full_check
        self.cache_dir: Optional[Path] = None
        self.populate_s = 0.0
        self.replay_digest = None   # cold-serial layer pass, see _replay
        self.k3_nnz = 0
        self.k3_matrix_bytes = 0

    # -- inputs ----------------------------------------------------------
    def spec(self, **changes: object):
        from repro.api import RunSpec

        fields: Dict[str, object] = dict(
            scale=self.sizes.scale, seed=self.seed, edge_factor=16,
            num_files=4, file_format="tsv", backend="scipy",
            validation="off",
        )
        fields.update(_SPEC_FIELDS[self.name])
        fields.update(changes)
        return RunSpec(**fields)

    def run(self, spec=None):
        """One operation: ``(wall seconds, outcome)``."""
        from repro.api import execute_spec

        spec = self.spec() if spec is None else spec
        started = time.perf_counter()
        outcome = execute_spec(spec, cache_dir=self.cache_dir)
        return time.perf_counter() - started, outcome

    # -- lifecycle -------------------------------------------------------
    def setup(self) -> None:
        """Imports plus warm-up; warm-cache also populates a fresh cache
        root (the cache *write* path)."""
        if self.name == "warm-cache":
            self.cache_dir = self.scratch / "cache"
            self.populate_s, _ = self.run()
            self.run()
        self.run()

    # -- end-to-end pass -------------------------------------------------
    def _timed_runs(self, at_least: int, seconds: float, recorder=None,
                    after_each=None):
        """Run the workload's spec until both ``at_least`` runs and
        ``seconds`` have passed; a run that raises counts as failed.
        ``after_each`` (a layer pass's probe) runs between runs."""
        walls: List[float] = []
        outcomes = []
        started = time.perf_counter()
        while (len(walls) < at_least
               or time.perf_counter() - started < seconds):
            self.attempted += 1
            span = (nullcontext() if recorder is None
                    else recorder.span("run", workload=self.name))
            try:
                with span:
                    wall, outcome = self.run()
            except Exception:  # noqa: BLE001 - counted, reported, not hidden
                self.failed += 1
                self.notes.append(traceback.format_exc(limit=3))
                if self.failed >= 3:
                    break
                continue
            walls.append(wall)
            outcomes.append(outcome)
            if after_each is not None:
                after_each(recorder)
        return walls, outcomes

    def _one_digest(self, outcomes) -> Optional[str]:
        """The digest every run agreed on; disagreeing runs fail."""
        digests = [o.rank_digest for o in outcomes]
        if not digests:
            return None
        agreed = max(set(digests), key=digests.count)
        wrong = sum(1 for d in digests if d != agreed)
        if wrong:
            self.failed += wrong
            self.notes.append(f"{wrong} run(s) disagree on the rank digest")
        return agreed

    def verify(self, digest: Optional[str]) -> bool:
        """The checks that need no timing.  A cold serial
        ``validation="contracts"`` run of this graph passes its
        contracts and yields the digest the timed runs agreed on (so
        cold-async and warm-cache are checked against serial); with
        ``full_check``, a ``validation="full"`` run at the check scale
        passes its eigenvector cross-check."""
        from repro.api import execute_spec

        ok = True
        reference = execute_spec(self.spec(
            execution="serial", cache_policy="off",
            validation="contracts"))
        if digest is None or reference.rank_digest != digest:
            self.notes.append(
                f"digest {digest} differs from the serial contracts "
                f"run's {reference.rank_digest}")
            ok = False
        if self.full_check:
            small = execute_spec(self.spec(
                scale=self.sizes.check_scale, validation="full"),
                cache_dir=self.cache_dir)
            if not small.result.validation["passed"]:
                self.notes.append("validation=full failed at check scale")
                ok = False
        return ok

    def timed(self) -> Dict[str, object]:
        at_least = (self.sizes.warm_runs if self.name == "warm-cache"
                    else self.sizes.min_runs)
        walls, outcomes = self._timed_runs(at_least, self.seconds)
        peak_rss_mb = peak_rss_mib()  # before the checks add their own
        digest = self._one_digest(outcomes)
        return self.report(
            self.verify(digest) and bool(walls), digest,
            samples={
                "run_wall_s": walls,
                # one spec in flight: the rate is the reciprocal
                "jobs_per_s": [1.0 / wall for wall in walls],
                "k3_edges_per_s": [
                    o.records[3].edges_per_second for o in outcomes],
            },
            peak_rss_mb=peak_rss_mb)

    # -- per-layer pass --------------------------------------------------
    def layer_pass(self, trace_path: Path) -> Dict[str, object]:
        recorder = SpanRecorder()
        with recorder.span("layer-pass", workload=self.name):
            walls, outcomes = self._timed_runs(
                self.sizes.layer_runs, 0.0, recorder,
                self._replay if self.name == "cold-serial" else None)
            digest = self._one_digest(outcomes)
            run_wall = statistics.median(walls)
            metrics = {"bench.traced_run_wall_s": run_wall,
                       **_record_metrics(outcomes)}
            layers = {
                "cold-serial": self._layers_cold_serial,
                "cold-async": self._layers_cold_async,
                "warm-cache": self._layers_warm_cache,
            }[self.name]
            ok = layers(recorder, metrics, outcomes, walls, digest)
            with recorder.span("verify"):
                ok = self.verify(digest) and ok
        recorder.write_chrome_trace(trace_path)
        return self.report(ok, digest, metrics=metrics,
                           self_seconds=recorder.self_seconds())

    def _trace_overhead(self, recorder, metrics) -> None:
        """``trace=True`` runs, each against a plain run made right
        before it (median of the paired differences: both halves of a
        pair sample the same stretch of machine time)."""
        shares = []
        for _ in range(3):
            with recorder.span("run:untraced"):
                plain, _ = self.run()
            with recorder.span("run:traced"):
                traced, outcome = self.run(self.spec(trace=True))
            shares.append((traced - plain) / plain)
        metrics["core.trace.overhead_share"] = statistics.median(shares)
        metrics["core.trace.spans"] = len(outcome.result.trace["spans"])

    # .. cold-serial: replay the pipeline as direct layer calls ..........
    def _replay(self, recorder) -> None:
        """The pipeline once more as direct calls into the backend's four
        kernels.  Interleaved with the timed runs so that both sample
        the same stretch of machine time: this host's speed shifts by
        ~15 % for tens of seconds at a time, which would otherwise show
        up as time nobody can attribute."""
        from repro.api import rank_sha256
        from repro.backends.registry import get_backend

        config = self.spec().to_config(None)
        backend = get_backend("scipy")
        base = self.scratch / "replay"
        with recorder.span("replay"):
            with recorder.span("backends.k0"):
                k0, _ = backend.kernel0(config, base / "k0")
            with recorder.span("backends.k1"):
                k1, _ = backend.kernel1(config, k0, base / "k1")
            with recorder.span("backends.k2"):
                adjacency, _ = backend.kernel2(config, k1)
            with recorder.span("backends.k3"):
                rank, _ = backend.kernel3(config, adjacency)
        shutil.rmtree(base)
        self.replay_digest = rank_sha256(rank)
        # Keep sizes, not the matrix: a large live object changes how
        # the allocator serves the next run (see README, "Steadiness").
        matrix = adjacency.matrix
        self.k3_nnz = int(matrix.nnz)
        self.k3_matrix_bytes = (matrix.data.nbytes + matrix.indices.nbytes
                                + matrix.indptr.nbytes)

    def _layers_cold_serial(self, recorder, metrics, outcomes, walls,
                            digest) -> bool:
        import numpy as np

        from repro.core import trace
        from repro.edgeio.dataset import EdgeDataset
        from repro.edgeio.format import decode_edges, encode_edges
        from repro.generators.registry import get_generator
        from repro.sort.inmemory import sort_edges

        ok = True
        self._trace_overhead(recorder, metrics)
        config = self.spec().to_config(None)
        work = self.scratch / "layers"
        num_vertices = config.num_vertices

        if self.replay_digest != digest:
            self.notes.append("direct-call replay digest differs")
            ok = False

        with recorder.span("generators.generate"):
            u, v = get_generator("kronecker")(
                config.scale, config.edge_factor, seed=config.seed)
        edges = len(u)
        with recorder.span("edgeio.encode"):
            payload = encode_edges(u, v)
        with recorder.span("edgeio.decode"):
            du, dv = decode_edges(payload)
        if not (np.array_equal(du, u) and np.array_equal(dv, v)):
            self.notes.append("decode(encode(edges)) differs from edges")
            ok = False
        with recorder.span("edgeio.write"):
            dataset = EdgeDataset.write(
                work / "edges", u, v, num_vertices=num_vertices,
                num_shards=config.num_files, fmt=config.file_format)
        with recorder.span("edgeio.read"):
            EdgeDataset.open(work / "edges").read_all()
        with recorder.span("sort.sort"):
            sort_edges(u, v, algorithm="numpy", num_vertices=num_vertices)
        del du, dv
        payload_mb = len(payload) / 1e6
        generate_s = recorder.median("generators.generate")
        metrics.update({
            "generators.generate_s": generate_s,
            "generators.edges_per_s": edges / generate_s,
            "edgeio.encode_s": recorder.median("edgeio.encode"),
            "edgeio.encode_mb_per_s":
                payload_mb / recorder.median("edgeio.encode"),
            "edgeio.decode_s": recorder.median("edgeio.decode"),
            "edgeio.decode_mb_per_s":
                payload_mb / recorder.median("edgeio.decode"),
            "edgeio.write_s": recorder.median("edgeio.write"),
            "edgeio.read_s": recorder.median("edgeio.read"),
            "edgeio.bytes_written": dataset.total_bytes(),
            "sort.sort_s": recorder.median("sort.sort"),
            "sort.edges_per_s": edges / recorder.median("sort.sort"),
        })

        kernel_s = [recorder.median(f"backends.k{i}") for i in range(4)]
        for i, seconds in enumerate(kernel_s):
            metrics[f"backends.k{i}_s"] = seconds
        metrics["backends.k2_construct_s"] = (
            kernel_s[2] - metrics["edgeio.read_s"])

        # K3 against the machine's copy bandwidth, measured in this run.
        # Bytes are computed from array sizes (CSR arrays once per
        # iteration plus the rank vector read and written), not counted.
        per_iteration = self.k3_matrix_bytes + 2 * 8 * num_vertices
        source = np.ones(self.sizes.copy_mib << 17, dtype=np.float64)
        target = np.empty_like(source)
        np.copyto(target, source)  # fault the pages in before timing
        with recorder.span("machine.copy", mib=self.sizes.copy_mib):
            np.copyto(target, source)
        copy_gb_per_s = 2 * source.nbytes / recorder.median("machine.copy") / 1e9
        del source, target
        computed = config.iterations * per_iteration / kernel_s[3] / 1e9
        metrics.update({
            "pagerank.k3_iter_ms": kernel_s[3] / config.iterations * 1e3,
            "pagerank.k3_nnz": self.k3_nnz,
            "pagerank.k3_computed_gb_per_s": computed,
            "machine.copy_gb_per_s": copy_gb_per_s,
            "pagerank.k3_bw_share": computed / copy_gb_per_s,
        })

        # Each timed run against the replay made right after it.
        run_wall = statistics.median(walls)
        replays = zip(*(recorder.seconds(f"backends.k{i}") for i in range(4)))
        unattributed = statistics.median(
            wall - sum(kernels) for wall, kernels in zip(walls, replays))
        with recorder.span("run:contracts"):
            contracts_wall, _ = self.run(self.spec(validation="contracts"))
        metrics["core.executor.unattributed_s"] = unattributed
        metrics["core.executor.contracts_s"] = contracts_wall - run_wall
        if (self.sizes.enforce_budget
                and unattributed > UNATTRIBUTED_BUDGET * run_wall):
            self.notes.append(
                f"unattributed {unattributed:.3f}s exceeds "
                f"{UNATTRIBUTED_BUDGET:.0%} of run_wall_s {run_wall:.3f}s")
            ok = False

        calls = self.sizes.null_spans
        with recorder.span("core.trace.null_span", calls=calls):
            for _ in range(calls):
                with trace.span("bench"):
                    pass
        with recorder.span("loop-baseline", calls=calls):
            for _ in range(calls):
                pass
        metrics["core.trace.null_span_ns"] = (
            recorder.median("core.trace.null_span")
            - recorder.median("loop-baseline")) / calls * 1e9

        env = {"PYTHONPATH": str(SRC)}
        for name, argv in (
            ("cli.import", ["-c", "import repro.cli.main"]),
            ("cli.run_s10", ["-c", "from repro.cli.main import main; "
                             "raise SystemExit(main(['run', '--scale', "
                             "'10', '--json']))"]),
        ):
            with recorder.span(name):
                done = subprocess.run(
                    [sys.executable, *argv], env={**os.environ, **env},
                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                    timeout=120)
            if done.returncode != 0:
                self.notes.append(f"{name}: {done.stderr.decode()[-300:]}")
                ok = False
        metrics["cli.import_s"] = recorder.median("cli.import")
        metrics["cli.run_s10_s"] = recorder.median("cli.run_s10")
        return ok

    # .. cold-async: scheduler, streaming, lanes, shm plane ..............
    def _layers_cold_async(self, recorder, metrics, outcomes, walls,
                           digest) -> bool:
        from repro.backends.registry import get_backend
        from repro.core.lanes import ProcessLanePool, run_lane_op
        from repro.core.scheduler import TaskGraph
        from repro.core.shmplane import ShardBuffer, outstanding_segments
        from repro.core.streaming import streaming_kernel2
        from repro.generators.registry import get_generator

        ok = True
        self._trace_overhead(recorder, metrics)
        segments_before = set(Path("/dev/shm").glob("psm_repro_*"))
        last = [o.results[-1].kernels[-1].details for o in outcomes]

        def med(values) -> float:
            return statistics.median(float(x) for x in values)

        metrics.update({
            "core.async_executor.overlap_saved_s":
                med(d["overlap_saved_s"] for d in last),
            "core.async_executor.busy_s":
                med(d["pipeline_busy_seconds"] for d in last),
            "core.async_executor.lane_busy_thread_s":
                med(d["lane_busy_seconds"].get("thread", 0.0) for d in last),
        })
        for i, kernel in enumerate(KERNELS):
            metrics[f"core.async_executor.k{i}_busy_s"] = med(
                d["stage_busy_seconds"][kernel] for d in last)

        tasks = self.sizes.noop_tasks
        graph = TaskGraph()
        for index in range(tasks):
            deps = (f"t{index - 4}",) if index >= 4 else ()
            graph.add(f"t{index}", lambda results: None, deps=deps)
        with recorder.span("core.scheduler.noop_graph", tasks=tasks):
            graph.run(max_workers=2)
        metrics["core.scheduler.task_overhead_us"] = (
            recorder.median("core.scheduler.noop_graph") / tasks * 1e6)

        config = self.spec().to_config(None)
        work = self.scratch / "layers"
        backend = get_backend("scipy")
        k0, _ = backend.kernel0(config, work / "k0")
        k1, _ = backend.kernel1(config, k0, work / "k1")
        for label, overlap in (("serial", False), ("overlap", True)):
            with recorder.span(f"core.streaming.k2_{label}"):
                streamed = streaming_kernel2(
                    k1, overlap_io=overlap,
                    batch_edges=config.streaming_batch_edges,
                    scratch_dir=work / f"k2-{label}")
            metrics[f"core.streaming.k2_{label}_s"] = recorder.median(
                f"core.streaming.k2_{label}")
            if streamed.pre_filter_entry_total != config.num_edges:
                self.notes.append(f"streaming k2 ({label}) lost edges")
                ok = False

        # The thread-vs-process lane and pipe-vs-shm plane either/or is
        # taken at lane_scale, not at the timed runs' scale: on a
        # 65 536-edge shard spawn and dispatch overhead is all there is,
        # which says nothing about the choice on the shards (2^20 edges
        # at scale 18) the knobs exist for.  Single samples.
        lane_spec = self.spec(scale=self.sizes.lane_scale)
        lane_config = lane_spec.to_config(None)
        shard_edges = lane_config.num_edges // lane_config.num_files
        u, v = get_generator("kronecker")(
            lane_config.scale, lane_config.edge_factor, seed=self.seed)
        u, v = u[:shard_edges].copy(), v[:shard_edges].copy()

        # One real shard through the lane pool, both hand-off planes,
        # against the same op run in this process.
        shard = {"directory": str(work / "lane"), "index": 0,
                 "fmt": config.file_format,
                 "vertex_base": config.vertex_base}
        pool = ProcessLanePool(2)
        extra = {"pipe": [], "shm": []}
        try:
            with recorder.span("core.lanes.prestart"):
                pool.prestart(block=True)
            for _ in range(self.sizes.probe_repeats):
                with recorder.span("lane-op:inline", edges=shard_edges) as inline:
                    run_lane_op("encode-shard", {**shard, "u": u, "v": v})
                with recorder.span("lane-op:pipe", edges=shard_edges) as piped:
                    pool.run("encode-shard", {**shard, "u": u, "v": v})
                with recorder.span("lane-op:shm", edges=shard_edges) as shared:
                    with recorder.span("core.shmplane.create"):
                        buffer = ShardBuffer.create(u, v)
                    try:
                        pool.run("encode-shard-shm", {
                            **shard, "shm": buffer.name,
                            "start": 0, "end": len(u)})
                    finally:
                        buffer.release()
                extra["pipe"].append(piped.seconds - inline.seconds)
                extra["shm"].append(shared.seconds - inline.seconds)
        finally:
            pool.shutdown()
        # Medians of the paired differences: an op in a lane worker can
        # even be faster than the same op here, so these can be negative;
        # their distance is what the shard plane changes.
        metrics.update({
            "core.lanes.prestart_s": recorder.median("core.lanes.prestart"),
            "core.lanes.dispatch_pipe_ms":
                statistics.median(extra["pipe"]) * 1e3,
            "core.lanes.dispatch_shm_ms":
                statistics.median(extra["shm"]) * 1e3,
        })

        buffer = ShardBuffer.create(u, v)
        try:
            for _ in range(self.sizes.probe_repeats):
                with recorder.span("core.shmplane.attach"):
                    reader = ShardBuffer.attach(buffer.name)
                    views = reader.arrays()
                del views
                reader.close()
        finally:
            buffer.release()
        create_s = recorder.median("core.shmplane.create")
        metrics.update({
            "core.shmplane.create_ms": create_s * 1e3,
            "core.shmplane.attach_ms":
                recorder.median("core.shmplane.attach") * 1e3,
            "core.shmplane.create_gb_per_s":
                (u.nbytes + v.nbytes) / create_s / 1e9,
        })
        del u, v

        # One whole run per lane kind and plane; the three must agree.
        lane_digests = set()
        for lanes, plane, metric in (
            ("thread", "pipe", "core.lanes.async_thread_wall_s"),
            ("process", "pipe", "core.lanes.async_proc_wall_s"),
            ("process", "shm", "core.lanes.async_proc_shm_wall_s"),
        ):
            self.attempted += 1
            with recorder.span(f"run:{lanes}-lanes-{plane}",
                               scale=lane_spec.scale):
                wall, outcome = self.run(self.spec(
                    scale=lane_spec.scale, async_lanes=lanes,
                    shard_plane=plane))
            metrics[metric] = wall
            lane_digests.add(outcome.rank_digest)
            del outcome
        if len(lane_digests) != 1:
            self.failed += 1
            self.notes.append("thread and process lanes disagree on the "
                              f"rank digest at scale {lane_spec.scale}")

        leaked = len(outstanding_segments()) + len(
            set(Path("/dev/shm").glob("psm_repro_*")) - segments_before)
        metrics["core.shmplane.leaked_segments"] = leaked
        if leaked:
            self.notes.append(f"{leaked} shared-memory segment(s) leaked")
            ok = False
        return ok

    # .. warm-cache: the artifact cache, reads beside writes ..............
    def _layers_warm_cache(self, recorder, metrics, outcomes, walls,
                           digest) -> bool:
        from repro.core.artifacts import (
            ArtifactCache, cache_key, k1_cache_fields, k2_cache_fields,
        )

        ok = True
        repeats = self.sizes.probe_repeats
        config = self.spec().to_config(self.cache_dir)
        cache = ArtifactCache(self.cache_dir)
        k1_fields = k1_cache_fields(config)
        k2_fields = k2_cache_fields(config, variant="backend-serial")
        probes = hits = 0
        for outcome in outcomes:
            for kernel in outcome.results[-1].kernels:
                state = kernel.details.get("artifact_cache")
                probes += state in ("hit", "miss")
                hits += state == "hit"
        metrics.update({
            "core.artifacts.populate_s": self.populate_s,
            "core.artifacts.cache_bytes": cache.total_bytes(),
            "core.artifacts.hit_ratio": hits / probes if probes else 0.0,
        })
        if hits != probes or not probes:
            self.notes.append(f"cache hits {hits} of {probes} probes")
            ok = False

        def never(directory):
            raise AssertionError("warm entry was produced again")

        for _ in range(repeats * 4):
            with recorder.span("core.artifacts.dataset_hit"):
                cache.dataset("k1", k1_fields, never)
            with recorder.span("core.artifacts.entries"):
                cache.entries()
                cache.total_bytes()
        for _ in range(repeats):
            with recorder.span("core.artifacts.load_csr"):
                matrix, meta = cache.load_csr("k2", k2_fields)
            second = ArtifactCache(self.scratch / "cache-store")
            with recorder.span("core.artifacts.store_csr"):
                second.store_csr("k2", k2_fields, matrix, meta)
            shutil.rmtree(second.root)
        keys = 10_000
        with recorder.span("core.artifacts.key", calls=keys):
            for _ in range(keys):
                cache_key(k1_fields)
        key = cache_key(k1_fields)
        for _ in range(repeats):
            with recorder.span("core.artifacts.export"):
                archive = cache.export_entry("k1", key)
            second = ArtifactCache(self.scratch / "cache-import")
            with recorder.span("core.artifacts.import"):
                imported = second.import_entry("k1", key, archive)
            shutil.rmtree(second.root)
            if not imported:
                self.notes.append("import_entry refused an exported entry")
                ok = False
        archive_mb = len(archive) / 1e6
        metrics.update({
            "core.artifacts.dataset_hit_ms":
                recorder.median("core.artifacts.dataset_hit") * 1e3,
            "core.artifacts.entries_ms":
                recorder.median("core.artifacts.entries") * 1e3,
            "core.artifacts.load_csr_ms":
                recorder.median("core.artifacts.load_csr") * 1e3,
            "core.artifacts.store_csr_ms":
                recorder.median("core.artifacts.store_csr") * 1e3,
            "core.artifacts.key_us":
                recorder.median("core.artifacts.key") / keys * 1e6,
            "core.artifacts.export_mb_per_s":
                archive_mb / recorder.median("core.artifacts.export"),
            "core.artifacts.import_mb_per_s":
                archive_mb / recorder.median("core.artifacts.import"),
        })
        return ok


def _record_metrics(outcomes) -> Dict[str, float]:
    """Per-kernel seconds, edges/s and phase times the program reported
    for the pass's own timed runs (medians; cold-serial replaces the
    seconds with its direct-call replay).  A cached kernel reports
    no edges/s (the program itself refuses to call a cache read
    throughput), so it is 0 here."""
    metrics: Dict[str, float] = {}
    results = [o.results[-1] for o in outcomes]
    for i in range(4):
        kernels = [r.kernels[i] for r in results]
        metrics[f"backends.k{i}_s"] = statistics.median(
            k.seconds for k in kernels)
        metrics[f"backends.k{i}_edges_per_s"] = statistics.median(
            0.0 if k.cached else k.edges_per_second for k in kernels)
        phases = [k.details.get("phases") or {} for k in kernels]
        for phase in _PHASES[i]:
            metrics[f"backends.k{i}_phase_{phase}_s"] = statistics.median(
                float(p.get(phase, 0.0)) for p in phases)
    return metrics


_PHASES: Tuple[Tuple[str, ...], ...] = (
    ("generate", "write"),
    ("read", "sort", "write"),
    ("read", "construct", "filter", "normalize"),
    (),
)
