"""The async executor: overlap stage I/O with compute via a task graph.

The pipeline's kernels are alternately I/O-bound (Kernel 0 writes edge
files, Kernel 1 reads and rewrites them) and compute-bound (Kernel 2
filters, Kernel 3 iterates).  :class:`AsyncExecutor` decomposes each
of the four :data:`~repro.core.stages.STAGES` into finer tasks on a
:class:`~repro.core.scheduler.TaskGraph` and overlaps work *across*
stage boundaries while keeping each stage's own GIL-bound hot loop
serial:

* Kernel 0's Kronecker block runs on every core: from two slices up
  (scale 13 at edge factor 16) its slice ranges are concurrent tasks,
  one per core the process may run on and at most one per slice, each
  drawing its slices by PCG64 jump-ahead
  (:class:`~repro.generators.kronecker.KroneckerTasks`); then one
  permute task draws the edge order and relabelling table, and one
  gather per endpoint array applies them — the same edge list as the
  serial pass, which stays one thread;
* Kernel 0's shard writes run as a sequential chain (TSV encoding is
  CPU-bound — parallel encodes would fight over the GIL, not overlap),
  but Kernel 1's read of shard *i* starts the moment shard *i* is on
  disk, while Kernel 0 is still encoding shard *i+1*;
* the sorted arrays are handed from the Kernel 1 sort task straight to
  Kernel 2, which builds the matrix from them with the backend's own
  build step while Kernel 1's chained shard writes persist the same
  arrays — which the contracts re-verify from disk afterwards;
* Kernel 3 waits for everything else, shard writes included, so the
  timed kernel runs without contention (see :meth:`AsyncExecutor._build_graph`);
* with ``config.async_lanes="process"``, the GIL-bound TSV codec tasks
  — Kernel 0/1 shard encodes and Kernel 1 shard decodes — are marked
  ``lane="process"`` and dispatched to a
  :class:`~repro.core.lanes.ProcessLanePool`, so encoding shard *i+1*
  genuinely overlaps the write of shard *i* and the Kernel 2 build
  instead of contending for the parent's GIL (the per-stage write
  chains that exist to serialise GIL-bound encodes are dropped: lane
  workers encode independent shards concurrently);
* with ``config.shard_plane="shm"`` on top of process lanes, the edge
  arrays those codec tasks exchange ride the zero-copy shard plane
  (:mod:`repro.core.shmplane`): Kernel 0/1 arrays live in
  :class:`~repro.core.shmplane.ShardBuffer` segments, only segment
  *names* cross the worker pipes, and the K1→K2 hand-off feeds Kernel 2
  read-only views of the shared sort output.  Results are bit-identical
  to the pipe plane; the bytes that skipped serialisation are reported
  as ``shm_bytes_saved`` next to ``handoff_mode`` in the Kernel 3
  details.

**Timing attribution stays honest.**  Each kernel's reported ``seconds``
is its *busy* time — the sum of time its tasks actually spent working,
with time spent blocked on upstream stages excluded — so Kernel 0/1/3
throughput (edges/second) remains comparable to the serial baseline.
A phase is summed busy time too: Kernel 0's ``generate`` adds up its
concurrent block tasks, as ``write`` adds up its shard writes, so it
can exceed the wall-clock its window took.
Kernel 2 is the deliberate exception: the hand-off feeds it the sorted
arrays in memory, so its busy time omits the dataset read/decode the
file-fed Kernel 2s pay; its details carry ``ingest_source:
"k1-handoff"`` so downstream consumers can tell the two figures apart.
The wall-clock the overlap recovered is reported separately:
``overlap_saved_s`` (with the end-to-end ``pipeline_wall_seconds`` and
the ``dispatch_wait_seconds`` ready tasks spent waiting for a pool
thread) in the Kernel 3 details, and
:attr:`~repro.core.results.PipelineResult.wall_seconds` on the result.
Contracts are enforced through the same
:meth:`~repro.core.executor.Executor._check_contract` as in the other
three executors, inside each stage's artifact task but outside all
timed regions.

Fidelity note: results are bit-identical to serial execution on every
backend, because every task is a step of the serial kernels and overlap
only reorders *independent* work.

**Kernels 0, 1 and 2 are the backend's, not this module's.**  The
fine-grained tasks run the steps :mod:`repro.backends.base` defines the
kernels from — ``ctx.backend.generate_edges`` / ``sort_edges`` /
``build_adjacency``, ``write_shard`` per shard, ``publish_kernel0`` /
``publish_kernel1`` — so they cannot compute anything the serial
kernels would not.  When the artifact cache or external sort reroutes
Kernel 0/1 I/O, or the backend replaced a kernel whole, those stages run
as single coarse tasks through the backend's own kernels (a cache hit
is already just a manifest read), and a coarse Kernel 2 is the serial
one, its cache entries included.
"""

from __future__ import annotations

import os
import threading
import weakref
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro._util import Timings
from repro._util.heap import minor_faults
from repro.backends.base import (
    Backend,
    Details,
    publish_kernel0,
    publish_kernel1,
)
from repro.core import trace
from repro.core.config import KernelName, PipelineConfig
from repro.core.exceptions import KernelContractError
from repro.core.executor import Executor, StageOutput
from repro.core.lanes import DEFAULT_LANE_WORKERS, LaneTask, ProcessLanePool
from repro.core.results import KernelResult, PipelineResult
from repro.core.scheduler import ScheduleResult, SchedulerError, TaskGraph
from repro.core.shmplane import ShardBuffer, resolve_payload_via
from repro.core.stages import STAGES, Stage, StageContext
from repro.edgeio.dataset import read_shard_file, shard_slices, write_shard
from repro.edgeio.manifest import ShardInfo
from repro.generators.kronecker import KroneckerTasks

#: Scheduler pool width: one lane per concurrently-active role (the K0
#: write chain, the K1 read chain, the K1 write chain and the K2 build)
#: — more threads would only add GIL contention.  Kernel 0's block tasks
#: (one per core, at most one per slice) run before any of those roles
#: and share the same threads, so this also caps how many of them run
#: at once.
DEFAULT_MAX_WORKERS = 4


class ShmEdgePair(tuple):
    """A ``(u, v)`` edge-array pair backed by one shared-memory segment.

    Unpacks exactly like the plain tuples the pipe plane passes around
    (``u, v = pair`` everywhere in the graph), but the arrays are
    *read-only views* into a :class:`~repro.core.shmplane.ShardBuffer`
    and the pair carries the buffer on ``.buffer`` so codec tasks can
    ship its *name* instead of the bytes.  A ``weakref.finalize`` ties
    the segment's lifetime to the pair: the moment the scheduler frees
    the task result (last reader done), the segment is unlinked — no
    reference cycles, no leak, and any still-live views keep their
    mapping until they die (``ShardBuffer.release`` tolerates that).
    """

    def __new__(cls, u: np.ndarray, v: np.ndarray, buffer: ShardBuffer):
        self = super().__new__(cls, (u, v))
        self.buffer = buffer
        # Tuple subclasses cannot be weak-referenced; anchor the
        # finalizer on the u view instead.  It lives exactly as long as
        # the pair's data is reachable (slices keep their base array
        # alive), so the segment unlinks when the last consumer lets go.
        weakref.finalize(u, buffer.release)
        return self

    @classmethod
    def wrap(cls, u: np.ndarray, v: np.ndarray) -> "ShmEdgePair":
        """Copy ``u``/``v`` into a fresh owned segment."""
        buffer = ShardBuffer.create(u, v)
        return cls(*buffer.arrays(), buffer)

    @classmethod
    def adopt(cls, name: str, route: "_CodecRoute"):
        """Take ownership of a segment a lane worker exported to us."""
        buffer = ShardBuffer.attach(name, owner=True)
        route.add_saved(buffer.nbytes)
        return cls(*buffer.arrays(), buffer)


class _CodecRoute:
    """Where one run's shard codec tasks execute and how arrays reach them.

    ``lane`` is ``"thread"`` or ``"process"`` (:meth:`AsyncExecutor._codec_lane`),
    ``payload_via`` ``"pipe"`` or ``"shm"``; both are decided once per
    run, before the graph is built, and baked into the task bodies.

    ``shm_bytes_saved`` is a thread-safe tally of payload bytes the shm
    plane kept off pipes, counted where serialisation would otherwise
    happen: each shm shard *encode* adds its slice's payload bytes (the
    pickle the pipe plane would have shipped to the worker), each shm
    shard *decode* adds the adopted segment's payload bytes (the pickle
    the worker would have shipped back).  In-parent hand-offs (K1 sort →
    K2 build) were already zero-copy under the pipe plane and are not
    counted.
    """

    def __init__(self, lane: str, payload_via: str) -> None:
        self.lane = lane
        self.payload_via = payload_via
        self._lock = threading.Lock()
        self.shm_bytes_saved = 0

    def add_saved(self, nbytes: int) -> None:
        with self._lock:
            self.shm_bytes_saved += int(nbytes)


class AsyncExecutor(Executor):
    """Overlapped execution of the pipeline (``execution="async"``).

    Parameters
    ----------
    max_workers:
        Thread-pool width override; ``max_workers=1`` degenerates to
        serial scheduling (useful to isolate scheduler bugs from
        overlap bugs).
    """

    name = "async"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    def _run_stages(self, ctx: StageContext, result: PipelineResult) -> None:
        faults = minor_faults()
        fine = self._fine_grained(ctx)
        codec_lane = self._codec_lane(ctx.config, fine)
        # Negotiate the shard plane before building the graph: the task
        # bodies bake the decision in (shm only pays where the codec is
        # lane-offloaded; otherwise nothing crosses a pipe to save).
        route = _CodecRoute(
            codec_lane,
            resolve_payload_via(ctx.config.shard_plane)
            if codec_lane == "process" else "pipe",
        )
        graph, artifact_tasks = self._build_graph(ctx, fine, route)
        lane_pool = (
            ProcessLanePool(DEFAULT_LANE_WORKERS)
            if codec_lane == "process" else None
        )
        if lane_pool is not None:
            # Concurrently with the schedule, not before it: worker
            # start-up (interpreter + numpy import) hides behind the
            # K0 generate task instead of extending the wall, and a
            # first dispatch that still beats the spawn just blocks on
            # the checkout queue (the wait is excluded from its busy
            # time).  Failures surface on the dispatch path as
            # WorkerCrashError; shutdown() joins the warm-up.
            lane_pool.prestart(block=False)
        try:
            schedule = graph.run(
                max_workers=self._pool_width(codec_lane),
                lane_pool=lane_pool,
            )
        except SchedulerError as exc:
            # A contract violation inside a stage task must surface as
            # the same exception type the other executors raise.
            if isinstance(exc.__cause__, KernelContractError):
                raise exc.__cause__
            raise
        finally:
            if lane_pool is not None:
                lane_pool.shutdown()
        if faults is not None:
            faults = minor_faults() - faults
        self._record_stage_spans(schedule)
        result.kernels.extend(
            self._assemble(ctx, schedule, artifact_tasks, route, faults)
        )

    @staticmethod
    def _record_stage_spans(schedule: ScheduleResult) -> None:
        """Synthesize per-stage spans from the schedule's task timings.

        The async executor has no serial "stage ran here" interval —
        stages interleave — so each stage's span is the envelope of its
        group's tasks, placed on the run clock via the schedule's
        ``trace_origin``.  Busy time re-derived from the task spans is
        asserted against the schedule's own accounting, so the trace is
        a projection of the numbers the results report, never a second
        bookkeeping that can drift.
        """
        tracer = trace.current()
        if tracer is None or schedule.trace_origin is None:
            return
        group_busy = schedule.group_busy_seconds()
        span_busy = trace.task_busy_seconds(tracer.span_docs())
        groups: Dict[str, List] = {}
        for timing in schedule.timings.values():
            groups.setdefault(timing.group, []).append(timing)
        for group, timings in groups.items():
            started = min(t.started for t in timings)
            finished = max(t.finished for t in timings)
            busy = group_busy.get(group, 0.0)
            derived = span_busy.get(group)
            # Per-task values are bitwise equal (same samples, same
            # arithmetic); the sums may differ by association order.
            if derived is None or abs(derived - busy) > 1e-6:
                raise AssertionError(
                    f"span-derived busy for group {group!r} "
                    f"({derived}) disagrees with the schedule ({busy})"
                )
            tracer.add_span(
                f"stage:{group}", "stage",
                schedule.trace_origin + started, finished - started,
                args={"tasks": len(timings), "busy_seconds": busy},
            )

    @staticmethod
    def _fine_grained(ctx: StageContext) -> bool:
        """Whether Kernels 0/1 expand into per-shard tasks for this run.

        Only when nothing reroutes their I/O (artifact cache, external
        sort) and the backend runs the shared kernels: the tasks are the
        steps of :meth:`Backend.kernel0`/:meth:`Backend.kernel1`, so a
        backend that replaced either kernel gets its own kernel, coarse.
        The one predicate behind both the graph's shape and the codec
        lane, so the two cannot disagree.
        """
        config, backend_type = ctx.config, type(ctx.backend)
        return (
            config.cache_dir is None
            and not config.external_sort
            and backend_type.kernel0 is Backend.kernel0
            and backend_type.kernel1 is Backend.kernel1
        )

    @staticmethod
    def _codec_lane(config: PipelineConfig, fine: bool) -> str:
        """Which lane the TSV codec tasks run on for this config.

        Process offload applies only where it pays and where per-shard
        tasks exist at all: the fine-grained expansion
        (:meth:`_fine_grained`) of a text format whose encode/decode is
        GIL-bound.  ``npy`` shards are raw buffer writes — the pipe
        transfer would cost more than the GIL time it buys back.
        """
        if (
            config.async_lanes == "process"
            and fine
            and config.file_format in ("tsv", "tsv.gz")
        ):
            return "process"
        return "thread"

    @staticmethod
    def _chain_deps(
        codec_lane: str, anchors: Tuple[str, ...], previous: Optional[str]
    ) -> Tuple[str, ...]:
        """Dependencies for the next codec task in a per-stage series.

        Thread lane: chain onto the previous task — GIL-bound codecs
        would contend, not overlap.  Process lane: only the data/order
        anchors — independent lane workers run shards concurrently.
        """
        if codec_lane == "process" or previous is None:
            return anchors
        return anchors + (previous,)

    def _pool_width(self, codec_lane: str) -> int:
        if self.max_workers is not None:
            return max(1, self.max_workers)
        if codec_lane == "process":
            # Dispatch threads spend their time blocked on lane pipes
            # (GIL released); widen the pool so they never crowd out
            # the compute lanes.
            return DEFAULT_MAX_WORKERS + DEFAULT_LANE_WORKERS
        return DEFAULT_MAX_WORKERS

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _build_graph(
        self, ctx: StageContext, fine: bool, route: _CodecRoute,
    ) -> Tuple[TaskGraph, Dict[str, str]]:
        """Expand :data:`~repro.core.stages.STAGES` into a task graph.

        Returns the graph plus a map from each stage's ``provides`` key
        to the name of its *artifact task* (the task whose result is
        that stage's ``(output, details)`` pair).  With ``fine``
        (:meth:`_fine_grained`) Kernels 0/1 expand into their steps and
        Kernel 2 builds from the sort hand-off (:meth:`_expand_filter`)
        unless the backend replaced ``kernel2``; otherwise stages run as
        one task each, still scheduled as early as dependencies allow.
        ``route.lane == "process"`` marks the shard encode/decode tasks
        for lane-pool dispatch (see :meth:`_codec_lane`);
        ``route.payload_via == "shm"`` additionally routes their edge
        arrays through :class:`~repro.core.shmplane.ShardBuffer` segments.

        Each stage's artifact task depends on the previous stage's.
        Kernel 3 runs alone: its task depends on *every* earlier
        artifact task, so no shard write or contract check still runs
        when it starts.  It is the paper's timed kernel, and its
        edges/second is measured without contention, as on the serial
        path.

        Contracts run inside each artifact task; a contract that reads
        the previous stage's artifact is safe because every artifact
        task depends (directly or transitively) on the previous one —
        the hand-off Kernel 2 depends on the sort instead, and its
        contract reads only its own matrix.
        """
        graph = TaskGraph()
        artifact_tasks: Dict[str, str] = {}
        k0_write_tasks: List[str] = []
        k1_sort_task: Optional[str] = None
        own_build = type(ctx.backend).kernel2 is Backend.kernel2

        for stage in STAGES:
            deps = tuple(artifact_tasks.values())
            if stage.kernel is not KernelName.K3_PAGERANK:
                deps = deps[-1:]  # the previous stage's artifact task
            if stage.kernel is KernelName.K0_GENERATE and fine:
                task, k0_write_tasks = self._expand_generate(
                    graph, ctx, stage, route
                )
            elif stage.kernel is KernelName.K1_SORT and fine:
                task, k1_sort_task = self._expand_sort(
                    graph, ctx, stage, k0_write_tasks, deps, route
                )
            elif (stage.kernel is KernelName.K2_FILTER and own_build
                  and k1_sort_task is not None):
                task = self._expand_filter(graph, ctx, stage, k1_sort_task)
            else:
                task = self._stage_task(
                    graph, ctx, stage, deps,
                    lambda results, stage=stage: self._run_stage(stage, ctx),
                )
            artifact_tasks[stage.provides] = task
        return graph, artifact_tasks

    def _stage_task(
        self, graph: TaskGraph, ctx: StageContext, stage: Stage, deps,
        compute: Callable[[Dict[str, object]], StageOutput],
    ) -> str:
        """One stage as one task: ``compute`` (for a coarse stage, the
        base handlers, which include the artifact-cache paths), then the
        stage's contract."""

        def fn(results: Dict[str, object]) -> StageOutput:
            output, details = compute(results)
            details = dict(details)
            ctx.artifacts[stage.provides] = output
            self._check_contract(stage, ctx, details)
            return output, details

        return graph.add(
            stage.kernel.value, fn, deps=deps, group=stage.kernel.value,
            retain=True,
        )

    def _expand_generate(
        self, graph: TaskGraph, ctx: StageContext, stage: Stage,
        route: _CodecRoute,
    ) -> Tuple[str, List[str]]:
        """Kernel 0 as generate → shard writes → publish.

        Generate is one ``k0:generate`` task, or the Kronecker block's
        slice tasks (:meth:`_add_kronecker`) where the backend runs the
        base generate step on that generator.  Nothing else runs while
        they do — every later task depends on them — so the stage's
        details carry the process's ``minor_faults`` over that window,
        first generate task start to last generate task end.

        On the thread lane, writes chain (encode is GIL-bound; parallel
        encodes would contend, not overlap) and the overlap comes from
        Kernel 1 reading finished shards while the chain is still
        encoding later ones.  On the process lane the chain is dropped:
        lane workers encode independent shards concurrently, so shard
        *i+1*'s encode overlaps shard *i*'s write as well.
        """
        config = ctx.config
        out_dir = ctx.base_dir / "k0"
        group = stage.kernel.value
        faults: List[Optional[int]] = []

        def add(name: str, fn: Callable, deps: Tuple[str, ...] = ()) -> str:
            def counted(results: Dict[str, object]):
                faults.append(minor_faults())
                value = fn(results)
                faults.append(minor_faults())
                return value

            return graph.add(name, counted, deps=deps, group=group)

        tasks = self._kronecker_tasks(ctx)
        if tasks is not None:
            sources = self._add_kronecker(add, tasks, route, out_dir)
        else:
            def generate(results: Dict[str, object]):
                u, v = ctx.backend.generate_edges(config)
                out_dir.mkdir(parents=True, exist_ok=True)
                if route.payload_via == "shm":
                    # One segment for the whole stage output; every shard
                    # write ships only (name, start, end) over its pipe.
                    return ShmEdgePair.wrap(u, v)
                return u, v

            sources = (add("k0:generate", generate),)

        def publish(shards: List[ShardInfo]) -> StageOutput:
            dataset, details = publish_kernel0(config, out_dir, shards)
            if faults[0] is not None:
                details = {**details, "minor_faults": max(faults) - min(faults)}
            return dataset, details

        return self._write_and_publish(
            graph, ctx, stage, route, out_dir, sources, (), publish
        )

    @staticmethod
    def _kronecker_tasks(ctx: StageContext) -> Optional[KroneckerTasks]:
        """Kernel 0's generate step as :class:`KroneckerTasks`, where the
        backend runs the base step on the Kronecker generator and the
        block has more than one slice; otherwise ``None`` (one task)."""
        config = ctx.config
        if (
            type(ctx.backend).generate_edges is not Backend.generate_edges
            or config.generator != "kronecker"
        ):
            return None
        # The base step's call: generators.registry's "kronecker" entry.
        return KroneckerTasks.split(
            config.scale, config.edge_factor, seed=config.seed
        )

    @staticmethod
    def _add_kronecker(
        add: Callable, tasks: KroneckerTasks, route: _CodecRoute, out_dir: Path,
    ) -> Tuple[str, ...]:
        """The Kronecker block as ``k0:generate:<j>`` slice-range tasks,
        one per core (at most one per slice), then
        ``k0:generate:permute``, then one reorder-and-relabel gather per
        endpoint array, ``k0:generate:u`` and ``k0:generate:v``.  The
        block tasks run concurrently, and so do the gathers on the pipe
        plane: the draws, ufuncs and fancy indexing release the GIL.
        Returns the tasks whose results are the edge arrays."""
        affinity = getattr(os, "sched_getaffinity", None)
        cores = len(affinity(0)) if affinity else os.cpu_count() or 1
        width = min(tasks.slices, cores)
        bounds = [j * tasks.slices // width for j in range(width + 1)]
        blocks = tuple(
            add(f"k0:generate:{j}",
                lambda results, first=first, last=last: tasks.fill(first, last))
            for j, (first, last) in enumerate(zip(bounds, bounds[1:]))
        )

        def permute(results: Dict[str, object]):
            out_dir.mkdir(parents=True, exist_ok=True)
            return tasks.permute()

        permute_task = add("k0:generate:permute", permute, blocks)

        def gather(results: Dict[str, object], index: int) -> np.ndarray:
            block, order, relabel = results[permute_task]
            return tasks.place(block[index], order, relabel)

        u_task = add("k0:generate:u", lambda results: gather(results, 0),
                     (permute_task,))
        if route.payload_via != "shm":
            return u_task, add(
                "k0:generate:v", lambda results: gather(results, 1),
                (permute_task,),
            )
        # One segment holds the pair every shard write ships by name, so
        # the v gather waits for u and copies both in.
        return (add(
            "k0:generate:v",
            lambda results: ShmEdgePair.wrap(results[u_task], gather(results, 1)),
            (permute_task, u_task),
        ),)

    def _expand_sort(
        self,
        graph: TaskGraph,
        ctx: StageContext,
        stage: Stage,
        k0_write_tasks: List[str],
        artifact_deps: Tuple[str, ...],
        route: _CodecRoute,
    ) -> Tuple[str, str]:
        """Kernel 1 as shard reads → sort → shard writes → publish.

        Each read task depends only on *its* Kernel 0 shard write — not
        on the whole Kernel 0 stage — which is where the K0-write /
        K1-read overlap comes from.  The sort task's result doubles as
        the hand-off to Kernel 2's build, so the shard writes that persist
        the sorted dataset run concurrently with the filter.
        On the process lane, reads (TSV decode) and writes (TSV encode)
        are lane-pool tasks and the encode chain is dropped.
        """
        config = ctx.config
        src_dir = ctx.base_dir / "k0"
        out_dir = ctx.base_dir / "k1"
        group = stage.kernel.value
        codec = dict(fmt=config.file_format, vertex_base=config.vertex_base)

        read_tasks: List[str] = []
        previous: Optional[str] = None
        for index, write_task in enumerate(k0_write_tasks):
            def read(results: Dict[str, object], write_task: str = write_task):
                # Checked against the ShardInfo the write task returned.
                info = results[write_task]
                path = src_dir / info.name
                checked = dict(info=info, num_vertices=config.num_vertices,
                               **codec)
                if route.lane != "process":
                    return read_shard_file(path, **checked)
                if route.payload_via == "shm":
                    # The worker decodes into a fresh segment and
                    # exports it; only the name crosses the pipe back,
                    # and the parent-side post hook adopts ownership
                    # (the scheduler frees the result → the segment
                    # unlinks).
                    return LaneTask(
                        "decode-shard-shm", dict(path=str(path), **checked),
                        post=lambda name: ShmEdgePair.adopt(name, route),
                    )
                return LaneTask(
                    "decode-shard", dict(path=str(path), **checked)
                )

            previous = graph.add(
                f"k1:read:{index}", read,
                deps=self._chain_deps(route.lane, (write_task,), previous),
                group=group, lane=route.lane,
            )
            read_tasks.append(previous)

        def sort(results: Dict[str, object]):
            u = np.concatenate([results[name][0] for name in read_tasks])
            v = np.concatenate([results[name][1] for name in read_tasks])
            out_dir.mkdir(parents=True, exist_ok=True)
            sorted_u, sorted_v = ctx.backend.sort_edges(config, u, v)
            if route.payload_via == "shm":
                # The K1 shard writes *and* the K1→K2 hand-off all read
                # from this one segment (zero-copy fan-out).
                return ShmEdgePair.wrap(sorted_u, sorted_v)
            return sorted_u, sorted_v

        sort_task = graph.add(
            "k1:sort", sort, deps=tuple(read_tasks), group=group
        )
        # artifact_deps (the K0 dataset task) is an ordering dependency:
        # the sort contract re-reads the K0 artifact from ctx.
        publish_task, _ = self._write_and_publish(
            graph, ctx, stage, route, out_dir, (sort_task,),
            artifact_deps,
            lambda shards: publish_kernel1(
                ctx.backend, config, out_dir, shards
            ),
        )
        return publish_task, sort_task

    def _write_and_publish(
        self,
        graph: TaskGraph,
        ctx: StageContext,
        stage: Stage,
        route: _CodecRoute,
        out_dir: Path,
        sources: Tuple[str, ...],
        order_deps: Tuple[str, ...],
        publish: Callable[[List[ShardInfo]], StageOutput],
    ) -> Tuple[str, List[str]]:
        """The tail Kernels 0 and 1 share: the ``(u, v)`` of ``sources``
        (one task's pair, or one task per array) → one ``write_shard``
        task per shard → the publishing artifact task.  Returns the
        artifact task and the write tasks.

        The write body is the single source of truth for the codec
        write: slice the source arrays to this shard, then either write
        in-thread or return the lane descriptor for the identical
        operation.  On the shm plane the descriptor carries only the
        segment name and the slice bounds — the worker maps the same
        pages the parent holds.
        """
        config = ctx.config
        group = stage.kernel.value
        prefix = out_dir.name  # "k0" / "k1": run sub-directory and task prefix
        codec = dict(fmt=config.file_format, vertex_base=config.vertex_base)

        write_tasks: List[str] = []
        previous: Optional[str] = None
        for index in range(config.num_files):
            def write(results: Dict[str, object], index: int = index):
                if len(sources) == 1:
                    source = results[sources[0]]
                else:
                    source = tuple(results[name] for name in sources)
                u, v = source
                start, end = shard_slices(len(u), config.num_files)[index]
                if route.lane != "process":
                    return write_shard(
                        out_dir, index, u[start:end], v[start:end], **codec
                    )
                target = dict(directory=str(out_dir), index=index, **codec)
                if route.payload_via == "shm" and isinstance(source, ShmEdgePair):
                    # The slice's label bytes that would have been
                    # pickled over the worker pipe.
                    route.add_saved((end - start) * (u.itemsize + v.itemsize))
                    return LaneTask("encode-shard-shm", dict(
                        shm=source.buffer.name, start=start, end=end, **target
                    ))
                return LaneTask("encode-shard", dict(
                    u=u[start:end], v=v[start:end], **target
                ))

            # The source tasks are the data-dependency anchors (their
            # arrays must stay alive); on the thread lane the previous
            # write rides along as an ordering-only chain link.
            previous = graph.add(
                f"{prefix}:write:{index}", write,
                deps=self._chain_deps(route.lane, sources, previous),
                group=group, lane=route.lane,
            )
            write_tasks.append(previous)

        def fn(results: Dict[str, object]) -> StageOutput:
            dataset, details = publish(
                [results[name] for name in write_tasks]
            )
            ctx.artifacts[stage.provides] = dataset
            self._check_contract(stage, ctx, details)
            return dataset, details

        publish_task = graph.add(
            f"{prefix}:dataset", fn, deps=tuple(write_tasks) + order_deps,
            group=group, retain=True,
        )
        return publish_task, write_tasks

    def _expand_filter(
        self, graph: TaskGraph, ctx: StageContext, stage: Stage,
        k1_sort_task: str,
    ) -> str:
        """Kernel 2 as the backend's build step on the sort hand-off.

        The task starts the moment the sort lands and builds from its
        arrays — :meth:`~repro.backends.base.Backend.build_adjacency`,
        the step the serial Kernel 2 runs after its ``read`` — while
        Kernel 1's shard writes persist the same arrays to disk (which
        the contracts re-verify afterwards).  Skipping the read is the
        one difference from serial, flagged as ``ingest_source:
        "k1-handoff"``: this Kernel 2's busy time excludes the dataset
        decode a file-fed one pays.
        """
        config = ctx.config

        def build(results: Dict[str, object]) -> StageOutput:
            u, v = results[k1_sort_task]
            handle, details = ctx.backend.build_adjacency(
                config, u, v, config.num_vertices, Timings()
            )
            return handle, {**details, "ingest_source": "k1-handoff"}

        return self._stage_task(graph, ctx, stage, (k1_sort_task,), build)

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------
    def _assemble(
        self,
        ctx: StageContext,
        schedule: ScheduleResult,
        artifact_tasks: Dict[str, str],
        route: _CodecRoute,
        faults: Optional[int],
    ) -> List[KernelResult]:
        """Turn the schedule into per-kernel results in stage order.

        Per-kernel ``seconds`` is the stage's busy time (its tasks'
        summed durations, or the ``measured_seconds`` a cache-missing
        Kernel 2 reports without its cache store), keeping throughput
        comparable to serial.  The pipeline-level overlap summary —
        wall-clock, total busy, the wall-clock the overlap recovered,
        the time ready tasks waited for a pool thread
        (``dispatch_wait_seconds``), and the run's minor page faults
        (stages overlap, so faults are not attributable to one) — lands
        in the final stage's details.
        """
        config = ctx.config
        group_busy = schedule.group_busy_seconds()
        stage_busy: Dict[str, float] = {}
        stage_details: Dict[str, Details] = {}
        verification_seconds = 0.0
        for stage in STAGES:
            _, details = schedule.results[artifact_tasks[stage.provides]]
            details = dict(details)
            contract_seconds = float(details.get("contract_seconds", 0.0))
            verification_seconds += contract_seconds
            busy = details.get("measured_seconds")
            if busy is None:
                # Group busy includes the in-task contract check; keep
                # kernel seconds contract-free like the other executors.
                busy = group_busy.get(stage.kernel.value, 0.0)
                busy -= contract_seconds
            stage_busy[stage.kernel.value] = float(busy)
            # A fine-grained stage's phases are its step tasks
            # ``k<i>:<phase>[:n]`` (every task of its group but the
            # publishing artifact task), under the names the serial
            # kernels publish — e.g. write = summed shard-write busy
            # time, wherever the writes overlapped.
            phases: Dict[str, float] = {}
            for name, timing in schedule.timings.items():
                if (
                    timing.group == stage.kernel.value
                    and name != artifact_tasks[stage.provides]
                ):
                    phase = name.split(":")[1]
                    phases[phase] = phases.get(phase, 0.0) + timing.seconds
            if phases:
                details["phases"] = phases
            stage_details[stage.provides] = details

        # Contracts are real (overlappable) work but not kernel work:
        # they count toward the pipeline totals, never toward a stage.
        total_busy = sum(stage_busy.values()) + verification_seconds
        overlap_saved = total_busy - schedule.wall_seconds

        records: List[KernelResult] = []
        for stage in STAGES:
            details = stage_details[stage.provides]
            seconds = stage_busy[stage.kernel.value]
            details["execution"] = "async"
            details["busy_seconds"] = seconds
            if stage is STAGES[-1]:
                details["overlap_saved_s"] = overlap_saved
                details["pipeline_wall_seconds"] = schedule.wall_seconds
                details["dispatch_wait_seconds"] = (
                    schedule.dispatch_wait_seconds
                )
                if faults is not None:
                    details["minor_faults"] = faults
                details["pipeline_busy_seconds"] = total_busy
                details["stage_busy_seconds"] = dict(stage_busy)
                details["verification_seconds"] = verification_seconds
                details["max_workers"] = self._pool_width(route.lane)
                # Lane attribution: the configured knob, the lane the
                # codec actually ran on (coarse/npy runs stay on
                # threads regardless of the knob), and busy time per
                # lane so the offload's share is measurable.
                details["async_lanes"] = config.async_lanes
                details["codec_lane"] = route.lane
                details["lane_busy_seconds"] = schedule.lane_busy_seconds()
                # Shard-plane attribution: the configured knob, the
                # plane the hand-off actually used (pipe when shm was
                # unavailable or the codec stayed on threads), and the
                # payload bytes shm kept off the worker pipes.
                details["shard_plane"] = config.shard_plane
                details["handoff_mode"] = route.payload_via
                details["shm_bytes_saved"] = route.shm_bytes_saved
            records.append(stage.result(config, seconds, details))
        return records
