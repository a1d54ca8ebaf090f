"""Dependency-aware task scheduler behind the async executor.

The pipeline's stage graph (:class:`~repro.core.stages.ExecutionPlan`)
says *what* must precede what; this module supplies the machinery that
exploits the freedom left over: a :class:`TaskGraph` of named tasks with
explicit dependencies, run on a thread pool so that independent I/O and
compute overlap (K0 shard-writes against K1 shard-reads, K1 shard-writes
against the K2 build, …).

Two properties matter for a benchmark harness and are designed in:

* **Determinism of results** — a task runs only after every dependency
  has completed, and dependencies must already exist when a task is
  added, so the graph is acyclic *by construction* and a task sees
  exactly the dependency results it would have seen under serial
  execution.
* **Honest timing** — every task's busy time is measured on the worker
  that ran it.  :class:`ScheduleResult` aggregates busy time per group
  (one group per pipeline stage) so per-kernel throughput stays
  comparable to the serial baseline, and exposes
  :attr:`~ScheduleResult.overlap_saved_seconds` — the wall-clock the
  overlap actually recovered — as a separate, clearly-labelled number
  instead of silently deflating kernel times.

The scheduler is deliberately small: a thread pool plus a plain
ready-queue loop, because the graphs involved have tens of nodes, not
millions.  Threads suffice where the overlapped work releases the GIL
(file I/O, numpy kernels); for the work that does not — the TSV codec —
a task can be marked ``lane="process"``, in which case its body returns
a :class:`~repro.core.lanes.LaneTask` descriptor and the scheduler
dispatches it to an attached :class:`~repro.core.lanes.ProcessLanePool`
(the dispatching thread blocks on the pipe, GIL released, while a lane
worker does the CPU work).  Without an attached pool a process-lane
task simply runs its op on the scheduler thread, so lane marking is a
performance hint, never a correctness switch.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core import trace
from repro.core.exceptions import PipelineError
from repro.core.lanes import LANE_KINDS, LaneTask, ProcessLanePool, run_lane_op

#: A task body: receives the (read-only) map of completed task results,
#: keyed by task name, and returns this task's result.
TaskFn = Callable[[Mapping[str, object]], object]


class SchedulerError(PipelineError):
    """A task failed; carries the originating task's name in the message."""


@dataclass(frozen=True)
class TaskSpec:
    """One node of the task graph."""

    name: str
    fn: TaskFn
    deps: Tuple[str, ...] = ()
    #: Attribution group (typically a kernel name); busy time is summed
    #: per group by :meth:`ScheduleResult.group_busy_seconds`.
    group: str = ""
    #: Keep the result in :attr:`ScheduleResult.results` after every
    #: dependent has completed.  Without this, an intermediate result is
    #: freed as soon as nothing can read it anymore — a pipeline stage's
    #: full edge arrays would otherwise stay pinned for the whole run.
    #: Tasks with no dependents (sinks) are always kept.
    retain: bool = False
    #: Where the task's CPU work runs: ``"thread"`` (on the scheduler
    #: pool, the default) or ``"process"`` (the body returns a
    #: :class:`~repro.core.lanes.LaneTask` which is shipped to the
    #: run's lane pool — or executed in-place when none is attached).
    lane: str = "thread"


@dataclass(frozen=True)
class TaskTiming:
    """Start/finish instants of one task, relative to the run start."""

    name: str
    group: str
    started: float
    finished: float
    #: Lane the task was scheduled on.  For a process-lane task the
    #: interval covers descriptor build + pipe round-trip + remote
    #: compute; time spent merely *queuing* for a lane worker is
    #: recorded separately and excluded from :attr:`seconds`.
    lane: str = "thread"
    #: Seconds a process-lane dispatch waited for a free lane worker
    #: (idle-queue wait plus any lazy respawn).  Kept out of busy
    #: time: when concurrent codec tasks outnumber lane workers, the
    #: same worker's compute would otherwise be billed to every
    #: dispatch that queued behind it, inflating group/lane busy sums
    #: and ``overlap_saved_seconds``.
    queue_wait: float = 0.0
    #: The instant the task's last dependency finished (0 for a task
    #: without dependencies); ``started - ready`` is how long the ready
    #: task waited for a pool thread.
    ready: float = 0.0

    @property
    def seconds(self) -> float:
        """Busy time of the task on its worker thread."""
        return self.finished - self.started - self.queue_wait


@dataclass
class ScheduleResult:
    """Everything a :meth:`TaskGraph.run` produced.

    Attributes
    ----------
    results:
        Task results keyed by task name.  Holds sinks and
        ``retain=True`` tasks; intermediate results are freed the
        moment their last dependent completes (memory stays bounded by
        the live frontier, not the whole graph's history).
    timings:
        Per-task busy intervals.
    wall_seconds:
        End-to-end wall-clock of the whole graph.
    trace_origin:
        The graph's clock zero on the active trace collector's run
        clock (``None`` when the run was untraced).  Lets callers place
        :class:`TaskTiming` instants — which are graph-clock-relative —
        onto the trace timeline (the async executor synthesises its
        per-stage spans this way).
    """

    results: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, TaskTiming] = field(default_factory=dict)
    wall_seconds: float = 0.0
    trace_origin: Optional[float] = None

    def group_busy_seconds(self) -> Dict[str, float]:
        """Summed task busy time per group, insertion-ordered.

        Lane-offloaded tasks count toward their group exactly like
        thread tasks — the group is the *what* (a kernel), the lane the
        *where*, and per-kernel attribution must not change when work
        moves between lanes.
        """
        out: Dict[str, float] = {}
        for timing in self.timings.values():
            out[timing.group] = out.get(timing.group, 0.0) + timing.seconds
        return out

    def lane_busy_seconds(self) -> Dict[str, float]:
        """Summed task busy time per lane (``thread``/``process``)."""
        out: Dict[str, float] = {}
        for timing in self.timings.values():
            out[timing.lane] = out.get(timing.lane, 0.0) + timing.seconds
        return out

    @property
    def busy_seconds(self) -> float:
        """Total busy time across all tasks (the "serial equivalent")."""
        return sum(t.seconds for t in self.timings.values())

    @property
    def dispatch_wait_seconds(self) -> float:
        """Summed ``started - ready``: time ready tasks spent waiting
        for a pool thread (the scheduler's own dispatch cost included)."""
        return sum(t.started - t.ready for t in self.timings.values())

    @property
    def overlap_saved_seconds(self) -> float:
        """Wall-clock recovered by overlap: ``busy - wall``.

        Positive when tasks genuinely ran concurrently; can be slightly
        negative when scheduling overhead exceeded the (absent) overlap.
        Reported as-is — clamping would hide a pathological schedule.
        """
        return self.busy_seconds - self.wall_seconds


class TaskGraph:
    """A DAG of named tasks, acyclic by construction.

    Dependencies must already be present when :meth:`add` is called, so
    insertion order is a topological order and cycles cannot be
    expressed.

    Examples
    --------
    >>> graph = TaskGraph()
    >>> _ = graph.add("a", lambda r: 1)
    >>> _ = graph.add("b", lambda r: r["a"] + 1, deps=("a",))
    >>> graph.run().results["b"]
    2
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, TaskSpec] = {}

    def __len__(self) -> int:
        return len(self._tasks)

    def add(
        self,
        name: str,
        fn: TaskFn,
        *,
        deps: Tuple[str, ...] = (),
        group: str = "",
        retain: bool = False,
        lane: str = "thread",
    ) -> str:
        """Register a task; returns its name for convenient chaining.

        Parameters
        ----------
        lane:
            ``"thread"`` runs ``fn``'s return value as the result;
            ``"process"`` requires ``fn`` to return a
            :class:`~repro.core.lanes.LaneTask`, which is dispatched to
            the lane pool handed to :meth:`run` (or executed in-place
            when none is).

        Raises
        ------
        ValueError
            On a duplicate name, an unknown lane, or a dependency that
            has not been added yet (which is also how cycles are
            rejected).
        """
        if name in self._tasks:
            raise ValueError(f"duplicate task name {name!r}")
        if lane not in LANE_KINDS:
            raise ValueError(
                f"lane must be one of {LANE_KINDS}, got {lane!r}"
            )
        missing = [dep for dep in deps if dep not in self._tasks]
        if missing:
            raise ValueError(
                f"task {name!r} depends on {missing} which are not in the "
                f"graph yet (add dependencies first; cycles are impossible)"
            )
        self._tasks[name] = TaskSpec(
            name=name, fn=fn, deps=tuple(deps), group=group or name,
            retain=retain, lane=lane,
        )
        return name

    # ------------------------------------------------------------------
    def run(
        self,
        max_workers: Optional[int] = None,
        *,
        lane_pool: Optional[ProcessLanePool] = None,
    ) -> ScheduleResult:
        """Execute the graph, overlapping every ready task.

        Parameters
        ----------
        max_workers:
            Thread-pool width; ``max_workers=1`` degenerates to serial
            execution in insertion order (useful for debugging).
        lane_pool:
            Destination for ``lane="process"`` tasks.  When omitted,
            their :class:`~repro.core.lanes.LaneTask` descriptors run
            on the scheduler thread instead — identical results, no
            extra processes.

        Raises
        ------
        SchedulerError
            When any task raises; the first failure is chained, already
            scheduled tasks are drained, and pending tasks never start.
        """
        if not self._tasks:
            return ScheduleResult()
        result = ScheduleResult()
        waiting = {name: set(spec.deps) for name, spec in self._tasks.items()}
        # How many dependents have yet to finish reading each task's
        # result; at zero a non-retained result is freed.
        readers: Dict[str, int] = {name: 0 for name in self._tasks}
        for spec in self._tasks.values():
            for dep in spec.deps:
                readers[dep] += 1
        tracer = trace.current()
        clock0 = time.perf_counter()
        schedule_handle = None
        if tracer is not None:
            # The schedule span's start is the graph's clock zero (same
            # perf_counter sample), so TaskTiming instants and trace
            # timestamps share one origin.
            result.trace_origin = clock0 - tracer.t0
            schedule_handle = tracer.begin(
                "schedule", cat="run", start=result.trace_origin,
                tasks=len(self._tasks),
            )

        def _call(spec: TaskSpec):
            t_started = time.perf_counter()
            queue_wait = 0.0
            handle = None
            if tracer is not None:
                handle = tracer.begin(
                    f"task:{spec.name}", cat="task",
                    start=t_started - tracer.t0,
                    parent_id=schedule_handle.span_id,
                    group=spec.group, lane=spec.lane,
                )
            try:
                # Re-bind the run's collector on this pool thread so
                # layers the task body calls into (artifact cache, shm
                # plane, lane dispatch) see it ambiently.
                with trace.activate(tracer):
                    value = spec.fn(result.results)
                    if spec.lane == "process":
                        if not isinstance(value, LaneTask):
                            raise TypeError(
                                f"process-lane task {spec.name!r} must return "
                                f"a LaneTask descriptor, got {type(value).__name__}"
                            )
                        task = value
                        if lane_pool is not None:
                            value, queue_wait = lane_pool.run_task_timed(task)
                        else:
                            value = run_lane_op(task.op, task.payload)
                        if task.post is not None:
                            # Parent-side hook (e.g. adopt a shared-memory
                            # segment the op created); applied identically
                            # on the pool and in-place paths.
                            value = task.post(value)
            finally:
                finished = time.perf_counter() - clock0
                timing = TaskTiming(
                    name=spec.name,
                    group=spec.group,
                    started=t_started - clock0,
                    finished=finished,
                    lane=spec.lane,
                    queue_wait=queue_wait,
                    # Every dependency's timing was recorded before it
                    # completed, hence before this task was submitted.
                    ready=max(
                        (result.timings[dep].finished for dep in spec.deps),
                        default=0.0,
                    ),
                )
                result.timings[spec.name] = timing
                if handle is not None:
                    # Same perf_counter samples and the same float
                    # arithmetic as the TaskTiming, so busy recomputed
                    # from this span (dur - queue_wait) matches
                    # ``timing.seconds`` exactly.
                    tracer.end(handle,
                               dur=timing.finished - timing.started,
                               queue_wait=queue_wait)
            return value

        failure: Optional[Tuple[str, BaseException]] = None
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            inflight = {}
            for name in [n for n, deps in waiting.items() if not deps]:
                del waiting[name]
                inflight[pool.submit(_call, self._tasks[name])] = name
            while inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                newly_ready: List[str] = []
                for future in done:
                    name = inflight.pop(future)
                    try:
                        result.results[name] = future.result()
                    except BaseException as exc:  # noqa: BLE001 - reported
                        if failure is None:
                            failure = (name, exc)
                        continue
                    # This task has finished reading its dependencies;
                    # free any whose last reader it was.
                    for dep in self._tasks[name].deps:
                        readers[dep] -= 1
                        if readers[dep] == 0 and not self._tasks[dep].retain:
                            result.results.pop(dep, None)
                    if failure is not None:
                        continue  # drain in-flight work, start nothing new
                    for dep_name, deps in waiting.items():
                        if name in deps:
                            deps.discard(name)
                            if not deps:
                                newly_ready.append(dep_name)
                for name in newly_ready:
                    del waiting[name]
                    inflight[pool.submit(_call, self._tasks[name])] = name
        result.wall_seconds = time.perf_counter() - clock0
        if schedule_handle is not None:
            tracer.end(schedule_handle, dur=result.wall_seconds)
        if failure is not None:
            name, exc = failure
            raise SchedulerError(f"task {name!r} failed: {exc}") from exc
        return result
