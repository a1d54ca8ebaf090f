"""Pluggable execution strategies over the benchmark's pipeline.

One pipeline (:data:`~repro.core.stages.STAGES`) — four ways to run it:

* :class:`SerialExecutor` — every kernel through the backend, fully in
  memory: Kernels 0/1/2 as :class:`~repro.backends.base.Backend` defines
  them (their steps run in order, Kernel 2's build the backend's own),
  Kernel 3 as the backend implements it;
* :class:`StreamingExecutor` — Kernel 1 through the out-of-core
  :func:`repro.sort.external.external_sort_dataset` (:func:`stream_sort`)
  and Kernel 2 through :func:`repro.core.streaming.streaming_kernel2`
  (:func:`stream_filter`), both sized by ``streaming_batch_edges``;
* :class:`ShardParallelExecutor` — Kernels 2+3 through the distributed
  :func:`repro.parallel.driver.run_parallel_pipeline`, with the
  communication :class:`~repro.parallel.traffic.TrafficLog` merged into
  the Kernel 3 result details;
* :class:`~repro.core.async_executor.AsyncExecutor` — stages decomposed
  into a dependency-aware task graph (:mod:`repro.core.scheduler`) so
  stage I/O overlaps with compute: the same Kernel 0/1/2 steps
  scheduled as tasks, Kernel 2 building from the Kernel 1 sort's arrays
  while Kernel 1's shard writes run (registered lazily to avoid a
  module cycle).

The base class owns everything strategy-independent: scratch-directory
lifecycle, per-stage wall-clock timing and minor-fault counts
(``details["minor_faults"]``), artifact-cache routing for
Kernels 0/1 (and the Kernel 2 CSR spill), contract enforcement
(:meth:`Executor._check_contract`, outside timed regions), the
per-kernel records (:meth:`~repro.core.stages.Stage.result`), and the
optional eigenvector validation.  A subclass only decides *how* each
stage's kernel is computed — which is the point: a new scenario
(multi-node, a new backend family) is a new executor, not a fifth
pipeline fork.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Type, Union

import numpy as np
import scipy.sparse as sp

from repro._util import StopWatch, Timings
from repro._util.heap import minor_faults
from repro.core import trace
from repro.backends.base import (
    AdjacencyHandle,
    Backend,
    Details,
    kernel1_manifest,
)
from repro.backends.registry import get_backend
from repro.core.artifacts import (
    ArtifactCache,
    cache_key,
    k0_cache_fields,
    k1_cache_fields,
    k2_cache_fields,
)
from repro.core.config import (
    EXECUTION_MODES,
    REQUIRED_CAPABILITY,
    KernelName,
    PipelineConfig,
)
from repro.core.exceptions import ExecutorCapabilityError
from repro.core.results import PipelineResult
from repro.core.stages import (
    ARTIFACT_ADJACENCY,
    ARTIFACT_K0,
    ARTIFACT_K1,
    ARTIFACT_RANK,
    STAGES,
    Stage,
    StageContext,
)
from repro.sort.external import ExternalSortConfig, external_sort_dataset

StageOutput = Tuple[object, Details]


class Executor:
    """Base execution strategy: the shared run loop."""

    #: Registry/config name of the strategy.
    name: str = ""
    #: Arithmetic path of this strategy's Kernel 2 (part of the K2
    #: cache key — see :func:`repro.core.artifacts.k2_cache_fields`).
    k2_cache_variant: str = "backend-serial"

    @property
    def required_capability(self) -> str:
        """Capability a backend must declare for this strategy."""
        return REQUIRED_CAPABILITY.get(self.name, "serial")

    # ------------------------------------------------------------------
    def execute(
        self,
        config: PipelineConfig,
        backend: Optional[Backend] = None,
    ) -> PipelineResult:
        """Run the four stages and return the aggregated result.

        Parameters
        ----------
        config:
            The run configuration (``config.execution`` is *not*
            consulted here — calling an executor runs that executor).
            ``config.verify`` enforces each stage's
            :class:`~repro.core.stages.Contract` (outside the timed
            regions); ``config.validate`` adds the eigenvector check.
        backend:
            Backend instance; resolved from ``config.backend`` when
            omitted.
        """
        backend = self._resolve_backend(config, backend)
        own_dir = config.data_dir is None
        base_dir = None if own_dir else Path(config.data_dir)
        if base_dir is not None:
            base_dir.mkdir(parents=True, exist_ok=True)
        ctx = StageContext(config=config, backend=backend, base_dir=base_dir)
        result = PipelineResult(config=config)
        collector = trace.TraceCollector() if config.trace else None
        try:
            with trace.activate(collector), \
                    trace.span("pipeline", cat="run",
                               execution=self.name or type(self).__name__,
                               backend=backend.name, scale=config.scale):
                wall = StopWatch().start()
                self._run_stages(ctx, result)
                result.wall_seconds = wall.stop()
                result.rank = np.asarray(ctx.require(ARTIFACT_RANK))
                if config.validate:
                    with trace.span("validate", cat="verify"):
                        result.validation = self._validate(ctx)
            if collector is not None:
                result.trace = collector.trace_doc()
            return result
        finally:
            ctx.release_locks()
            if own_dir and ctx.base_dir is not None:
                shutil.rmtree(ctx.base_dir, ignore_errors=True)

    def _resolve_backend(
        self, config: PipelineConfig, backend: Optional[Backend]
    ) -> Backend:
        """Resolve the backend and enforce the strategy capability."""
        backend = backend if backend is not None else get_backend(config.backend)
        if self.required_capability not in backend.capabilities:
            raise ExecutorCapabilityError(
                f"backend {backend.name!r} does not declare the "
                f"{self.required_capability!r} capability required by the "
                f"{self.name or type(self).__name__} execution strategy; "
                f"declared: {sorted(backend.capabilities)}"
            )
        return backend

    def _run_stages(self, ctx: StageContext, result: PipelineResult) -> None:
        """Run every stage of :data:`~repro.core.stages.STAGES` in order,
        timing each from outside.

        The async executor overrides this with a task-graph run; it must
        honour the same obligations — artifacts stored under each
        stage's ``provides`` key, one
        :class:`~repro.core.results.KernelResult` per stage in order,
        each built by :meth:`~repro.core.stages.Stage.result`, contracts
        checked through :meth:`_check_contract`.
        """
        for stage in STAGES:
            with trace.span(f"stage:{stage.kernel.value}", cat="stage") as sp:
                faults = minor_faults()
                watch = StopWatch().start()
                output, details = self._run_stage(stage, ctx)
                seconds = watch.stop()
                if faults is not None:
                    # Pages first touched inside the stage (see
                    # repro._util.heap); this process's only — process
                    # ranks fault in their own.
                    details["minor_faults"] = minor_faults() - faults
                # A strategy that cannot be timed from outside (the
                # shard-parallel K2/K3 phases run fused inside one
                # per-rank program) reports its own clock instead.
                seconds = float(details.get("measured_seconds", seconds))
                sp.set(seconds=seconds,
                       officially_timed=stage.officially_timed)
            ctx.artifacts[stage.provides] = output
            self._check_contract(stage, ctx, details)
            result.kernels.append(stage.result(ctx.config, seconds, details))

    @staticmethod
    def _check_contract(stage: Stage, ctx: StageContext, details: Details) -> None:
        """Check the stage's contract once its artifact is stored.

        Every executor calls this right after a stage completes, so a
        violation aborts the run before downstream stages waste work.
        The check runs outside the stage's timed region, under a
        ``contract:<kernel>`` span, and its duration is recorded as
        ``details["contract_seconds"]``.  Nothing runs unless
        ``ctx.config.verify``.
        """
        if not ctx.config.verify:
            return
        with trace.span(f"contract:{stage.kernel.value}", cat="verify"):
            watch = StopWatch().start()
            stage.contract.check(ctx)
            details["contract_seconds"] = watch.stop()

    # ------------------------------------------------------------------
    def _run_stage(self, stage: Stage, ctx: StageContext) -> StageOutput:
        """Dispatch one stage to the strategy's kernel routing."""
        handlers = {
            KernelName.K0_GENERATE: self._run_generate,
            KernelName.K1_SORT: self._run_sort,
            KernelName.K2_FILTER: self._run_filter,
            KernelName.K3_PAGERANK: self._run_pagerank,
        }
        return handlers[stage.kernel](ctx)

    def _validate(self, ctx: StageContext) -> Dict[str, object]:
        """The Section IV.D eigenvector cross-check (small scales)."""
        from repro.pagerank.validate import validate_rank

        handle = ctx.require(ARTIFACT_ADJACENCY)
        rank = np.asarray(ctx.require(ARTIFACT_RANK))
        report = validate_rank(
            handle.to_scipy_csr(), rank, damping=ctx.config.damping
        )
        return report.to_dict()

    # -- kernel routing (overridden by strategies) ---------------------
    @staticmethod
    def _maybe_cached(ctx, kind, fields, producer) -> StageOutput:
        """Route a dataset-producing stage through the artifact cache
        when ``config.cache_dir`` is set, else into the run directory.

        The entry's shared lock is held for the rest of the run (via
        ``ctx.held_locks``): later stages read the dataset's shards
        lazily, and a concurrent ``prune`` must not evict them
        mid-read."""
        if ctx.config.cache_dir is not None:
            cache = ArtifactCache(ctx.config.cache_dir)
            return cache.dataset(kind, fields, producer, hold=ctx.held_locks)
        return producer(ctx.run_dir() / kind)

    def _run_generate(self, ctx: StageContext) -> StageOutput:
        config = ctx.config
        return self._maybe_cached(
            ctx,
            "k0",
            k0_cache_fields(config, ctx.backend.name),
            lambda out_dir: ctx.backend.kernel0(config, out_dir),
        )

    def _run_sort(self, ctx: StageContext) -> StageOutput:
        return self._maybe_cached(
            ctx,
            "k1",
            k1_cache_fields(ctx.config, ctx.backend.name),
            lambda out_dir: self._compute_sort(ctx, out_dir),
        )

    def _compute_sort(self, ctx: StageContext, out_dir: Path) -> StageOutput:
        """Actually sort Kernel 0's dataset into ``out_dir``
        (strategy-specific)."""
        return ctx.backend.kernel1(ctx.config, ctx.require(ARTIFACT_K0), out_dir)

    def _run_filter(self, ctx: StageContext) -> StageOutput:
        return self._filter_with_cache(ctx, self._compute_filter)

    def _compute_filter(self, ctx: StageContext) -> StageOutput:
        """Actually build the filtered matrix (strategy-specific)."""
        return ctx.backend.kernel2(ctx.config, ctx.require(ARTIFACT_K1))

    def _filter_with_cache(
        self,
        ctx: StageContext,
        compute: Callable[[StageContext], StageOutput],
    ) -> StageOutput:
        """Route Kernel 2 through the CSR artifact cache when enabled.

        The filtered matrix is a pure function of the Kernel 1 dataset
        (same key fields plus the producing backend), so ``repeats``
        sweeps with a warm cache skip the K2 rebuild entirely.  Needs
        :meth:`~repro.backends.base.Backend.adjacency_from_csr` to adopt
        the reloaded matrix, so backends without the ``streaming``
        capability always compute.  On a miss the spill write happens
        *after* the measured compute (``measured_seconds`` carries the
        honest kernel time); its cost is recorded separately.
        """
        config = ctx.config
        if config.cache_dir is None or "streaming" not in ctx.backend.capabilities:
            return compute(ctx)
        cache = ArtifactCache(config.cache_dir)
        fields = k2_cache_fields(
            config, ctx.backend.name, variant=self.k2_cache_variant
        )
        key = cache_key(fields)
        cached = cache.load_csr("k2", fields)
        if cached is not None:
            matrix, meta = cached
            handle = ctx.backend.adjacency_from_csr(
                matrix, float(meta["pre_filter_entry_total"])
            )
            details: Details = {
                "artifact_cache": "hit",
                "artifact_cache_key": key,
                "nnz": handle.nnz,
                "pre_filter_entry_total": handle.pre_filter_entry_total,
                # The matrix is a pure function of the K1 dataset, so
                # the ingested-edge count equals the pre-filter total
                # the producing run recorded.
                "edges_processed": int(float(meta["pre_filter_entry_total"])),
            }
            if meta.get("eliminated_columns") is not None:
                details["eliminated_columns"] = meta["eliminated_columns"]
            return handle, details
        watch = StopWatch().start()
        handle, details = compute(ctx)
        compute_seconds = watch.stop()
        details = dict(details)
        details.setdefault("measured_seconds", compute_seconds)
        spill_watch = StopWatch().start()
        cache.store_csr(
            "k2",
            fields,
            handle.compressed(),
            {
                "pre_filter_entry_total": float(handle.pre_filter_entry_total),
                "eliminated_columns": details.get("eliminated_columns"),
            },
        )
        details["artifact_cache"] = "miss"
        details["artifact_cache_key"] = key
        details["k2_cache_store_seconds"] = spill_watch.stop()
        return handle, details

    def _run_pagerank(self, ctx: StageContext) -> StageOutput:
        return ctx.backend.kernel3(ctx.config, ctx.require(ARTIFACT_ADJACENCY))


def stream_sort(ctx: StageContext, out_dir: Path) -> StageOutput:
    """Out-of-core Kernel 1: the run/merge sort of the Kernel 0 dataset
    in runs of ``streaming_batch_edges`` edges, written in the shard
    layout and manifest of the in-memory sort (the same files, so both
    share a cache entry): the streaming executor's Kernel 1."""
    config = ctx.config
    timings = Timings()
    dataset = external_sort_dataset(
        ctx.require(ARTIFACT_K0),
        out_dir,
        config=ExternalSortConfig(batch_edges=config.streaming_batch_edges,
                                  tmp_dir=ctx.run_dir() / "k1-scratch"),
        num_shards=config.num_files,
        by_end_vertex=config.sort_by_end_vertex,
        extra=kernel1_manifest(config),
        timings=timings,
    )
    details: Details = {
        "phases": timings.as_dict(),
        "algorithm": "external",
        "batch_edges": config.streaming_batch_edges,
        "num_shards": dataset.num_shards,
        "execution": "streaming",
    }
    return dataset, details


def stream_filter(ctx: StageContext) -> StageOutput:
    """Out-of-core Kernel 2 over the Kernel 1 dataset, adopted into the
    backend's adjacency handle: the streaming executor's Kernel 2."""
    from repro.core.streaming import streaming_kernel2

    batch_edges = ctx.config.streaming_batch_edges
    streamed = streaming_kernel2(
        ctx.require(ARTIFACT_K1),
        batch_edges=batch_edges,
        scratch_dir=ctx.run_dir() / "k2-scratch",
    )
    handle = ctx.backend.adjacency_from_csr(
        streamed.matrix, streamed.pre_filter_entry_total
    )
    details: Details = {
        "phases": dict(streamed.phases),
        "batch_edges": batch_edges,
        "batches": streamed.batches,
        "unique_triples": streamed.unique_triples,
        "eliminated_columns": streamed.eliminated_columns,
        "pre_filter_entry_total": streamed.pre_filter_entry_total,
        "nnz": handle.nnz,
        # Edge records actually ingested by pass 1 — may differ from
        # config.num_edges when contracts are disabled and the
        # dataset does not hold exactly M edges.
        "edges_processed": int(streamed.pre_filter_entry_total),
        "execution": "streaming",
    }
    return handle, details


class SerialExecutor(Executor):
    """Current behaviour: all four kernels through the serial backend."""

    name = "serial"


class StreamingExecutor(Executor):
    """Out-of-core Kernels 1 and 2; Kernels 0 and 3 serial.

    ``config.streaming_batch_edges`` is the one memory knob: Kernel 1
    sorts runs of that many edges and merges them (:func:`stream_sort`),
    whatever the backend's own sort; Kernel 2 streams the sorted
    dataset in batches of that size (peak memory ``O(batch + N)``
    instead of ``O(M + N)``) and hands the resulting CSR matrix back to
    the backend via
    :meth:`~repro.backends.base.Backend.adjacency_from_csr`.
    """

    name = "streaming"
    k2_cache_variant = "streaming-csr"

    def _compute_sort(self, ctx: StageContext, out_dir: Path) -> StageOutput:
        return stream_sort(ctx, out_dir)

    def _compute_filter(self, ctx: StageContext) -> StageOutput:
        return stream_filter(ctx)


class _ParallelAdjacency(AdjacencyHandle):
    """Contract/validation view over the distributed Kernel 2 output.

    The distributed matrix lives sharded across the ranks and is
    never gathered; this handle exposes the aggregate facts the
    :class:`~repro.core.stages.FilterContract` needs, and rebuilds the
    matrix out-of-core only if validation explicitly asks for it.
    """

    def __init__(
        self,
        k1_dataset,
        num_vertices: int,
        pre_filter_total: float,
        nnz: int,
    ) -> None:
        self._k1_dataset = k1_dataset
        self._n = int(num_vertices)
        self._pre_filter_total = float(pre_filter_total)
        self._nnz = int(nnz)

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def pre_filter_entry_total(self) -> float:
        return self._pre_filter_total

    def to_scipy_csr(self) -> sp.csr_matrix:
        from repro.core.streaming import streaming_kernel2

        return streaming_kernel2(self._k1_dataset).matrix


class ShardParallelExecutor(Executor):
    """Kernels 2+3 through the distributed (thread- or process-rank) driver.

    The driver runs exchange → Kernel 2 → Kernel 3 as one fused per-rank
    program during the Kernel 2 stage; per-rank phase clocks split the
    wall-clock back into the two kernels (``measured_seconds`` in each
    stage's details, honoured by the base executor) so sweep records and
    figures report real per-kernel throughput.  The driver's
    :class:`~repro.parallel.traffic.TrafficLog` summary lands in the
    Kernel 3 details.
    """

    name = "parallel"

    def _run_filter(self, ctx: StageContext) -> StageOutput:
        from repro.parallel.driver import run_parallel_pipeline

        config = ctx.config
        source = ctx.require(ARTIFACT_K1)
        read_watch = StopWatch().start()
        u, v = source.read_all()
        read_seconds = read_watch.stop()
        run = run_parallel_pipeline(
            u,
            v,
            source.num_vertices,
            num_ranks=config.parallel_ranks,
            initial_rank=ctx.backend.initial_rank(config),
            damping=config.damping,
            iterations=config.iterations,
            formula=config.formula,
            executor=config.parallel_executor,
        )
        ctx.scratch["parallel_run"] = run
        handle = _ParallelAdjacency(
            source,
            source.num_vertices,
            # Indexed, not .get(): a driver that stops reporting the
            # total must fail loudly, not slip past FilterContract.
            run.kernel2_details["pre_filter_entry_total"],
            sum(run.local_nnz),
        )
        details: Details = dict(run.kernel2_details)
        details.update(
            {
                "execution": "parallel",
                "parallel_executor": config.parallel_executor,
                "num_ranks": run.num_ranks,
                "local_nnz": list(run.local_nnz),
                "edges_processed": len(u),
                # File read + slowest rank's exchange+K2 phase; the K3
                # phase (also computed by the fused run) is reported by
                # the K3 stage from its own phase clock.
                "measured_seconds": read_seconds + run.kernel2_seconds,
            }
        )
        return handle, details

    def _run_pagerank(self, ctx: StageContext) -> StageOutput:
        run = ctx.scratch["parallel_run"]
        config = ctx.config
        details: Details = {
            "execution": "parallel",
            "num_ranks": run.num_ranks,
            "iterations": config.iterations,
            "damping": config.damping,
            "rank_sum": float(run.rank_vector.sum()),
            "traffic": dict(run.traffic),
            "measured_seconds": run.kernel3_seconds,
        }
        return run.rank_vector, details


# The async executor lives in its own module (which imports this one for
# the base class), so its registry entry is a lazy "module:Class" string
# resolved on first use — a concrete class reference here would be an
# import cycle.
_EXECUTORS: Dict[str, Union[Type[Executor], str]] = {
    SerialExecutor.name: SerialExecutor,
    StreamingExecutor.name: StreamingExecutor,
    ShardParallelExecutor.name: ShardParallelExecutor,
    "async": "repro.core.async_executor:AsyncExecutor",
}

# The registry and the config-level mode list (which gates
# PipelineConfig.execution and the CLI choices) must not drift: fail at
# import, not at first use, when a strategy is added to only one.
if set(_EXECUTORS) != set(EXECUTION_MODES):  # pragma: no cover
    raise RuntimeError(
        f"executor registry {sorted(_EXECUTORS)} out of sync with "
        f"config.EXECUTION_MODES {sorted(EXECUTION_MODES)}"
    )


def available_executions() -> Tuple[str, ...]:
    """Registered execution-strategy names, in definition order."""
    return tuple(_EXECUTORS)


def get_executor(name: str) -> Executor:
    """Instantiate an execution strategy by name.

    Raises
    ------
    KeyError
        With the list of valid names when ``name`` is unknown.
    """
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        valid = ", ".join(available_executions())
        raise KeyError(
            f"unknown execution strategy {name!r}; available: {valid}"
        ) from None
    if isinstance(cls, str):
        import importlib

        module_name, _, attr = cls.partition(":")
        cls = getattr(importlib.import_module(module_name), attr)
        _EXECUTORS[name] = cls  # resolve once
    return cls()
