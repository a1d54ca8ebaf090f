"""The stage graph: kernels as composable, contract-checked nodes.

The paper describes *one* pipeline whose kernels stress different system
axes, but an implementation can run that pipeline many ways — serially
in memory, out-of-core, or sharded across ranks.  This module factors
the *protocol* out of any single execution strategy:

* :class:`Contract` — a named post-condition verified after a stage
  (the four inter-kernel checks of Sections IV.A–D), enforced
  identically by every executor and always *outside* the timed region;
* :class:`Stage` — one kernel as a graph node: what it provides, what
  artifacts it consumes, whether its time counts toward the benchmark;
* :class:`ExecutionPlan` — an ordered, dependency-validated sequence of
  stages (the benchmark's "each kernel ... must be fully completed
  before the next kernel can begin");
* :class:`StageContext` — the artifact store threaded through a run.

Executors (:mod:`repro.core.executor`) decide *how* each stage's kernel
is computed; the plan decides *what* must happen and *what must hold*
afterwards.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import KernelName, PipelineConfig
from repro.core.exceptions import KernelContractError
from repro.sort.inmemory import is_sorted_by_pair, is_sorted_by_start

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import Backend

#: Artifact keys produced by the default plan, in order.
ARTIFACT_K0 = "k0_dataset"
ARTIFACT_K1 = "k1_dataset"
ARTIFACT_ADJACENCY = "adjacency"
ARTIFACT_RANK = "rank"


@dataclass
class StageContext:
    """Mutable state threaded through one pipeline execution.

    Attributes
    ----------
    config:
        The run configuration.
    backend:
        The backend computing (some of) the kernels.
    base_dir:
        Scratch/file directory for this run.
    artifacts:
        Stage outputs keyed by :attr:`Stage.provides`.
    scratch:
        Executor-private state (e.g. the fused parallel-run result).
    held_locks:
        Shared artifact-cache entry locks acquired for this run (cache
        datasets are read lazily by later stages, so eviction must be
        kept away until the run ends); released by the executor's
        :meth:`release_locks` in its ``finally`` block.
    """

    config: PipelineConfig
    backend: "Backend"
    base_dir: Path
    artifacts: Dict[str, object] = field(default_factory=dict)
    scratch: Dict[str, object] = field(default_factory=dict)
    held_locks: List[object] = field(default_factory=list)

    def release_locks(self) -> None:
        """Release every held cache-entry lock (idempotent)."""
        while self.held_locks:
            self.held_locks.pop().release()

    def require(self, key: str) -> object:
        """Fetch an artifact, raising a diagnosable error when missing."""
        try:
            return self.artifacts[key]
        except KeyError:
            raise KernelContractError(
                f"artifact {key!r} was never produced; available: "
                f"{sorted(self.artifacts)}"
            ) from None


class Contract(abc.ABC):
    """A named post-condition enforced after one stage completes.

    Contracts read the :class:`StageContext` (the stage's own output
    and, when needed, earlier artifacts) and raise
    :class:`~repro.core.exceptions.KernelContractError` on violation.
    They never mutate state and always run outside timed regions, so
    every executor pays the same zero measurement cost for them.
    """

    #: Human-readable contract id (shown in error context / docs).
    name: str = ""

    @abc.abstractmethod
    def check(self, ctx: StageContext) -> None:
        """Verify the post-condition, raising on violation."""


class GenerateContract(Contract):
    """K0: edge and vertex counts match the configured problem size."""

    name = "k0-counts"

    def check(self, ctx: StageContext) -> None:
        dataset = ctx.require(ARTIFACT_K0)
        expected = ctx.config.num_edges
        if dataset.num_edges != expected:
            raise KernelContractError(
                f"Kernel 0 wrote {dataset.num_edges} edges, spec requires "
                f"M = {expected}"
            )
        if dataset.num_vertices != ctx.config.num_vertices:
            raise KernelContractError(
                f"Kernel 0 dataset declares N = {dataset.num_vertices}, "
                f"config requires {ctx.config.num_vertices}"
            )


class SortContract(Contract):
    """K1: edge count preserved; output sorted by start vertex, or by
    ``(u, v)`` when the config sets ``sort_by_end_vertex``."""

    name = "k1-sorted"

    def check(self, ctx: StageContext) -> None:
        source = ctx.require(ARTIFACT_K0)
        output = ctx.require(ARTIFACT_K1)
        if output.num_edges != source.num_edges:
            raise KernelContractError(
                f"Kernel 1 changed the edge count: {source.num_edges} -> "
                f"{output.num_edges}"
            )
        by_pair = ctx.config.sort_by_end_vertex
        key = "(u, v)" if by_pair else "start vertex"
        width = 2 if by_pair else 1  # how much of (u, v) the order compares
        previous_last = None
        for u, v in output.iter_shards():
            if len(u) == 0:
                continue
            if not (is_sorted_by_pair(u, v) if by_pair else is_sorted_by_start(u)):
                raise KernelContractError(
                    f"Kernel 1 output is not sorted by {key} within a shard"
                )
            first = (int(u[0]), int(v[0]))[:width]
            if previous_last is not None and first < previous_last:
                raise KernelContractError(
                    f"Kernel 1 output is not sorted by {key} across shard "
                    f"boundaries"
                )
            previous_last = (int(u[-1]), int(v[-1]))[:width]


class FilterContract(Contract):
    """K2: pre-filter entries sum to M; matrix dimension is N."""

    name = "k2-entry-sum"

    def check(self, ctx: StageContext) -> None:
        handle = ctx.require(ARTIFACT_ADJACENCY)
        expected = float(ctx.config.num_edges)
        total = handle.pre_filter_entry_total
        if not np.isfinite(total):
            raise KernelContractError(
                f"Kernel 2 pre-filter entry total is non-finite ({total}), "
                f"spec requires M = {expected}"
            )
        if abs(total - expected) > 1e-6 * max(expected, 1.0):
            raise KernelContractError(
                f"Kernel 2 adjacency entries sum to {total}, spec requires "
                f"M = {expected}"
            )
        if handle.num_vertices != ctx.config.num_vertices:
            raise KernelContractError(
                f"Kernel 2 matrix is {handle.num_vertices}-dimensional, "
                f"config requires N = {ctx.config.num_vertices}"
            )


class RankContract(Contract):
    """K3: rank vector is finite, non-negative, and length N."""

    name = "k3-rank-vector"

    def check(self, ctx: StageContext) -> None:
        rank = np.asarray(ctx.require(ARTIFACT_RANK))
        n = ctx.config.num_vertices
        if rank.shape != (n,):
            raise KernelContractError(
                f"Kernel 3 rank vector has shape {rank.shape}, expected ({n},)"
            )
        if not np.isfinite(rank).all():
            raise KernelContractError("Kernel 3 rank vector has non-finite entries")
        if (rank < 0).any():
            raise KernelContractError("Kernel 3 rank vector has negative entries")


@dataclass(frozen=True)
class Stage:
    """One kernel as a node of the execution graph.

    Attributes
    ----------
    kernel:
        Which benchmark kernel this stage executes.
    provides:
        Artifact key this stage stores its output under.
    requires:
        Artifact keys that must exist before the stage may run.
    officially_timed:
        False for Kernel 0 (paper: "performance is not part of the
        benchmark" but still reported for Figure 4).
    contract:
        Post-condition verified (outside the timed region) when the
        executor runs with ``verify=True``.
    iterations_scaled:
        Whether throughput counts ``iterations * M`` edge operations
        (Kernel 3) instead of ``M``.
    """

    kernel: KernelName
    provides: str
    requires: Tuple[str, ...] = ()
    officially_timed: bool = True
    contract: Optional[Contract] = None
    iterations_scaled: bool = False

    def nominal_edges(self, config: PipelineConfig) -> int:
        """Edge operations attributed to this stage by the spec.

        Executors prefer a kernel-reported ``details["edges_processed"]``
        when present (e.g. the streaming Kernel 2 reports what it
        actually ingested); this is the fallback.
        """
        if self.iterations_scaled:
            return config.iterations * config.num_edges
        return config.num_edges


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated, ordered stage graph.

    The constructor verifies the dependency closure: every ``requires``
    key must be provided by an *earlier* stage, and no two stages may
    provide the same artifact.  This is what lets executors be dumb
    loops — sequencing correctness is a property of the plan.

    Examples
    --------
    >>> plan = default_plan()
    >>> [stage.kernel.value for stage in plan.stages]
    ['k0-generate', 'k1-sort', 'k2-filter', 'k3-pagerank']
    """

    stages: Tuple[Stage, ...]

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("ExecutionPlan needs at least one stage")
        provided: set = set()
        for stage in self.stages:
            missing = [key for key in stage.requires if key not in provided]
            if missing:
                raise ValueError(
                    f"stage {stage.kernel.value} requires {missing} which no "
                    f"earlier stage provides"
                )
            if stage.provides in provided:
                raise ValueError(
                    f"artifact {stage.provides!r} provided by more than one "
                    f"stage"
                )
            provided.add(stage.provides)

    def stage(self, kernel: KernelName) -> Stage:
        """Fetch the stage executing ``kernel``.

        Raises
        ------
        KeyError
            When the plan has no stage for that kernel.
        """
        for stage in self.stages:
            if stage.kernel is kernel:
                return stage
        raise KeyError(f"plan has no stage for {kernel.value}")


def default_plan() -> ExecutionPlan:
    """The benchmark's canonical four-stage plan with all contracts."""
    return ExecutionPlan(
        stages=(
            Stage(
                kernel=KernelName.K0_GENERATE,
                provides=ARTIFACT_K0,
                officially_timed=False,
                contract=GenerateContract(),
            ),
            Stage(
                kernel=KernelName.K1_SORT,
                provides=ARTIFACT_K1,
                requires=(ARTIFACT_K0,),
                contract=SortContract(),
            ),
            Stage(
                kernel=KernelName.K2_FILTER,
                provides=ARTIFACT_ADJACENCY,
                requires=(ARTIFACT_K1,),
                contract=FilterContract(),
            ),
            Stage(
                kernel=KernelName.K3_PAGERANK,
                provides=ARTIFACT_RANK,
                requires=(ARTIFACT_ADJACENCY,),
                contract=RankContract(),
                iterations_scaled=True,
            ),
        )
    )
