"""The pipeline's stages: the four kernels with their contracts.

The paper describes *one* pipeline whose kernels stress different system
axes, but an implementation can run that pipeline many ways — serially
in memory, out-of-core, or sharded across ranks.  This module factors
the *protocol* out of any single execution strategy:

* :class:`Contract` — a named post-condition verified after a stage
  (the four inter-kernel checks of Sections IV.A–D), enforced
  identically by every executor and always *outside* the timed region;
* :class:`Stage` — one kernel: the artifact it provides, its contract,
  whether its time counts toward the benchmark;
* :data:`STAGES` — the four stages in order (the benchmark's "each
  kernel ... must be fully completed before the next kernel can
  begin");
* :class:`StageContext` — the artifact store threaded through a run.

Executors (:mod:`repro.core.executor`) decide *how* each stage's kernel
is computed; :data:`STAGES` fixes *what* must happen and *what must
hold* afterwards.

>>> [stage.kernel.value for stage in STAGES]
['k0-generate', 'k1-sort', 'k2-filter', 'k3-pagerank']
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, TYPE_CHECKING

import numpy as np

from repro.core.config import KernelName, PipelineConfig
from repro.core.exceptions import KernelContractError
from repro.core.results import KernelResult
from repro.sort.inmemory import is_sorted_by_pair, is_sorted_by_start

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.backends.base import Backend

#: Artifact keys the stages provide, in order.
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
    """One kernel of the pipeline.

    Attributes
    ----------
    kernel:
        Which benchmark kernel this stage executes.
    provides:
        Artifact key this stage stores its output under; each stage
        reads the one before it.
    contract:
        Post-condition verified (outside the timed region) when the
        run's ``config.verify`` holds (``validation`` is ``contracts``
        or ``full``).
    officially_timed:
        False for Kernel 0 (paper: "performance is not part of the
        benchmark" but still reported for Figure 4).
    iterations_scaled:
        Whether throughput counts ``iterations * M`` edge operations
        (Kernel 3) instead of ``M``.
    """

    kernel: KernelName
    provides: str
    contract: Contract
    officially_timed: bool = True
    iterations_scaled: bool = False

    def nominal_edges(self, config: PipelineConfig) -> int:
        """Edge operations attributed to this stage by the spec."""
        if self.iterations_scaled:
            return config.iterations * config.num_edges
        return config.num_edges

    def result(
        self, config: PipelineConfig, seconds: float, details: Dict[str, object]
    ) -> KernelResult:
        """This stage's :class:`~repro.core.results.KernelResult`.

        The edge count is the kernel-reported
        ``details["edges_processed"]`` when present (e.g. the streaming
        Kernel 2 reports what it actually ingested), else
        :meth:`nominal_edges`.
        """
        edges = int(details.get("edges_processed", self.nominal_edges(config)))
        return KernelResult(
            kernel=self.kernel,
            seconds=seconds,
            edges_processed=edges,
            officially_timed=self.officially_timed,
            details=details,
        )


#: The benchmark's pipeline: the four kernels in order, each "fully
#: completed before the next kernel can begin".
STAGES: Tuple[Stage, ...] = (
    Stage(KernelName.K0_GENERATE, ARTIFACT_K0, GenerateContract(),
          officially_timed=False),
    Stage(KernelName.K1_SORT, ARTIFACT_K1, SortContract()),
    Stage(KernelName.K2_FILTER, ARTIFACT_ADJACENCY, FilterContract()),
    Stage(KernelName.K3_PAGERANK, ARTIFACT_RANK, RankContract(),
          iterations_scaled=True),
)
