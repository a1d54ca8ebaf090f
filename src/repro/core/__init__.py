"""Pipeline core: configuration, kernel sequencing, timing, results.

This package owns the benchmark *protocol* — what each kernel must do,
in what order, and how performance is reported — while the actual kernel
implementations live in :mod:`repro.backends`.  The split mirrors the
paper's "algorithm-oriented benchmark" philosophy (Section II): inputs,
outputs, and the algorithm are fixed here; the implementation technology
is swappable.
"""

from __future__ import annotations

from repro.core.artifacts import ArtifactCache, CacheEntry
from repro.core.config import (
    EXECUTION_MODES,
    KernelName,
    PipelineConfig,
    run_sizes_table,
)
from repro.core.exceptions import (
    ExecutorCapabilityError,
    KernelContractError,
    PipelineError,
)
from repro.core.executor import (
    Executor,
    SerialExecutor,
    ShardParallelExecutor,
    StreamingExecutor,
    available_executions,
    get_executor,
)
from repro.core.pipeline import run_pipeline
from repro.core.results import KernelResult, PipelineResult
from repro.core.scheduler import ScheduleResult, SchedulerError, TaskGraph
from repro.core.stages import STAGES, Contract, Stage

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "Contract",
    "EXECUTION_MODES",
    "Executor",
    "ExecutorCapabilityError",
    "KernelContractError",
    "KernelName",
    "KernelResult",
    "PipelineConfig",
    "PipelineError",
    "PipelineResult",
    "STAGES",
    "ScheduleResult",
    "SchedulerError",
    "SerialExecutor",
    "ShardParallelExecutor",
    "Stage",
    "StreamingExecutor",
    "TaskGraph",
    "available_executions",
    "get_executor",
    "run_pipeline",
    "run_sizes_table",
]
