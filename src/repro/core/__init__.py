"""Pipeline core: configuration, kernel sequencing, timing, results.

This package owns the benchmark *protocol* — what each kernel must do,
in what order, and how performance is reported — while the actual kernel
implementations live in :mod:`repro.backends`.  The split mirrors the
paper's "algorithm-oriented benchmark" philosophy (Section II): inputs,
outputs, and the algorithm are fixed here; the implementation technology
is swappable.
"""

from __future__ import annotations

from repro._util.lazy import lazy_exports
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

# The engine imports numpy and scipy: loaded on first use, so that the
# spec layer reads the config without them.
__getattr__ = lazy_exports(__name__, {
    "ArtifactCache": "repro.core.artifacts",
    "CacheEntry": "repro.core.artifacts",
    "Executor": "repro.core.executor",
    "SerialExecutor": "repro.core.executor",
    "ShardParallelExecutor": "repro.core.executor",
    "StreamingExecutor": "repro.core.executor",
    "available_executions": "repro.core.executor",
    "get_executor": "repro.core.executor",
    "run_pipeline": "repro.core.pipeline",
    "KernelResult": "repro.core.results",
    "PipelineResult": "repro.core.results",
    "ScheduleResult": "repro.core.scheduler",
    "SchedulerError": "repro.core.scheduler",
    "TaskGraph": "repro.core.scheduler",
    "STAGES": "repro.core.stages",
    "Contract": "repro.core.stages",
    "Stage": "repro.core.stages",
})

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
