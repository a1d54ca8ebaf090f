"""Run one configured benchmark pipeline.

:func:`run_pipeline` builds the benchmark's default
:class:`~repro.core.stages.ExecutionPlan` and hands it to the execution
strategy named by ``config.execution`` (serial / streaming / parallel /
async — see :mod:`repro.core.executor` and
:mod:`repro.core.async_executor`).  It is the engine under
:func:`repro.api.execute_spec`; describe work as a
:class:`repro.api.RunSpec` unless you already hold a config.

Sequencing ("each kernel in the pipeline must be fully completed before
the next kernel can begin"), per-kernel timing, and the four
inter-kernel contracts all live in the plan and executors, so every
strategy enforces them identically:

* K0 → K1: edge counts match; K1 output is sorted by start vertex;
* K2: adjacency entries summed to ``M`` before filtering
  ("all the entries in A should sum to M");
* K3: rank vector is finite, length ``N``, and (optionally) matches the
  principal eigenvector per Section IV.D.

Contract checks run *outside* the timed regions.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import Backend
from repro.core.config import PipelineConfig
from repro.core.executor import get_executor
from repro.core.results import PipelineResult
from repro.core.stages import ExecutionPlan


def run_pipeline(
    config: PipelineConfig,
    *,
    backend: Optional[Backend] = None,
    verify: bool = True,
    plan: Optional[ExecutionPlan] = None,
) -> PipelineResult:
    """Execute Kernels 0–3 and return the aggregated result.

    Parameters
    ----------
    config:
        The run configuration; ``config.execution`` selects the
        strategy.
    backend:
        Backend instance; resolved from ``config.backend`` when omitted.
    verify:
        Run the inter-kernel contract checks (recommended; disable
        only inside tight benchmark loops where the checks' extra
        file reads would perturb I/O caches).
    plan:
        Stage graph override (defaults to the benchmark's four-stage
        plan with all contracts attached).

    Examples
    --------
    >>> from repro.core.config import KernelName, PipelineConfig
    >>> res = run_pipeline(PipelineConfig(scale=6, seed=1, backend="numpy"))
    >>> res.kernel(KernelName.K3_PAGERANK).edges_processed
    20480
    """
    executor = get_executor(config.execution, plan)
    return executor.execute(config, backend, verify=verify)
