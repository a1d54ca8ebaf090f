"""Run one configured benchmark pipeline.

:func:`run_pipeline` runs the benchmark's four kernels
(:data:`~repro.core.stages.STAGES`) through the execution strategy
named by ``config.execution`` (serial / streaming / parallel /
async — see :mod:`repro.core.executor` and
:mod:`repro.core.async_executor`).  It is the engine under
:func:`repro.api.execute_spec`; describe work as a
:class:`repro.api.RunSpec` unless you already hold a config.

Sequencing ("each kernel in the pipeline must be fully completed before
the next kernel can begin"), per-kernel timing, and the four
inter-kernel contracts all live in the stages and executors, so every
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

from repro._util.heap import keep_heap
from repro.backends.base import Backend
from repro.core.config import PipelineConfig
from repro.core.executor import get_executor
from repro.core.results import PipelineResult


def run_pipeline(
    config: PipelineConfig,
    *,
    backend: Optional[Backend] = None,
) -> PipelineResult:
    """Execute Kernels 0–3 and return the aggregated result.

    Parameters
    ----------
    config:
        The run configuration; ``config.execution`` selects the
        strategy and ``config.validation`` the checks (the default,
        ``"contracts"``, runs the inter-kernel contracts; ``"off"``
        belongs inside tight benchmark loops, where the checks' extra
        file reads would perturb I/O caches).
    backend:
        Backend instance; resolved from ``config.backend`` when omitted.

    Examples
    --------
    >>> from repro.core.config import KernelName, PipelineConfig
    >>> res = run_pipeline(PipelineConfig(scale=6, seed=1, backend="numpy"))
    >>> res.kernel(KernelName.K3_PAGERANK).edges_processed
    20480
    """
    # First, before any kernel allocates: the allocator policy every
    # run is measured under (repro._util.heap), reported with the last
    # stage (Kernel 3).
    heap_policy = keep_heap()
    executor = get_executor(config.execution)
    result = executor.execute(config, backend)
    result.kernels[-1].details["heap_policy"] = heap_policy
    return result
