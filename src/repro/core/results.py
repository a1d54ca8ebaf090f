"""Result records for kernels and whole pipeline runs.

The benchmark's reporting currency is *edges per second*:

* Kernel 1 and 2: ``M / t``;
* Kernel 3: ``iterations * M / t`` (20 SpMVs each touch all M edges);
* Kernel 0 is officially untimed but measured anyway for Figure 4.

``KernelResult`` captures one kernel's timing plus a free-form details
dict (phase breakdowns, nnz counts); ``PipelineResult`` aggregates the
four kernels with the config echo and optional validation output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import KernelName, PipelineConfig


@dataclass(frozen=True)
class KernelResult:
    """Timing and throughput for one kernel execution.

    Attributes
    ----------
    kernel:
        Which kernel this measures.
    seconds:
        Wall-clock duration of the timed region.
    edges_processed:
        Edge operations attributed to the kernel (``M``, or
        ``iterations * M`` for Kernel 3).
    officially_timed:
        False for Kernel 0, whose "performance is not part of the
        benchmark" but is still reported in the paper's Figure 4.
    details:
        Free-form metrics: phase timings, nnz, eliminated column counts…
    """

    kernel: KernelName
    seconds: float
    edges_processed: int
    officially_timed: bool = True
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def edges_per_second(self) -> float:
        """Throughput; ``inf`` when the timed region was unmeasurably fast."""
        if self.seconds <= 0.0:
            return float("inf")
        return self.edges_processed / self.seconds

    @property
    def cached(self) -> bool:
        """Whether the output was served from the artifact cache.

        A cached kernel's ``seconds`` measures a cache read, so its
        throughput must not be presented as kernel performance.
        """
        return self.details.get("artifact_cache") == "hit"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding.

        ``edges_per_second`` is ``None`` for cached kernels — consumers
        get an explicit gap instead of cache-read speed masquerading as
        throughput (matching the report/figure handling).
        """
        return {
            "kernel": self.kernel.value,
            "seconds": self.seconds,
            "edges_processed": self.edges_processed,
            "edges_per_second": None if self.cached else self.edges_per_second,
            "officially_timed": self.officially_timed,
            "cached": self.cached,
            "details": _json_safe(self.details),
        }


@dataclass
class PipelineResult:
    """Everything a pipeline run produced.

    Attributes
    ----------
    config:
        The config that produced this result.
    kernels:
        Per-kernel results, in execution order.
    rank:
        Final PageRank vector (length ``N``).
    validation:
        Eigenvector cross-check output when ``config.validation`` asked
        for it (``full``).
    wall_seconds:
        Measured end-to-end wall-clock of the whole run (set by the
        executors).  Equals roughly :attr:`total_seconds` for serial
        strategies; *smaller* under the async executor, whose per-kernel
        ``seconds`` report busy time so throughput stays comparable while
        the overlap's saving shows up here.
    trace:
        Run-trace document when ``config.trace`` was set: ``{"epoch0":
        epoch-seconds, "spans": [span dicts]}`` from
        :meth:`repro.core.trace.TraceCollector.trace_doc`.  Export with
        :func:`repro.core.trace.chrome_trace`.
    """

    config: PipelineConfig
    kernels: List[KernelResult] = field(default_factory=list)
    rank: Optional[np.ndarray] = None
    validation: Optional[Dict[str, object]] = None
    wall_seconds: Optional[float] = None
    trace: Optional[Dict[str, object]] = None

    def kernel(self, name: KernelName) -> KernelResult:
        """Fetch one kernel's result.

        A result an executor returns holds all four kernels; this
        raises only on one assembled by hand.

        Raises
        ------
        KeyError
            If no result was recorded for ``name``.
        """
        for result in self.kernels:
            if result.kernel is name:
                return result
        raise KeyError(f"no result recorded for {name.value}")

    @property
    def total_seconds(self) -> float:
        """Sum of all kernel durations (including the untimed Kernel 0)."""
        return sum(k.seconds for k in self.kernels)

    @property
    def benchmark_seconds(self) -> float:
        """Sum over officially timed kernels only (K1 + K2 + K3)."""
        return sum(k.seconds for k in self.kernels if k.officially_timed)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe encoding (the rank vector is summarised, not dumped)."""
        doc: Dict[str, object] = {
            "config": self.config.to_dict(),
            "kernels": [k.to_dict() for k in self.kernels],
            "total_seconds": self.total_seconds,
            "benchmark_seconds": self.benchmark_seconds,
        }
        if self.wall_seconds is not None:
            doc["wall_seconds"] = self.wall_seconds
        if self.rank is not None:
            doc["rank_summary"] = {
                "size": int(self.rank.size),
                "sum": float(self.rank.sum()),
                "max": float(self.rank.max()) if self.rank.size else 0.0,
                "argmax": int(self.rank.argmax()) if self.rank.size else -1,
            }
        if self.validation is not None:
            doc["validation"] = _json_safe(self.validation)
        if self.trace is not None:
            doc["trace"] = _json_safe(self.trace)
        return doc

    def to_json(self) -> str:
        """Stable JSON encoding of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _json_safe(value):
    """Recursively convert numpy scalars/arrays for JSON encoding."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
