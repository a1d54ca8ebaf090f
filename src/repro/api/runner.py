"""Execute RunSpecs and SweepSpecs: the API's engine room.

:func:`execute_spec` is the single code path between a declarative
:class:`~repro.api.spec.RunSpec` and pipeline execution — the CLI's
``run``, the :class:`~repro.service.BenchmarkService` workers, and
programmatic callers all land here, so repeat discipline, contract
gating, and cache routing cannot drift between surfaces.

:func:`execute_sweep` is that function looped over
:func:`sweep_cells` — the lowering the service's sweep fan-out uses too
— so the CLI's ``report`` and a service sweep share one skip rule and
one repeat discipline.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from repro.api.spec import RunSpec, SweepSpec, sweep_cells
from repro.core.config import PipelineConfig
from repro.core.pipeline import run_pipeline
from repro.core.results import PipelineResult
from repro.harness.records import MeasurementRecord, best_records

logger = logging.getLogger("repro.api")

#: Progress callback: ``fn(config, repeat_index)`` before each pipeline
#: run.
ProgressFn = Callable[[PipelineConfig, int], None]


def rank_sha256(rank: np.ndarray) -> str:
    """Bit-exact digest of a rank vector (float64 little-endian bytes).

    The service's parity currency: two runs produced the same PageRank
    iff their digests match — no tolerance, no summary statistics.
    """
    data = np.ascontiguousarray(np.asarray(rank, dtype="<f8"))
    return hashlib.sha256(data.tobytes()).hexdigest()


@dataclass
class RunOutcome:
    """Everything one executed :class:`RunSpec` produced.

    Attributes
    ----------
    spec:
        The spec that ran.
    results:
        One :class:`~repro.core.results.PipelineResult` per repeat, in
        run order.
    records:
        Best-per-kernel :class:`MeasurementRecord`s across the repeats
        (see :func:`repro.harness.records.best_records`).
    """

    spec: RunSpec
    results: List[PipelineResult] = field(default_factory=list)
    records: List[MeasurementRecord] = field(default_factory=list)

    @property
    def result(self) -> PipelineResult:
        """The last repeat's result (reports/validation read this; for
        warm-cache scenarios it is the one showing the cache hits)."""
        return self.results[-1]

    @property
    def rank(self) -> Optional[np.ndarray]:
        """The final PageRank vector (identical across repeats)."""
        return self.results[-1].rank if self.results else None

    @property
    def rank_digest(self) -> Optional[str]:
        """Bit-exact SHA-256 of :attr:`rank` (see :func:`rank_sha256`)."""
        rank = self.rank
        return None if rank is None else rank_sha256(rank)


def execute_spec(
    spec: RunSpec,
    *,
    cache_dir: Optional[Path] = None,
    progress: Optional[ProgressFn] = None,
) -> RunOutcome:
    """Run one spec (all its repeats) and aggregate the outcome.

    Parameters
    ----------
    spec:
        What to run.
    cache_dir:
        The executing environment's artifact-cache root; consulted only
        when ``spec.cache_policy`` allows it.
    progress:
        Optional ``fn(config, repeat_index)`` status callback.

    Examples
    --------
    >>> outcome = execute_spec(RunSpec(scale=6, backend="numpy"))
    >>> len(outcome.results), len(outcome.records)
    (1, 4)
    """
    config = spec.to_config(cache_dir)
    results: List[PipelineResult] = []
    for repeat in range(spec.repeats):
        if progress is not None:
            progress(config, repeat)
        results.append(run_pipeline(config))
    records = best_records(
        MeasurementRecord.from_result(result) for result in results
    )
    return RunOutcome(spec=spec, results=results, records=records)


def spec_cache_fields(spec: RunSpec):
    """The content-addressing fields a spec's K0/K1 artifacts key on.

    The bridge between the declarative layer and the artifact cache's
    addressing: a remote worker agent uses it to compute the *same*
    ``cache_key`` the executing pipeline will, so it can prefetch warm
    entries from the service (``GET /artifacts``) before running and
    publish fresh ones after (``PUT /artifacts``).  Returns
    ``{"k0": fields, "k1": fields}``; an empty dict when the spec's
    ``cache_policy`` disables caching (nothing would be read or
    written).  K2 entries are deliberately excluded: they are
    execution-variant-specific and cheap to rebuild from a warm K1.
    """
    from repro.core.artifacts import k0_cache_fields, k1_cache_fields

    if spec.cache_policy != "shared":
        return {}
    config = spec.to_config(None)
    return {
        "k0": k0_cache_fields(config),
        "k1": k1_cache_fields(config),
    }


def execute_sweep(
    sweep: SweepSpec,
    *,
    cache_dir: Optional[Path] = None,
    progress: Optional[ProgressFn] = None,
) -> List[MeasurementRecord]:
    """Run a sweep grid and return its per-kernel records.

    One :func:`execute_spec` per :func:`sweep_cells` cell, records
    concatenated backend-major.  Unsupported cells are skipped with a
    warning.  Contract checks follow ``sweep.base.validation`` (default
    ``"contracts"``; sweeps meant for measurement should set ``"off"``,
    as the CLI does — the checks re-read files and would perturb I/O
    caching between kernels).

    A kept record with ``cached=True`` means every repeat of that cell
    hit the artifact cache (see
    :func:`repro.harness.records.best_records`); a warning is logged,
    because its edges/second is cache-read speed, not throughput.
    """
    records: List[MeasurementRecord] = []
    for backend, scale, spec in sweep_cells(sweep):
        if spec is None:
            logger.warning(
                "skipping backend=%s at scale=%d: it does not support "
                "execution=%s",
                backend, scale, sweep.base.execution,
            )
            continue
        for record in execute_spec(
            spec, cache_dir=cache_dir, progress=progress
        ).records:
            if record.cached:
                logger.warning(
                    "kept record for backend=%s scale=%d %s is an "
                    "artifact-cache read (every repeat hit); its "
                    "edges/second is not %s throughput",
                    backend, scale, record.kernel, record.kernel,
                )
            records.append(record)
    return records
