"""Experiment registry: paper artifact id -> reproduction runner.

``run_experiment("fig7")`` executes everything needed to regenerate that
artifact (sweeps included) and returns rendered text plus the raw data.
The CLI and EXPERIMENTS.md are both generated through this registry so
the "per-experiment index" in DESIGN.md always has a runnable target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.harness.figures import (
    FIGURE_KERNELS,
    build_figure_series,
    render_figure,
    render_ranks,
)
from repro.harness.tables import render_run_sizes, render_sloc

if TYPE_CHECKING:
    from repro.harness.records import MeasurementRecord

#: Scales used by default for figure sweeps — small enough for a laptop,
#: large enough to show the curves' shape (the paper used 16–22 on a
#: server; scale via --scales for bigger machines).
DEFAULT_FIGURE_SCALES = [10, 12, 14]
DEFAULT_FIGURE_BACKENDS = ["python", "numpy", "scipy", "dataframe", "graphblas"]
#: Rank counts the ``ranks`` experiment runs unless told otherwise.
DEFAULT_RANKS = [1, 2, 4]


@dataclass
class ExperimentOutput:
    """Result of running one registered experiment.

    Attributes
    ----------
    experiment_id:
        Registry key (``table1`` … ``fig7``, ``ranks``).
    text:
        Rendered, printable artifact.
    records:
        Raw measurement records (empty for static tables).
    """

    experiment_id: str
    text: str
    records: List[MeasurementRecord] = field(default_factory=list)


def _run_table1(scales: Optional[List[int]], backends: Optional[List[str]],
                repeats: int, execution: str,
                cache_dir: Optional[Path]) -> ExperimentOutput:
    del scales, repeats, execution, cache_dir
    return ExperimentOutput("table1", render_sloc(backends))


def _run_table2(scales: Optional[List[int]], backends: Optional[List[str]],
                repeats: int, execution: str,
                cache_dir: Optional[Path]) -> ExperimentOutput:
    del backends, repeats, execution, cache_dir
    return ExperimentOutput("table2", render_run_sizes(scales))


def _figure_runner(figure_id: str) -> Callable[..., ExperimentOutput]:
    def run(scales: Optional[List[int]], backends: Optional[List[str]],
            repeats: int, execution: str,
            cache_dir: Optional[Path]) -> ExperimentOutput:
        # Imported here: repro.api.runner imports repro.harness.records,
        # and importing that runs this package's __init__ first.
        from repro.api.runner import execute_sweep
        from repro.api.spec import RunSpec, SweepSpec

        scales = scales or DEFAULT_FIGURE_SCALES
        sweep = SweepSpec(
            base=RunSpec(
                scale=scales[0],
                execution=execution,
                validation="off",
                cache_policy="shared" if cache_dir else "off",
            ),
            scales=tuple(scales),
            backends=tuple(backends or DEFAULT_FIGURE_BACKENDS),
            repeats=repeats,
        )
        records = execute_sweep(sweep, cache_dir=cache_dir)
        figure = build_figure_series(figure_id, records)
        return ExperimentOutput(figure_id, render_figure(figure), records)

    return run


def _run_ranks(scales: Optional[List[int]], backends: Optional[List[str]],
               repeats: int, execution: str, cache_dir: Optional[Path], *,
               ranks: Optional[List[int]] = None,
               parallel_executor: str = "sim") -> ExperimentOutput:
    """K2+K3 strong scaling: every parallel-capable (backend, scale)
    cell at each rank count, 1 rank (the speedup baseline) included."""
    del execution  # always the parallel strategy
    from repro.api.runner import execute_spec
    from repro.api.spec import RunSpec, SweepSpec, sweep_cells

    scales = scales or DEFAULT_FIGURE_SCALES
    counts = sorted(set(ranks or DEFAULT_RANKS) | {1})
    sweep = SweepSpec(
        base=RunSpec(
            scale=scales[0],
            execution="parallel",
            parallel_executor=parallel_executor,
            validation="off",
            cache_policy="shared" if cache_dir else "off",
        ),
        scales=tuple(scales),
        backends=tuple(backends or DEFAULT_FIGURE_BACKENDS),
        repeats=repeats,
    )
    tables: List[str] = []
    records: List[MeasurementRecord] = []
    for _, _, spec in sweep_cells(sweep):
        if spec is None:  # backend without the parallel capability
            continue
        outcomes = [
            execute_spec(spec.with_overrides(parallel_ranks=count),
                         cache_dir=cache_dir)
            for count in counts
        ]
        tables.append(render_ranks(outcomes))
        records.extend(r for outcome in outcomes for r in outcome.records)
    return ExperimentOutput("ranks", "\n\n".join(tables), records)


_REGISTRY: Dict[str, Callable[..., ExperimentOutput]] = {
    "table1": _run_table1,
    "table2": _run_table2,
    **{figure_id: _figure_runner(figure_id) for figure_id in FIGURE_KERNELS},
    "ranks": _run_ranks,
}

_DESCRIPTIONS = {
    "table1": "source lines of code per backend (paper Table I)",
    "table2": "benchmark run sizes for scales 16-22 (paper Table II)",
    "fig4": "Kernel 0 edges/s vs M per backend (paper Figure 4)",
    "fig5": "Kernel 1 edges/s vs M per backend (paper Figure 5)",
    "fig6": "Kernel 2 edges/s vs M per backend (paper Figure 6)",
    "fig7": "Kernel 3 edges/s vs M per backend (paper Figure 7)",
    "ranks": "K2+K3 speedup, allreduce bytes and load balance vs rank "
             "count (paper Section IV.D)",
}


def available_experiments() -> Dict[str, str]:
    """Mapping experiment id -> description."""
    return dict(_DESCRIPTIONS)


def run_experiment(
    experiment_id: str,
    *,
    scales: Optional[List[int]] = None,
    backends: Optional[List[str]] = None,
    repeats: int = 1,
    execution: str = "serial",
    cache_dir: Optional[Path] = None,
    ranks: Optional[List[int]] = None,
    parallel_executor: str = "sim",
) -> ExperimentOutput:
    """Run one registered experiment.

    Parameters
    ----------
    experiment_id:
        ``table1``, ``table2``, ``fig4`` … ``fig7``, or ``ranks``.
    scales / backends:
        Override the default sweep grid (figures) or table rows.
    repeats:
        Repetitions per sweep cell (fastest kept).
    execution:
        Execution strategy for figure sweeps (tables ignore it).
    cache_dir:
        Kernel 0/1 artifact-cache root for figure sweeps; repeated
        cells reuse the generated/sorted graph instead of rebuilding it.
    ranks / parallel_executor:
        Rank counts and rank launch (``sim`` threads, ``mp``
        processes) for the ``ranks`` experiment; the others ignore
        them.

    Raises
    ------
    KeyError
        For unknown experiment ids.
    """
    try:
        runner = _REGISTRY[experiment_id]
    except KeyError:
        valid = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {valid}"
        ) from None
    if experiment_id == "ranks":
        return runner(scales, backends, repeats, execution, cache_dir,
                      ranks=ranks, parallel_executor=parallel_executor)
    return runner(scales, backends, repeats, execution, cache_dir)
