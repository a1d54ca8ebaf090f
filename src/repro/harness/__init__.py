"""Benchmark harness: records, tables, figures, experiment registry.

Everything needed to regenerate the paper's evaluation artifacts:

* :mod:`repro.harness.records` — the :class:`MeasurementRecord` rows
  sweeps produce (:func:`repro.api.execute_sweep` runs the grids);
* :mod:`repro.harness.sloc` — source-lines-of-code counting (Table I);
* :mod:`repro.harness.tables` — Table I / Table II renderers;
* :mod:`repro.harness.figures` — Figures 4–7 series builders, ASCII
  log-log charts with per-series slopes, and the K2+K3 ranks table;
* :mod:`repro.harness.experiments` — the experiment registry keyed by
  paper artifact id (``table1``, ``table2``, ``fig4`` … ``fig7``,
  ``ranks``).
"""

from __future__ import annotations

from repro.harness.records import MeasurementRecord, load_records, save_records
from repro.harness.sloc import backend_sloc_table, count_sloc
from repro.harness.tables import render_table, run_sizes_rows, sloc_rows
from repro.harness.figures import FigureSeries, build_figure_series, render_figure
from repro.harness.experiments import available_experiments, run_experiment
from repro.harness.goldens import GoldenRecord, golden_for_config, golden_from_outputs
from repro.harness.report import build_report

__all__ = [
    "FigureSeries",
    "GoldenRecord",
    "MeasurementRecord",
    "available_experiments",
    "backend_sloc_table",
    "build_figure_series",
    "build_report",
    "count_sloc",
    "golden_for_config",
    "golden_from_outputs",
    "load_records",
    "render_figure",
    "render_table",
    "run_experiment",
    "run_sizes_rows",
    "save_records",
    "sloc_rows",
]
