"""Unit tests for the harness: records, sloc, tables, figures, sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, SweepSpec, execute_sweep
from repro.core.config import KernelName, PipelineConfig
from repro.core.pipeline import run_pipeline
from repro.harness.figures import build_figure_series, render_figure
from repro.harness.records import (
    MeasurementRecord,
    load_records,
    save_records,
)
from repro.harness.sloc import backend_sloc_table, count_sloc
from repro.harness.tables import (
    PAPER_TABLE1,
    render_run_sizes,
    render_sloc,
    render_table,
    run_sizes_rows,
)


class TestSloc:
    def test_counts_code_only(self):
        source = (
            '"""Module docstring."""\n'
            "\n"
            "# a comment\n"
            "x = 1\n"
            "\n"
            "def f():\n"
            '    """Doc."""\n'
            "    return x  # trailing comment counts as code\n"
        )
        assert count_sloc(source) == 3  # x=1, def f, return x

    def test_multiline_docstring_excluded(self):
        source = 'def f():\n    """Line1\n    Line2\n    """\n    return 1\n'
        assert count_sloc(source) == 2

    def test_empty_source(self):
        assert count_sloc("") == 0

    def test_backend_table_covers_all(self):
        table = backend_sloc_table()
        assert set(table) == {"python", "numpy", "scipy", "dataframe",
                              "graphblas"}
        assert all(count > 50 for count in table.values())

    def test_pure_python_largest(self):
        # The lowest-level implementation needs the most lines — the
        # paper's C++ row, transposed into our backend set.
        table = backend_sloc_table()
        assert table["python"] == max(table.values())


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["col", "x"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines}) == 1  # uniform width

    def test_render_table_cell_count_guard(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])

    def test_run_sizes_rows_formats_like_paper(self):
        rows = run_sizes_rows([16, 22])
        assert rows[0][1] == "65K"
        assert rows[0][2] == "1M"
        assert rows[1][1] == "4M"
        assert rows[1][2] == "67M"
        assert rows[1][3] == "1.6GB"

    def test_render_run_sizes_contains_title(self):
        assert "Table II" in render_run_sizes()

    def test_render_sloc_includes_paper_numbers(self):
        text = render_sloc()
        assert "494" in text  # paper's C++ row
        assert "python" in text

    def test_paper_table1_reference_values(self):
        assert PAPER_TABLE1["C++"] == 494
        assert PAPER_TABLE1["Matlab"] == 102


class TestRecords:
    def _records(self):
        result = run_pipeline(PipelineConfig(scale=6, seed=1, backend="numpy"))
        return MeasurementRecord.from_result(result)

    def test_from_result_one_per_kernel(self):
        records = self._records()
        assert len(records) == 4
        assert {r.kernel for r in records} == {k.value for k in KernelName}

    def test_json_round_trip(self, tmp_path):
        records = self._records()
        save_records(records, tmp_path / "r.json")
        assert load_records(tmp_path / "r.json") == records

    def test_csv_round_trip(self, tmp_path):
        records = self._records()
        save_records(records, tmp_path / "r.csv")
        assert load_records(tmp_path / "r.csv") == records


def _measurement_sweep(scales, backends, *, repeats=1, seed=1):
    """A contracts-off grid, as the CLI's ``report`` builds it."""
    return SweepSpec(
        base=RunSpec(scale=scales[0], seed=seed, validation="off"),
        scales=scales, backends=backends, repeats=repeats,
    )


class TestSweep:
    def test_execute_sweep_produces_grid_records(self):
        records = execute_sweep(
            _measurement_sweep([6], ["scipy", "numpy"], seed=3))
        assert len(records) == 8  # 2 backends x 4 kernels
        assert {r.backend for r in records} == {"scipy", "numpy"}

    def test_repeats_keep_fastest(self):
        records = execute_sweep(
            _measurement_sweep([6], ["scipy"], repeats=2, seed=3))
        assert len(records) == 4  # still one per kernel

    def test_progress_callback(self):
        calls = []
        execute_sweep(
            _measurement_sweep([6], ["scipy"], seed=3),
            progress=lambda cfg, rep: calls.append((cfg.backend, rep)),
        )
        assert calls == [("scipy", 0)]


class TestFigures:
    def _records(self):
        return execute_sweep(
            _measurement_sweep([6, 7], ["scipy", "numpy"], seed=2))

    def test_build_series_shape(self):
        figure = build_figure_series("fig7", self._records())
        assert figure.kernel is KernelName.K3_PAGERANK
        assert set(figure.series) == {"scipy", "numpy"}
        for points in figure.series.values():
            ms = [m for m, _ in points]
            assert ms == sorted(ms)
            assert len(points) == 2

    def test_unknown_figure(self):
        with pytest.raises(KeyError, match="available"):
            build_figure_series("fig9", [])

    def test_render_contains_legend_and_data(self):
        figure = build_figure_series("fig5", self._records())
        text = render_figure(figure)
        assert "Figure 5" in text
        assert "scipy" in text and "numpy" in text
        assert "M=" in text

    def test_render_empty_series(self):
        figure = build_figure_series("fig4", [])
        assert "(no data)" in render_figure(figure)

    @staticmethod
    def _slope_cells(text):
        lines = text.splitlines()
        table = lines[lines.index("") + 1:]  # the data table under the chart
        header, *rows = (line.split(" | ") for line in table)
        assert header[-1] == "slope"
        return {row[0]: row[-1] for row in rows}

    def test_fig7_slope_finite_for_two_scales(self):
        figure = build_figure_series("fig7", self._records())
        for cell in self._slope_cells(render_figure(figure)).values():
            assert np.isfinite(float(cell))

    def test_fig7_slope_dash_for_one_scale(self):
        records = execute_sweep(_measurement_sweep([6], ["numpy"], seed=2))
        figure = build_figure_series("fig7", records)
        assert self._slope_cells(render_figure(figure)) == {"numpy": "-"}
