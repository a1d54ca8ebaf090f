"""Unit tests for the model-vs-measured comparison machinery."""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import run_pipeline
from repro.perfmodel import LAPTOP_CLASS
from repro.perfmodel.compare import (
    compare_run,
    extrapolation_study,
    render_comparison,
)


@pytest.fixture(scope="module")
def measured_run():
    return run_pipeline(PipelineConfig(scale=7, seed=2, backend="scipy",
                                       validation="off"))


class TestCompareRun:
    def test_covers_all_kernels(self, measured_run):
        comparisons = compare_run(measured_run, LAPTOP_CLASS)
        assert [c.kernel for c in comparisons] == [
            "k0-generate", "k1-sort", "k2-filter", "k3-pagerank",
        ]

    def test_error_factor_at_least_one(self, measured_run):
        for comparison in compare_run(measured_run, LAPTOP_CLASS):
            assert comparison.error_factor >= 1.0

    def test_dominant_terms_named(self, measured_run):
        terms = {c.dominant_term for c in compare_run(measured_run,
                                                      LAPTOP_CLASS)}
        assert terms <= {"storage_write", "storage_read", "generate_memory",
                         "format_scalar", "parse_scalar", "sort_memory",
                         "construct_memory", "spmv_memory"}

    def test_render_table(self, measured_run):
        text = render_comparison(compare_run(measured_run, LAPTOP_CLASS))
        assert "k3-pagerank" in text
        assert "model bottleneck" in text


class TestExtrapolation:
    def test_calibrated_prediction_reasonable(self):
        # Timing-derived: bounds are deliberately loose so scheduler
        # noise on a loaded CI box cannot flake the test — the point is
        # "same decade", which is all the paper's simple models claim.
        study = extrapolation_study(
            calibration_scale=8, predicted_scales=[9], seed=2,
        )
        assert study.worst_error() < 30.0
        assert 9 in study.comparisons
        assert len(study.comparisons[9]) == 4

    def test_calibration_is_exact_on_its_own_run(self, measured_run):
        # Deterministic by construction: calibrating on a run and
        # comparing the model against that same run pins Kernel 3's
        # error factor to ~1 (no second measurement involved).
        from repro.perfmodel.calibrate import calibrate_from_run

        hw = calibrate_from_run(measured_run, LAPTOP_CLASS)
        k3 = compare_run(measured_run, hw)[3]
        assert k3.kernel == "k3-pagerank"
        assert k3.error_factor < 1.05
