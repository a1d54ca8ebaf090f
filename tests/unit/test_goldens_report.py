"""Unit tests for golden records and the report generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, SweepSpec, execute_sweep
from repro.core.config import PipelineConfig
from repro.harness.goldens import (
    GoldenRecord,
    golden_for_config,
    golden_from_outputs,
)
from repro.harness.report import build_report


@pytest.fixture(scope="module")
def golden():
    return golden_for_config(PipelineConfig(scale=6, seed=9, backend="scipy"))


class TestGoldenRecord:
    def test_reproducible_for_config(self, golden):
        again = golden_for_config(PipelineConfig(scale=6, seed=9,
                                                 backend="scipy"))
        assert golden.matches(again)

    def test_backend_independent(self, golden):
        for backend in ("numpy", "graphblas", "dataframe"):
            other = golden_for_config(
                PipelineConfig(scale=6, seed=9, backend=backend)
            )
            assert golden.matches(other), (backend, golden.differences(other))

    def test_detects_different_seed(self, golden):
        other = golden_for_config(PipelineConfig(scale=6, seed=10,
                                                 backend="scipy"))
        assert not golden.matches(other)
        assert any("crc" in d or "digest" in d for d in golden.differences(other))

    def test_json_round_trip(self, golden, tmp_path):
        path = tmp_path / "golden.json"
        golden.save(path)
        restored = GoldenRecord.load(path)
        assert golden.matches(restored)
        assert restored.k1_num_edges == golden.k1_num_edges

    def test_histograms_nonempty(self, golden):
        assert golden.k2_out_degree_histogram
        assert golden.k2_in_degree_histogram
        total_rows = sum(golden.k2_out_degree_histogram.values())
        assert total_rows > 0

    def test_top_vertices_sorted_by_rank(self, golden):
        assert len(golden.k3_top_vertices) == 10
        assert len(set(golden.k3_top_vertices)) == 10

    def test_differences_names_fields(self, golden):
        import dataclasses

        tweaked = dataclasses.replace(golden, k2_nnz=golden.k2_nnz + 1)
        diffs = golden.differences(tweaked)
        assert diffs and "k2_nnz" in diffs[0]

    def test_label_dtype_does_not_move_the_record(self, golden, tmp_path):
        # The CRCs hash little-endian int64 labels, so a K1 dataset read
        # back as uint32 (the label dtype) and the same edges held as
        # int64 give one record, equal to the golden cut before.
        from repro.backends.registry import get_backend

        config = PipelineConfig(scale=6, seed=9, backend="scipy")
        backend = get_backend("scipy")
        k0, _ = backend.kernel0(config, tmp_path / "k0")
        k1, _ = backend.kernel1(config, k0, tmp_path / "k1")
        handle, details = backend.kernel2(config, k1)
        rank, _ = backend.kernel3(config, handle)

        class Widened:
            """The same dataset, its labels handed out as int64."""

            num_edges = k1.num_edges

            @staticmethod
            def read_all():
                return tuple(labels.astype(np.int64) for labels in k1.read_all())

        assert k1.read_all()[0].dtype == np.uint32
        narrow = golden_from_outputs(config, k1, handle, rank,
                                     k2_details=details)
        wide = golden_from_outputs(config, Widened, handle, rank,
                                   k2_details=details)
        assert narrow == wide == golden

    def test_float_tolerance_in_matches(self, golden):
        import dataclasses

        tweaked = dataclasses.replace(
            golden, k3_rank_sum=golden.k3_rank_sum + 1e-12
        )
        assert golden.matches(tweaked)


class TestReport:
    @pytest.fixture(scope="class")
    def records(self):
        return execute_sweep(SweepSpec(
            base=RunSpec(scale=6, seed=4, validation="off"),
            scales=(6,), backends=("python", "scipy"),
        ))

    def test_contains_all_sections(self, records):
        document = build_report(records)
        for heading in ("Table I", "Table II", "Figure 4", "Figure 5",
                        "Figure 6", "Figure 7", "Officially timed totals"):
            assert heading in document

    def test_shape_checks_rendered(self, records):
        document = build_report(records)
        assert "Paper-shape checks" in document
        assert "[PASS]" in document or "[FAIL]" in document

    def test_totals_table_rows(self, records):
        document = build_report(records)
        assert "| python | 6 |" in document
        assert "| scipy | 6 |" in document

    def test_without_tables(self, records):
        document = build_report(records, include_tables=False)
        assert "Table II" not in document
        assert "Figure 7" in document

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_renders_the_same_from_stored_records(
            self, records, suffix, tmp_path):
        # With a cache read among them: its figure point is left out and
        # its cell's total marked incomplete, from a file as in memory.
        from dataclasses import replace

        from repro.harness.records import load_records, save_records

        stored = [replace(r, cached=True)
                  if (r.backend, r.kernel) == ("scipy", "k2-filter") else r
                  for r in records]
        document = build_report(stored)
        assert "| scipy | 6 |" in document and " * |" in document
        path = tmp_path / f"records{suffix}"
        save_records(stored, path)
        assert build_report(load_records(path)) == document

    def test_claims_fail_detection(self):
        # Synthetic records where python is *fastest* must FAIL the
        # "interpreted at the bottom" claim.
        from repro.harness.records import MeasurementRecord

        fake = [
            MeasurementRecord("python", 6, 1024, "k3-pagerank", 0.001,
                              1e9, True),
            MeasurementRecord("scipy", 6, 1024, "k3-pagerank", 1.0,
                              1e3, True),
        ]
        document = build_report(fake, include_tables=False)
        assert "[FAIL] interpreted implementation" in document
