"""End-to-end pipeline integration tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import KernelName, PipelineConfig
from repro.core.pipeline import run_pipeline

ALL_BACKENDS = ["python", "numpy", "scipy", "dataframe", "graphblas"]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestEveryBackendEndToEnd:
    def test_full_run_with_contracts_and_validation(self, backend):
        config = PipelineConfig(scale=7, seed=5, backend=backend,
                                num_files=3, validation="full")
        result = run_pipeline(config)
        assert len(result.kernels) == 4
        assert result.rank is not None and len(result.rank) == 128
        assert result.validation is not None and result.validation["passed"]
        assert result.kernel(KernelName.K0_GENERATE).officially_timed is False
        for kernel in result.kernels[1:]:
            assert kernel.officially_timed

    def test_result_reproducible_for_seed(self, backend):
        config = PipelineConfig(scale=6, seed=11, backend=backend)
        first = run_pipeline(config)
        second = run_pipeline(config)
        assert np.array_equal(first.rank, second.rank)


class TestConfigurations:
    def test_many_shards(self):
        config = PipelineConfig(scale=6, seed=1, num_files=13)
        result = run_pipeline(config)
        assert result.kernel(KernelName.K1_SORT).details["num_shards"] == 13

    def test_binary_file_format(self):
        config = PipelineConfig(scale=6, seed=1, file_format="npy")
        result = run_pipeline(config)
        assert result.rank is not None

    def test_one_based_vertex_files(self):
        config = PipelineConfig(scale=6, seed=1, vertex_base=1)
        zero = PipelineConfig(scale=6, seed=1, vertex_base=0)
        a = run_pipeline(config)
        b = run_pipeline(zero)
        # On-disk convention must not change the mathematical result.
        assert np.allclose(a.rank, b.rank)

    def test_external_sort_path(self):
        config = PipelineConfig(scale=6, seed=1, external_sort=True)
        result = run_pipeline(config)
        baseline = run_pipeline(PipelineConfig(scale=6, seed=1))
        assert np.allclose(result.rank, baseline.rank)
        assert result.kernel(KernelName.K1_SORT).details["algorithm"] == "external"

    @pytest.mark.parametrize("generator", ["erdos-renyi", "bter", "ppl"])
    def test_alternative_generators(self, generator):
        # Alternative generators do not guarantee M = 16N (BTER/PPL hit
        # the budget approximately), so contract checks on edge counts
        # are skipped via validation="off"; the pipeline itself must run.
        config = PipelineConfig(scale=6, seed=3, generator=generator,
                                validation="off")
        result = run_pipeline(config)
        assert result.rank is not None
        assert np.isfinite(result.rank).all()

    def test_ring_generator_uniform_rank(self):
        # Deterministic ring: PageRank is exactly uniform, and kernel 2
        # eliminates *all* columns (every din == 1 == max) — an edge
        # case the paper's leaf rule implies.
        config = PipelineConfig(scale=5, seed=1, generator="ring",
                                edge_factor=1, validation="off")
        result = run_pipeline(config)
        n = config.num_vertices
        k2 = result.kernel(KernelName.K2_FILTER)
        assert k2.details["nnz"] == 0  # every column was max-degree & leaf
        # Rank collapses to pure teleport mass.
        assert np.allclose(result.rank, result.rank[0])

    def test_paper_body_formula_runs(self):
        config = PipelineConfig(scale=6, seed=1, formula="paper-body")
        result = run_pipeline(config)
        baseline = run_pipeline(PipelineConfig(scale=6, seed=1))
        # The /N omission inflates the vector by roughly N-ish factors.
        assert result.rank.sum() > baseline.rank.sum()

    def test_data_dir_files_kept(self, tmp_path):
        config = PipelineConfig(scale=6, seed=1, data_dir=tmp_path)
        run_pipeline(config)
        assert (tmp_path / "k0" / "manifest.json").exists()
        assert (tmp_path / "k1" / "part-00000.tsv").exists()

    @pytest.mark.parametrize("outcome", ["success", "contract", "raises"])
    def test_temp_dir_removed(self, tmp_path, monkeypatch, outcome):
        # Without a data_dir the run works in a temporary directory that
        # never outlives it, however the run ends.
        import tempfile

        from broken_backends import FailingK2, UnsortedK1

        from repro.core.exceptions import KernelContractError

        made = []
        mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(**kwargs):
            made.append(mkdtemp(dir=tmp_path, **kwargs))
            return made[-1]

        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        config = PipelineConfig(scale=6, seed=1)
        if outcome == "success":
            run_pipeline(config)
        else:
            backend = UnsortedK1() if outcome == "contract" else FailingK2()
            with pytest.raises((KernelContractError, RuntimeError)):
                run_pipeline(config, backend=backend)
        assert any("repro-pipeline-" in path for path in made)
        assert list(tmp_path.iterdir()) == []

    def test_damping_zero_gives_uniform(self):
        config = PipelineConfig(scale=6, seed=1, damping=0.0)
        result = run_pipeline(config)
        # c=0: update is pure teleport -> exactly uniform after 1 step.
        assert np.allclose(result.rank, result.rank[0])

    def test_custom_iteration_count_metric(self):
        config = PipelineConfig(scale=6, seed=1, iterations=7)
        result = run_pipeline(config)
        k3 = result.kernel(KernelName.K3_PAGERANK)
        assert k3.edges_processed == 7 * config.num_edges


class TestRunPipelineArguments:
    def test_explicit_backend_instance(self):
        from repro.backends.scipy_backend import ScipyBackend

        result = run_pipeline(PipelineConfig(scale=6, seed=1),
                              backend=ScipyBackend())
        assert result.rank is not None

    def test_validation_off_skips_checks(self):
        # Still runs fine; just no re-reading of K1 output.
        result = run_pipeline(PipelineConfig(scale=6, seed=1, validation="off"))
        assert len(result.kernels) == 4

