"""Parallel pipeline vs serial backends: results must be identical."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.registry import get_backend
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset
from repro.generators.kronecker import kronecker_edges
from repro.parallel import run_parallel_pipeline


@pytest.fixture(scope="module")
def problem():
    scale, k = 8, 8
    n = 1 << scale
    u, v = kronecker_edges(scale, k, seed=21)
    return u, v, n


@pytest.fixture(scope="module")
def serial_rank(problem, tmp_path_factory):
    u, v, n = problem
    path = tmp_path_factory.mktemp("serial") / "edges"
    ds = EdgeDataset.write(path, u, v, num_vertices=n)
    config = PipelineConfig(scale=8, edge_factor=8, seed=21, iterations=12)
    backend = get_backend("numpy")
    handle, _ = backend.kernel2(config, ds)
    r0 = np.full(n, 1.0 / n)
    from repro.pagerank.benchmark import benchmark_pagerank

    return benchmark_pagerank(handle.to_scipy_csr(), r0, iterations=12)


@pytest.mark.parametrize("ranks", [1, 2, 3, 5, 8])
class TestSimExecutor:
    def test_matches_serial(self, problem, serial_rank, ranks):
        u, v, n = problem
        result = run_parallel_pipeline(
            u, v, n, num_ranks=ranks, iterations=12,
            initial_rank=np.full(n, 1.0 / n),
        )
        assert np.allclose(result.rank_vector, serial_rank, atol=1e-12)

    def test_traffic_scales_with_ranks(self, problem, serial_rank, ranks):
        u, v, n = problem
        result = run_parallel_pipeline(
            u, v, n, num_ranks=ranks, iterations=12,
            initial_rank=np.full(n, 1.0 / n),
        )
        if ranks == 1:
            assert result.traffic["bytes_by_op"].get("allreduce", 0) == 0
        else:
            # Naive allreduce: 2(p-1) * payload per call; 13 vector
            # allreduces (12 K3 + 1 K2) of 8n bytes + 1 scalar.
            expected = 2 * (ranks - 1) * (13 * 8 * n + 8)
            assert result.traffic["bytes_by_op"]["allreduce"] == expected


class TestMpExecutor:
    def test_two_processes_match_serial(self, problem, serial_rank):
        u, v, n = problem
        result = run_parallel_pipeline(
            u, v, n, num_ranks=2, iterations=12,
            initial_rank=np.full(n, 1.0 / n), executor="mp",
        )
        assert np.allclose(result.rank_vector, serial_rank, atol=1e-12)

    @pytest.mark.parametrize("ranks", [2, 3])
    def test_same_rank_vector_and_traffic_as_thread_ranks(self, problem, ranks):
        u, v, n = problem
        runs = [
            run_parallel_pipeline(u, v, n, num_ranks=ranks, iterations=12,
                                  executor=executor)
            for executor in ("sim", "mp")
        ]
        assert np.array_equal(runs[0].rank_vector, runs[1].rank_vector)
        assert runs[0].traffic == runs[1].traffic
        assert runs[1].traffic["bytes_by_op"]["allreduce"] == (
            2 * (ranks - 1) * (13 * 8 * n + 8)
        )

    def test_rejects_unknown_executor(self, problem):
        u, v, n = problem
        with pytest.raises(ValueError, match="executor"):
            run_parallel_pipeline(u, v, n, executor="gpu")


class TestLoadBalance:
    def test_nnz_reported_per_rank(self, problem):
        u, v, n = problem
        result = run_parallel_pipeline(u, v, n, num_ranks=4, iterations=2)
        assert len(result.local_nnz) == 4
        assert sum(result.local_nnz) > 0


class TestThroughExecuteSpec:
    """The benchmark's own parallel path (K0/K1 files, executor, cache
    routing) moves exactly the closed-form allreduce bytes."""

    SERIAL_DIGEST = "574908b8d4f0"  # scale 12, seed 1, serial scipy

    @pytest.fixture(scope="class")
    def outcomes(self):
        from repro.api import RunSpec, execute_spec

        return {
            (executor, ranks): execute_spec(RunSpec(
                scale=12, seed=1, execution="parallel",
                parallel_ranks=ranks, parallel_executor=executor,
                validation="off",
            ))
            for executor in ("sim", "mp") for ranks in (1, 2, 3, 4)
        }

    def test_allreduce_bytes_equal_closed_form(self, outcomes):
        from repro.harness.figures import allreduce_closed_form

        for (executor, ranks), outcome in outcomes.items():
            traffic = outcome.result.kernels[-1].details["traffic"]
            measured = traffic["bytes_by_op"].get("allreduce", 0)
            assert measured == allreduce_closed_form(ranks, 1 << 12, 20)
        measured = {
            ranks: outcomes["sim", ranks].result.kernels[-1]
            .details["traffic"]["bytes_by_op"].get("allreduce", 0)
            for ranks in (1, 2, 4)
        }
        assert measured == {1: 0, 2: 1_376_272, 4: 4_128_816}

    def test_one_rank_matches_serial_digest(self, outcomes):
        for executor in ("sim", "mp"):
            digest = outcomes[executor, 1].rank_digest
            assert digest.startswith(self.SERIAL_DIGEST)

    def test_launches_agree_per_rank_count(self, outcomes):
        for ranks in (1, 2, 3, 4):
            assert (outcomes["sim", ranks].rank_digest
                    == outcomes["mp", ranks].rank_digest)
