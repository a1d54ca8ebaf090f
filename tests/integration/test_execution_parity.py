"""Executor parity: every execution strategy computes the same answer.

The stage-graph refactor's core promise — serial, streaming, and
shard-parallel execution are *strategies over one pipeline*, not three
pipelines — is only real if they agree numerically and enforce the same
contracts.  These tests pin both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, SweepSpec, execute_sweep
from repro.backends.registry import get_backend
from repro.core.config import KernelName, PipelineConfig
from repro.core.exceptions import ExecutorCapabilityError, KernelContractError
from repro.core.executor import available_executions
from repro.core.pipeline import run_pipeline

#: Backends declaring every execution capability (see Backend.capabilities).
FULL_CAPABILITY_BACKENDS = ["scipy", "numpy"]
#: Backends that can adopt an external CSR matrix (streaming + async).
CSR_CAPABLE_BACKENDS = ["scipy", "numpy", "dataframe", "graphblas"]


def _config(backend: str, execution: str, scale: int = 8) -> PipelineConfig:
    return PipelineConfig(
        scale=scale,
        seed=11,
        backend=backend,
        iterations=10,
        num_files=2,
        execution=execution,
        parallel_ranks=3,
        streaming_batch_edges=512,  # force multiple pass-1 batches
    )


def _sweep(backends, execution, repeats=1) -> SweepSpec:
    return SweepSpec(
        base=RunSpec(scale=6, execution=execution, validation="off"),
        scales=(6,), backends=backends, repeats=repeats,
    )


class TestRankParity:
    @pytest.mark.parametrize("backend", FULL_CAPABILITY_BACKENDS)
    @pytest.mark.parametrize("execution", ["streaming", "parallel", "async"])
    def test_identical_rank_vectors(self, backend, execution):
        serial = run_pipeline(_config(backend, "serial"))
        other = run_pipeline(_config(backend, execution))
        assert other.rank is not None
        np.testing.assert_allclose(
            other.rank, serial.rank, rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("backend", CSR_CAPABLE_BACKENDS)
    @pytest.mark.parametrize("execution", ["streaming", "async"])
    def test_csr_adoption_matches_serial(self, backend, execution):
        # dataframe/graphblas joined the streaming/async capability set
        # via adjacency_from_csr; their ranks must match serial too
        # (dataframe to float tolerance — its serial K2 normalises with
        # a division where the CSR path multiplies by a reciprocal).
        serial = run_pipeline(_config(backend, "serial"))
        other = run_pipeline(_config(backend, execution))
        np.testing.assert_allclose(
            other.rank, serial.rank, rtol=1e-12, atol=1e-15
        )

    @pytest.mark.parametrize("backend", FULL_CAPABILITY_BACKENDS)
    def test_all_strategies_agree_at_scale_10(self, backend):
        results = {
            execution: run_pipeline(_config(backend, execution, scale=10))
            for execution in available_executions()
        }
        reference = results["serial"].rank
        for execution, result in results.items():
            np.testing.assert_allclose(
                result.rank, reference, rtol=1e-12, atol=1e-15,
                err_msg=f"{execution} diverged from serial",
            )

    def test_every_strategy_reports_four_kernels(self):
        for execution in available_executions():
            result = run_pipeline(_config("scipy", execution))
            assert [k.kernel for k in result.kernels] == list(KernelName)
            assert result.benchmark_seconds >= 0.0


class TestContractParityAcrossExecutors:
    """The same violation must be caught identically by every strategy."""

    @pytest.mark.parametrize("execution", available_executions())
    def test_k0_count_violation_caught(self, execution, tmp_path):
        from broken_backends import BrokenK0

        config = _config("scipy", execution, scale=6)
        with pytest.raises(KernelContractError, match="spec requires"):
            run_pipeline(config, backend=BrokenK0())

    # The streaming executor sorts out of core whatever the backend, so
    # a broken backend sort has nothing to break there.
    @pytest.mark.parametrize("execution", ["serial", "parallel", "async"])
    def test_k1_unsorted_caught(self, execution):
        from broken_backends import UnsortedK1

        config = _config("scipy", execution, scale=6)
        with pytest.raises((KernelContractError, ValueError), match="sorted"):
            # The streaming/parallel K2 paths may themselves reject
            # unsorted input (ValueError) before the contract runs;
            # either way the violation surfaces loudly.
            run_pipeline(config, backend=UnsortedK1())

    @pytest.mark.parametrize("execution", ["serial", "parallel", "async"])
    def test_k1_end_vertex_order_checked(self, execution):
        from broken_backends import StartOnlyK1

        config = _config("scipy", execution, scale=6)
        # Sorted by u alone is all the default order asks for ...
        run_pipeline(config, backend=StartOnlyK1())
        # ... but not when the config asks for (u, v).
        with pytest.raises(KernelContractError, match=r"sorted by \(u, v\)"):
            run_pipeline(config.with_overrides(sort_by_end_vertex=True),
                         backend=StartOnlyK1())


class TestSortByEndVertex:
    """Every Kernel 1 path honours ``sort_by_end_vertex``: it writes its
    Kernel 0 edges in ``(u, v)`` order and says so in its manifest."""

    PATHS = {
        "serial": {},
        "async": {"execution": "async"},
        "streaming": {"execution": "streaming"},
        "dataframe": {"backend": "dataframe"},
        "python": {"backend": "python"},
    }
    #: The paths whose Kernels 2 and 3 are the scipy serial arithmetic
    #: or the CSR assembly it is bit-identical to.
    SAME_RANK_BITS = ("serial", "async", "streaming")

    def test_every_path_writes_and_records_pair_order(self, tmp_path):
        from repro.api import execute_spec
        from repro.edgeio.dataset import EdgeDataset

        outcomes = {}
        for name, changes in self.PATHS.items():
            spec = RunSpec(scale=6, seed=1, num_files=2,
                           sort_by_end_vertex=True,
                           data_dir=str(tmp_path / name), **changes)
            outcomes[name] = execute_spec(spec)
            k1 = EdgeDataset.open(tmp_path / name / "k1")
            assert k1.manifest.extra["sorted_by"] == "(u,v)", name
            # The python backend draws its own edges; each path must
            # write its own Kernel 0 output in lexsort order.
            u, v = EdgeDataset.open(tmp_path / name / "k0").read_all()
            order = np.lexsort((v, u))
            sorted_u, sorted_v = k1.read_all()
            np.testing.assert_array_equal(sorted_u, u[order], err_msg=name)
            np.testing.assert_array_equal(sorted_v, v[order], err_msg=name)
        digests = {outcomes[name].rank_digest for name in self.SAME_RANK_BITS}
        assert len(digests) == 1
        # The pair order reaches the same rank as the default order.
        default = execute_spec(RunSpec(scale=6, seed=1, num_files=2))
        np.testing.assert_allclose(outcomes["serial"].rank, default.rank,
                                   rtol=1e-12, atol=1e-15)


class TestStreamingKernel1:
    """The streaming strategy's Kernel 1 is the out-of-core sort, and it
    writes the files and manifest of the in-memory sort."""

    @pytest.mark.parametrize("num_files,scale", [(1, 6), (3, 10), (5, 8),
                                                 (64, 1)])
    def test_same_dataset_as_serial(self, tmp_path, num_files, scale):
        from repro.edgeio.dataset import EdgeDataset

        manifests = {}
        for execution in ("serial", "streaming"):
            config = _config("scipy", execution, scale=scale).with_overrides(
                num_files=num_files, data_dir=tmp_path / execution)
            result = run_pipeline(config)
            details = result.kernel(KernelName.K1_SORT).details
            assert (details["algorithm"] == "external") == (
                execution == "streaming")
            manifests[execution] = EdgeDataset.open(
                tmp_path / execution / "k1").manifest
        serial, streamed = manifests["serial"], manifests["streaming"]
        assert [(s.num_edges, s.crc32) for s in streamed.shards] == [
            (s.num_edges, s.crc32) for s in serial.shards]
        assert len(streamed.shards) == num_files
        assert streamed.extra == serial.extra == {
            "kernel": "k1", "sorted_by": "u"}

    def test_phases_split_the_kernel(self):
        result = run_pipeline(_config("scipy", "streaming", scale=10))
        k1 = result.kernel(KernelName.K1_SORT)
        phases = k1.details["phases"]
        assert set(phases) == {"run_formation", "merge", "write"}
        assert all(seconds > 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= k1.seconds
        assert k1.details["batch_edges"] == 512


class TestCapabilityGating:
    @pytest.mark.parametrize("execution", ["streaming", "async"])
    def test_python_backend_lacks_csr_capabilities(self, execution):
        with pytest.raises(ExecutorCapabilityError, match=execution):
            run_pipeline(PipelineConfig(scale=6, backend="python",
                                        execution=execution))

    @pytest.mark.parametrize("backend", ["dataframe", "graphblas"])
    def test_parallel_still_gated(self, backend):
        with pytest.raises(ExecutorCapabilityError, match="parallel"):
            run_pipeline(PipelineConfig(scale=6, backend=backend,
                                        execution="parallel"))

    def test_sweep_skips_unsupported_backends(self):
        records = execute_sweep(_sweep(["python", "scipy"], "streaming"))
        assert {r.backend for r in records} == {"scipy"}

    def test_sweep_with_no_capable_backend_raises(self):
        with pytest.raises(ValueError, match="supports execution"):
            execute_sweep(_sweep(["python"], "parallel"))

    def test_capability_error_is_value_error(self):
        # The CLI maps ValueError to exit code 2; keep that contract.
        with pytest.raises(ValueError):
            run_pipeline(PipelineConfig(scale=6, backend="python",
                                        execution="parallel"))


class TestStreamingDetails:
    def test_k2_reports_actual_ingested_edges(self):
        result = run_pipeline(_config("scipy", "streaming"))
        k2 = result.kernel(KernelName.K2_FILTER)
        config = result.config
        assert k2.edges_processed == config.num_edges
        assert k2.details["edges_processed"] == config.num_edges
        # Batch dedup means strictly fewer spilled triples than edges
        # for a Kronecker graph with duplicates at this scale.
        assert 0 < k2.details["unique_triples"] < config.num_edges
        assert k2.details["batches"] > 1

    def test_parallel_k3_carries_traffic(self):
        result = run_pipeline(_config("scipy", "parallel"))
        k3 = result.kernel(KernelName.K3_PAGERANK)
        traffic = k3.details["traffic"]
        assert traffic["total_bytes"] > 0
        assert "allreduce" in traffic["bytes_by_op"]
        k2 = result.kernel(KernelName.K2_FILTER)
        assert k2.details["num_ranks"] == 3

    def test_parallel_per_kernel_seconds_are_real(self):
        # The fused driver run is split back into per-kernel clocks so
        # throughput records stay meaningful (no ~0s K3 / double K2).
        result = run_pipeline(_config("scipy", "parallel"))
        k2 = result.kernel(KernelName.K2_FILTER)
        k3 = result.kernel(KernelName.K3_PAGERANK)
        assert k3.seconds > 0.0
        assert k3.seconds == k3.details["measured_seconds"]
        assert k2.seconds >= k2.details["measured_seconds"] - 1e-9
        assert np.isfinite(k3.edges_per_second)


class TestArtifactCache:
    def test_sweep_rerun_hits_cache(self, tmp_path):
        cache = tmp_path / "artifacts"
        config = PipelineConfig(scale=7, seed=4, backend="scipy",
                                cache_dir=cache)
        first = run_pipeline(config)
        second = run_pipeline(config)
        for kernel in (KernelName.K0_GENERATE, KernelName.K1_SORT):
            assert first.kernel(kernel).details["artifact_cache"] == "miss"
            assert second.kernel(kernel).details["artifact_cache"] == "hit"
        np.testing.assert_array_equal(first.rank, second.rank)

    def test_cache_shared_across_executions(self, tmp_path):
        cache = tmp_path / "artifacts"
        base = _config("scipy", "serial", scale=7)
        run_pipeline(base.with_overrides(cache_dir=cache))
        streamed = run_pipeline(
            base.with_overrides(cache_dir=cache, execution="streaming")
        )
        assert (streamed.kernel(KernelName.K0_GENERATE)
                .details["artifact_cache"] == "hit")
        assert (streamed.kernel(KernelName.K1_SORT)
                .details["artifact_cache"] == "hit")

    @pytest.mark.parametrize("execution", ["serial", "streaming", "async"])
    @pytest.mark.parametrize("backend", CSR_CAPABLE_BACKENDS)
    def test_npy_cache_reads_are_mapped_and_bit_identical(
            self, tmp_path, backend, execution):
        # Cached npy shards always come back as read-only mapped views.
        # Force both reads of them — K1 recomputed from a K0 hit, K2
        # recomputed from a K1 hit — and hold every rank to the cold one.
        # (The python backend writes tsv only, so it never reads a map.)
        import shutil

        cache = tmp_path / "artifacts"
        config = PipelineConfig(
            scale=8, seed=11, backend=backend, iterations=10, num_files=3,
            file_format="npy", execution=execution, cache_dir=cache,
            streaming_batch_edges=512,
        )
        cold = run_pipeline(config)
        shutil.rmtree(cache / "k1")
        shutil.rmtree(cache / "k2", ignore_errors=True)
        from_k0 = run_pipeline(config)
        assert (from_k0.kernel(KernelName.K0_GENERATE)
                .details["artifact_cache"] == "hit")
        assert (from_k0.kernel(KernelName.K1_SORT)
                .details["artifact_cache"] == "miss")
        shutil.rmtree(cache / "k2", ignore_errors=True)
        from_k1 = run_pipeline(config)
        assert (from_k1.kernel(KernelName.K1_SORT)
                .details["artifact_cache"] == "hit")
        np.testing.assert_array_equal(from_k0.rank, cold.rank)
        np.testing.assert_array_equal(from_k1.rank, cold.rank)
        # And the reads really are mapped, not private copies.
        from repro.core.artifacts import ArtifactCache, k1_cache_fields

        dataset, _ = ArtifactCache(cache).dataset(
            "k1", k1_cache_fields(config, backend), None)
        u, v = dataset.read_shard(0)
        assert isinstance(u.base, np.memmap) and not u.flags.writeable

    def test_key_distinguishes_seed_and_scale(self, tmp_path):
        cache = tmp_path / "artifacts"
        base = PipelineConfig(scale=6, seed=1, cache_dir=cache)
        run_pipeline(base)
        other = run_pipeline(base.with_overrides(seed=2))
        assert (other.kernel(KernelName.K0_GENERATE)
                .details["artifact_cache"] == "miss")

    def test_sweep_repeats_reuse_artifacts(self, tmp_path):
        records = execute_sweep(_sweep(["scipy"], "serial", repeats=3),
                                cache_dir=tmp_path / "artifacts")
        assert len(records) == 4  # one best record per kernel
        # The cache directory was populated by the first repeat.
        assert any((tmp_path / "artifacts" / "k0").iterdir())
        assert any((tmp_path / "artifacts" / "k1").iterdir())
