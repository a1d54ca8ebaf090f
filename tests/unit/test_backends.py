"""Per-backend kernel unit tests against hand-computed expectations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.registry import available_backends, get_backend, register_backend
from repro.backends.base import Backend
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset

ALL_BACKENDS = ["python", "numpy", "scipy", "dataframe", "graphblas"]


def _write_dataset(tmp_path, u, v, n, base=0):
    return EdgeDataset.write(
        tmp_path / "in", np.asarray(u, dtype=np.int64),
        np.asarray(v, dtype=np.int64), num_vertices=n, vertex_base=base,
    )


class TestRegistry:
    def test_all_builtins_present(self):
        assert set(ALL_BACKENDS) <= set(available_backends())

    def test_get_backend_instantiates(self):
        assert get_backend("scipy").name == "scipy"

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="available"):
            get_backend("cuda")

    def test_register_duplicate_rejected(self):
        class Dup(Backend):
            name = "scipy"

            def kernel0(self, *a): ...
            def kernel1(self, *a): ...
            def kernel2(self, *a): ...
            def kernel3(self, *a): ...

        with pytest.raises(ValueError, match="already registered"):
            register_backend(Dup)

    def test_builtins_load_after_an_earlier_registration(self, monkeypatch):
        from repro.backends import registry

        class Custom(Backend):
            name = "custom"

            def kernel0(self, *a): ...
            def kernel1(self, *a): ...
            def kernel2(self, *a): ...
            def kernel3(self, *a): ...

        # A registry nobody has looked anything up in yet.
        monkeypatch.setattr(registry, "_REGISTRY", {})
        monkeypatch.setattr(registry, "_builtins_loaded", False,
                            raising=False)
        register_backend(Custom)
        assert available_backends() == sorted(ALL_BACKENDS + ["custom"])
        assert registry.backend_capabilities("custom") == {"serial"}

    def test_register_requires_name(self):
        class NoName(Backend):
            name = ""

            def kernel0(self, *a): ...
            def kernel1(self, *a): ...
            def kernel2(self, *a): ...
            def kernel3(self, *a): ...

        with pytest.raises(ValueError, match="non-empty"):
            register_backend(NoName)


class TestKernelOwnership:
    def test_only_the_python_backend_replaces_kernels_0_and_1(self):
        # Kernels 0/1/2 are defined once, in Backend; the numpy-family
        # backends may replace the generate/sort steps and supply the
        # Kernel 2 build, never a kernel (the async executor would then
        # have to run it coarse).
        replacing = {
            name
            for name in available_backends()
            for kernel in ("kernel0", "kernel1", "kernel2")
            if getattr(type(get_backend(name)), kernel)
            is not getattr(Backend, kernel)
        }
        assert replacing == {"python"}


class TestInitialRank:
    def test_unit_norm_and_deterministic(self):
        config = PipelineConfig(scale=6, seed=9)
        r1 = Backend.initial_rank(config)
        r2 = Backend.initial_rank(config)
        assert np.array_equal(r1, r2)
        assert np.abs(r1).sum() == pytest.approx(1.0)
        assert len(r1) == 64

    def test_differs_across_seeds(self):
        a = Backend.initial_rank(PipelineConfig(scale=6, seed=1))
        b = Backend.initial_rank(PipelineConfig(scale=6, seed=2))
        assert not np.array_equal(a, b)


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
class TestKernel1PerBackend:
    def test_sorts_and_preserves(self, backend_name, tmp_path, rng):
        n = 32
        u = rng.integers(0, n, size=300).astype(np.int64)
        v = rng.integers(0, n, size=300).astype(np.int64)
        source = _write_dataset(tmp_path, u, v, n)
        config = PipelineConfig(scale=5, backend=backend_name)
        backend = get_backend(backend_name)
        output, details = backend.kernel1(config, source, tmp_path / "out")
        su, sv = output.read_all()
        assert np.all(np.diff(su) >= 0)
        assert np.array_equal(np.sort(u * n + v), np.sort(su * n + sv))
        assert "phases" in details


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
class TestKernel2PerBackend:
    def test_star_graph_elimination(self, backend_name, tmp_path):
        # Star: all vertices point at 0.  Vertex 0 is the super-node
        # (din = 4) and must be eliminated; no other column survives
        # (every other din is 0), so the final matrix is empty.
        u = [1, 2, 3, 4]
        v = [0, 0, 0, 0]
        source = _write_dataset(tmp_path, u, v, 5)
        config = PipelineConfig(scale=5, backend=backend_name)
        backend = get_backend(backend_name)
        handle, details = backend.kernel2(config, source)
        assert handle.pre_filter_entry_total == 4.0
        assert details["supernode_columns"] == 1
        assert handle.nnz == 0

    def test_known_small_graph(self, backend_name, tmp_path):
        # Graph: 0->1, 0->1 (dup), 1->2, 2->1, 3->2.
        # A counts: (0,1)=2, (1,2)=1, (2,1)=1, (3,2)=1.
        # din: v1 = 3 (max, eliminated), v2 = 2 (kept; not 1, not max).
        # After elimination: (1,2)=1, (3,2)=1.
        # dout: row1 = 1 -> (1,2)=1.0; row3 = 1 -> (3,2)=1.0.
        u = [0, 0, 1, 2, 3]
        v = [1, 1, 2, 1, 2]
        source = _write_dataset(tmp_path, u, v, 4)
        config = PipelineConfig(scale=2, backend=backend_name)
        backend = get_backend(backend_name)
        handle, details = backend.kernel2(config, source)
        assert handle.pre_filter_entry_total == 5.0
        dense = handle.to_scipy_csr().toarray()
        expected = np.zeros((4, 4))
        expected[1, 2] = 1.0
        expected[3, 2] = 1.0
        assert np.allclose(dense, expected)

    def test_rows_are_stochastic_or_empty(self, backend_name, tmp_path, rng):
        n = 64
        u = rng.integers(0, n, size=600).astype(np.int64)
        v = rng.integers(0, n, size=600).astype(np.int64)
        source = _write_dataset(tmp_path, u, v, n)
        config = PipelineConfig(scale=6, backend=backend_name)
        backend = get_backend(backend_name)
        handle, _ = backend.kernel2(config, source)
        row_sums = np.asarray(handle.to_scipy_csr().sum(axis=1)).ravel()
        ok = np.isclose(row_sums, 1.0) | np.isclose(row_sums, 0.0)
        assert ok.all()


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
class TestKernel3PerBackend:
    def test_matches_reference_pagerank(self, backend_name, tmp_path, rng):
        from repro.pagerank.benchmark import benchmark_pagerank

        n = 64
        u = rng.integers(0, n, size=600).astype(np.int64)
        v = rng.integers(0, n, size=600).astype(np.int64)
        source = _write_dataset(tmp_path, u, v, n)
        config = PipelineConfig(scale=6, backend=backend_name, iterations=15,
                                seed=4)
        backend = get_backend(backend_name)
        handle, _ = backend.kernel2(config, source)
        rank, details = backend.kernel3(config, handle)
        reference = benchmark_pagerank(
            handle.to_scipy_csr(), Backend.initial_rank(config),
            damping=config.damping, iterations=15,
        )
        assert np.allclose(rank, reference, atol=1e-12)
        assert details["iterations"] == 15

    def test_wrong_handle_type_rejected(self, backend_name, tmp_path, rng):
        other_name = "scipy" if backend_name != "scipy" else "numpy"
        n = 16
        u = rng.integers(0, n, size=50).astype(np.int64)
        v = rng.integers(0, n, size=50).astype(np.int64)
        source = _write_dataset(tmp_path, u, v, n)
        config = PipelineConfig(scale=4, backend=backend_name)
        handle, _ = get_backend(other_name).kernel2(config, source)
        with pytest.raises(TypeError):
            get_backend(backend_name).kernel3(config, handle)


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
class TestKernel0PerBackend:
    def test_writes_spec_sized_dataset(self, backend_name, tmp_path):
        config = PipelineConfig(scale=6, edge_factor=4, backend=backend_name,
                                num_files=3, seed=2)
        backend = get_backend(backend_name)
        dataset, details = backend.kernel0(config, tmp_path / "k0")
        assert dataset.num_edges == config.num_edges
        assert dataset.num_shards == 3
        u, v = dataset.read_all()
        assert u.min() >= 0 and u.max() < config.num_vertices
        assert details["num_edges"] == config.num_edges

    def test_one_based_files(self, backend_name, tmp_path):
        config = PipelineConfig(scale=5, edge_factor=2, backend=backend_name,
                                vertex_base=1, seed=2)
        backend = get_backend(backend_name)
        dataset, _ = backend.kernel0(config, tmp_path / "k0")
        payload = dataset.shard_paths()[0].read_bytes()
        first = payload.splitlines()[0].split(b"\t")
        assert int(first[0]) >= 1  # 1-based on disk
        u, _ = dataset.read_all()
        assert u.min() >= 0  # 0-based in memory
