"""Failure injection: the pipeline must fail loudly, never silently.

Each test breaks one link of the chain — files, manifests, kernel
contracts — and asserts a specific, diagnosable error surfaces.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from broken_backends import BrokenK0 as _BrokenK0
from broken_backends import LossyK2 as _LossyK2
from broken_backends import NaNK3 as _NaNK3
from broken_backends import UnsortedK1 as _UnsortedK1

from repro.backends.base import Backend
from repro.backends.scipy_backend import ScipyBackend
from repro.core.config import PipelineConfig
from repro.core.exceptions import KernelContractError
from repro.core.pipeline import run_pipeline
from repro.edgeio.dataset import EdgeDataset
from repro.edgeio.errors import CorruptEdgeFileError, DatasetLayoutError


class TestContractEnforcement:
    CONFIG = PipelineConfig(scale=6, seed=1)

    def test_k0_edge_count_violation(self):
        with pytest.raises(KernelContractError, match="spec requires"):
            run_pipeline(self.CONFIG, backend=_BrokenK0())

    def test_k1_unsorted_output(self):
        with pytest.raises(KernelContractError, match="not sorted"):
            run_pipeline(self.CONFIG, backend=_UnsortedK1())

    def test_k2_entry_sum_violation(self):
        with pytest.raises(KernelContractError, match="sum"):
            run_pipeline(self.CONFIG, backend=_LossyK2())

    def test_k3_non_finite_rank(self):
        with pytest.raises(KernelContractError, match="non-finite"):
            run_pipeline(self.CONFIG, backend=_NaNK3())

    def test_validation_off_does_not_hide_k3_shape_errors(self):
        # validation="off" skips checks entirely — document that trade-off.
        result = run_pipeline(self.CONFIG.with_overrides(validation="off"),
                              backend=_UnsortedK1())  # no error, caller opted out
        assert result.rank is not None


class TestCorruptFilesMidPipeline:
    def test_k2_rejects_corrupted_k1_output(self, tmp_path):
        config = PipelineConfig(scale=6, seed=1)
        backend = ScipyBackend()
        k0, _ = backend.kernel0(config, tmp_path / "k0")
        k1, _ = backend.kernel1(config, k0, tmp_path / "k1")
        shard = k1.shard_paths()[0]
        payload = shard.read_bytes()
        shard.write_bytes(payload[: len(payload) // 2] + b"garbage\t\t\n")
        with pytest.raises((CorruptEdgeFileError, DatasetLayoutError)):
            fresh = EdgeDataset.open(k1.directory)
            backend.kernel2(config, fresh)

    def test_deleted_shard_detected_at_open(self, tmp_path):
        config = PipelineConfig(scale=6, seed=1, num_files=3)
        backend = ScipyBackend()
        k0, _ = backend.kernel0(config, tmp_path / "k0")
        k0.shard_paths()[1].unlink()
        with pytest.raises(DatasetLayoutError, match="missing"):
            EdgeDataset.open(k0.directory)

    def test_manifest_tampering_detected(self, tmp_path):
        config = PipelineConfig(scale=6, seed=1)
        backend = ScipyBackend()
        k0, _ = backend.kernel0(config, tmp_path / "k0")
        manifest_path = tmp_path / "k0" / "manifest.json"
        manifest_path.write_text(manifest_path.read_text().replace(
            '"num_edges": 1024', '"num_edges": 999'
        ))
        reopened = EdgeDataset.open(tmp_path / "k0")  # sizes still match
        with pytest.raises(CorruptEdgeFileError, match="manifest says"):
            reopened.read_shard(0)


class TestDegenerateGraphs:
    @pytest.mark.parametrize("edges", [
        ([0, 1, 2], [0, 1, 2]),          # only self-loops
        ([0] * 10, [1] * 10),            # one repeated edge
        ([0, 1], [1, 0]),                # 2-cycle
    ])
    def test_kernel2_and_3_survive(self, tmp_path, edges):
        u, v = (np.array(edges[0], dtype=np.int64),
                np.array(edges[1], dtype=np.int64))
        ds = EdgeDataset.write(tmp_path / "d", u, v, num_vertices=4)
        config = PipelineConfig(scale=2, seed=1)
        backend = ScipyBackend()
        handle, _ = backend.kernel2(config, ds)
        rank, _ = backend.kernel3(config, handle)
        assert np.isfinite(rank).all()

    def test_empty_edge_list(self, tmp_path):
        empty = np.empty(0, dtype=np.int64)
        ds = EdgeDataset.write(tmp_path / "d", empty, empty, num_vertices=4)
        config = PipelineConfig(scale=2, seed=1)
        backend = ScipyBackend()
        handle, details = backend.kernel2(config, ds)
        assert handle.nnz == 0
        rank, _ = backend.kernel3(config, handle)
        # Pure teleport: uniform collapse.
        assert np.allclose(rank, rank[0])


class TestBadWorkspace:
    def test_unwritable_data_dir_raises_os_error(self, tmp_path):
        import os

        if os.geteuid() == 0:
            pytest.skip("root bypasses file permission bits")
        target = tmp_path / "readonly"
        target.mkdir()
        target.chmod(0o500)
        config = PipelineConfig(scale=6, seed=1, data_dir=target)
        try:
            with pytest.raises(PermissionError):
                run_pipeline(config)
        finally:
            target.chmod(0o700)
