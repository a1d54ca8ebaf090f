"""Property-based tests of the Kernel 2 specification invariants.

These run the actual backend Kernel 2 on arbitrary edge lists and check
the contracts the paper states: entries sum to M before filtering,
eliminated columns are empty, surviving rows are stochastic, and all
backends agree — the core of the benchmark's verifiability story.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.registry import get_backend
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset

N = 16
CONFIG = PipelineConfig(scale=4, seed=1)


@st.composite
def edge_lists(draw, max_edges=120):
    m = draw(st.integers(min_value=1, max_value=max_edges))
    u = draw(st.lists(st.integers(0, N - 1), min_size=m, max_size=m))
    v = draw(st.lists(st.integers(0, N - 1), min_size=m, max_size=m))
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def _run_kernel2(tmp_path_factory, u, v, backend_name="numpy"):
    base = tmp_path_factory.mktemp("prop-k2")
    ds = EdgeDataset.write(base / "in", u, v, num_vertices=N)
    backend = get_backend(backend_name)
    return backend.kernel2(CONFIG, ds)


class TestKernel2Contracts:
    @settings(max_examples=40)
    @given(edges=edge_lists())
    def test_entries_sum_to_m(self, tmp_path_factory, edges):
        u, v = edges
        handle, _ = _run_kernel2(tmp_path_factory, u, v)
        assert handle.pre_filter_entry_total == len(u)

    @settings(max_examples=40)
    @given(edges=edge_lists())
    def test_eliminated_columns_are_empty(self, tmp_path_factory, edges):
        u, v = edges
        handle, details = _run_kernel2(tmp_path_factory, u, v)
        matrix = handle.to_scipy_csr()
        # Recompute the elimination rule from the raw edges.
        din = np.bincount(v, minlength=N).astype(float)
        eliminate = (din == din.max()) | (din == 1)
        col_sums = np.asarray(matrix.sum(axis=0)).ravel()
        assert np.all(col_sums[eliminate] == 0.0)

    @settings(max_examples=40)
    @given(edges=edge_lists())
    def test_surviving_rows_stochastic(self, tmp_path_factory, edges):
        u, v = edges
        handle, _ = _run_kernel2(tmp_path_factory, u, v)
        row_sums = np.asarray(handle.to_scipy_csr().sum(axis=1)).ravel()
        assert np.all(
            np.isclose(row_sums, 1.0) | np.isclose(row_sums, 0.0)
        )

    @settings(max_examples=40)
    @given(edges=edge_lists())
    def test_values_are_valid_probabilities(self, tmp_path_factory, edges):
        u, v = edges
        handle, _ = _run_kernel2(tmp_path_factory, u, v)
        matrix = handle.to_scipy_csr()
        assert (matrix.data > 0).all()
        assert (matrix.data <= 1.0 + 1e-12).all()

    @settings(max_examples=15)
    @given(edges=edge_lists(max_edges=60))
    def test_backends_agree(self, tmp_path_factory, edges):
        u, v = edges
        reference, _ = _run_kernel2(tmp_path_factory, u, v, "scipy")
        ref_dense = reference.to_scipy_csr().toarray()
        for name in ("numpy", "graphblas", "dataframe", "python"):
            handle, _ = _run_kernel2(tmp_path_factory, u, v, name)
            assert np.allclose(handle.to_scipy_csr().toarray(), ref_dense), name


class TestKernel3Property:
    @settings(max_examples=20)
    @given(edges=edge_lists(max_edges=80))
    def test_rank_finite_nonnegative_bounded(self, tmp_path_factory, edges):
        u, v = edges
        handle, _ = _run_kernel2(tmp_path_factory, u, v)
        backend = get_backend("numpy")
        rank, _ = backend.kernel3(CONFIG, handle)
        assert np.isfinite(rank).all()
        assert (rank >= 0).all()
        assert rank.sum() <= 1.0 + 1e-9
