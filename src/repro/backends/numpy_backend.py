"""The numpy backend: hand-rolled COO kernels over raw arrays.

Where the scipy backend delegates sparse algebra to compiled CSR
routines, this backend keeps the adjacency matrix as *coordinate
triples* ``(rows, cols, vals)`` and implements every kernel with numpy
primitives directly: pair ordering + run-collapse for duplicate
accumulation, ``bincount`` for degree reductions and the SpMV scatter.
It is a genuinely different code path (COO scatter-style SpMV vs CSR
segment-style), which is exactly the kind of implementation spread the
paper's language comparison measures.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import Timings
from repro.backends.base import AdjacencyHandle, Backend, Details, KernelOutput
from repro.core.config import PipelineConfig
from repro.sort.inmemory import collapse_duplicates


class CooAdjacency(AdjacencyHandle):
    """Kernel 2 output as deduplicated, normalised COO triples."""

    def __init__(
        self,
        num_vertices: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        pre_filter_total: float,
    ) -> None:
        self._n = num_vertices
        # Index arrays, not labels: Kernel 3 gathers and scatters by them
        # every iteration, and numpy converts any other index dtype to
        # intp on each use.
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = vals
        self._pre_filter_total = float(pre_filter_total)

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def pre_filter_entry_total(self) -> float:
        return self._pre_filter_total

    def to_scipy_csr(self) -> sp.csr_matrix:
        return sp.coo_matrix(
            (self.vals, (self.rows, self.cols)), shape=(self._n, self._n)
        ).tocsr()


class NumpyBackend(Backend):
    """Hand-rolled numpy implementation of all four kernels."""

    name = "numpy"
    capabilities = frozenset({"serial", "streaming", "parallel"})

    def adjacency_from_csr(self, matrix, pre_filter_total):
        # CSR -> COO yields row-major triples, the same order
        # collapse_duplicates produces, so Kernel 3's bincount
        # summation order (and thus its float64 result) is preserved
        # (a CSC matrix is made CSR first for the same reason).
        coo = matrix.tocsr().tocoo()
        return CooAdjacency(
            matrix.shape[0], coo.row, coo.col, coo.data.astype(np.float64),
            pre_filter_total,
        )

    # ------------------------------------------------------------------
    def build_adjacency(
        self, config: PipelineConfig, u: np.ndarray, v: np.ndarray, n: int,
        timings: Timings,
    ) -> KernelOutput[AdjacencyHandle]:
        with timings.measure("construct"):
            rows, cols, vals = collapse_duplicates(u, v)
            pre_filter_total = float(vals.sum())

        rows, cols, vals, stats = self.filter_triples(timings, n, rows, cols, vals)
        handle = CooAdjacency(n, rows, cols, vals, pre_filter_total)
        details: Details = {
            "phases": timings.as_dict(),
            "nnz": handle.nnz,
            "pre_filter_entry_total": pre_filter_total,
            **stats,
        }
        return handle, details

    # ------------------------------------------------------------------
    def kernel3(
        self, config: PipelineConfig, matrix: AdjacencyHandle
    ) -> KernelOutput[np.ndarray]:
        if not isinstance(matrix, CooAdjacency):
            raise TypeError(
                f"numpy backend needs CooAdjacency, got {type(matrix).__name__}"
            )
        n = matrix.num_vertices
        rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
        return self.fixed_iterations(
            config, Timings(),
            lambda r: np.bincount(cols, weights=r[rows] * vals, minlength=n),
        )
