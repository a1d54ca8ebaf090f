"""The graphblas backend: pipeline over :mod:`repro.grb`.

Demonstrates the paper's closing suggestion that "implementations using
the GraphBLAS standard would enable comparison of the GraphBLAS
capabilities with other technologies": every Kernel 2/3 step is a
GraphBLAS-vocabulary operation (``build``, ``reduce_columns``,
``clear_columns``, ``scale_rows``, ``vxm`` under ``plus_times``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import Timings
from repro.backends.base import AdjacencyHandle, Backend, Details, KernelOutput
from repro.core.config import PipelineConfig
from repro.grb import Matrix, PLUS_TIMES, Vector, vxm


class GrbAdjacency(AdjacencyHandle):
    """Kernel 2 output as a :class:`repro.grb.Matrix`."""

    def __init__(self, matrix: Matrix, pre_filter_total: float) -> None:
        self.matrix = matrix
        self._pre_filter_total = float(pre_filter_total)

    @property
    def num_vertices(self) -> int:
        return self.matrix.nrows

    @property
    def nnz(self) -> int:
        return self.matrix.nvals

    @property
    def pre_filter_entry_total(self) -> float:
        return self._pre_filter_total

    def to_scipy_csr(self) -> sp.csr_matrix:
        m = self.matrix
        return sp.csr_matrix(
            (m.values.copy(), m.col_idx.copy(), m.row_ptr.copy()),
            shape=m.shape,
        )


class GraphBlasBackend(Backend):
    """GraphBLAS-lite implementation of all four kernels."""

    name = "graphblas"
    capabilities = frozenset({"serial", "streaming"})

    def adjacency_from_csr(self, matrix, pre_filter_total):
        # scipy CSR and repro.grb.Matrix share the same storage layout,
        # so adoption is a zero-copy re-wrap of the three arrays.
        csr = matrix.tocsr()
        adopted = Matrix(
            csr.shape[0],
            csr.shape[1],
            csr.indptr.astype(np.int64),
            csr.indices.astype(np.int64),
            csr.data.astype(np.float64),
        )
        return GrbAdjacency(adopted, pre_filter_total)

    # ------------------------------------------------------------------
    def build_adjacency(
        self, config: PipelineConfig, u: np.ndarray, v: np.ndarray, n: int,
        timings: Timings,
    ) -> KernelOutput[AdjacencyHandle]:
        with timings.measure("construct"):
            adjacency = Matrix.build(u, v, nrows=n, ncols=n)
            pre_filter_total = adjacency.reduce_scalar()

        with timings.measure("filter"):
            din = adjacency.reduce_columns()
            max_in = din.max() if n else 0.0
            supernode_count = leaf_count = eliminated_count = 0
            if max_in > 0:
                supernode_mask = din == max_in
                leaf_mask = din == 1
                eliminate = supernode_mask | leaf_mask
                supernode_count = int(supernode_mask.sum())
                leaf_count = int(leaf_mask.sum())
                eliminated_count = int(eliminate.sum())
                adjacency = adjacency.clear_columns(eliminate)

        with timings.measure("normalize"):
            dout = adjacency.reduce_rows()
            nonzero = dout > 0
            inv = np.ones(n, dtype=np.float64)
            inv[nonzero] = 1.0 / dout[nonzero]
            adjacency = adjacency.scale_rows(inv)

        handle = GrbAdjacency(adjacency, pre_filter_total)
        details: Details = {
            "phases": timings.as_dict(),
            "nnz": handle.nnz,
            "pre_filter_entry_total": pre_filter_total,
            "max_in_degree": float(max_in),
            "supernode_columns": supernode_count,
            "leaf_columns": leaf_count,
            "eliminated_columns": eliminated_count,
            "nonzero_rows": int(nonzero.sum()),
        }
        return handle, details

    # ------------------------------------------------------------------
    def kernel3(
        self, config: PipelineConfig, matrix: AdjacencyHandle
    ) -> KernelOutput[np.ndarray]:
        if not isinstance(matrix, GrbAdjacency):
            raise TypeError(
                f"graphblas backend needs GrbAdjacency, got {type(matrix).__name__}"
            )
        timings = Timings()
        with timings.measure("setup"):
            a = matrix.matrix
            n = matrix.num_vertices
            c = config.damping
            r = Vector(self.initial_rank(config))
            scale_by_n = config.formula == "appendix"
        with timings.measure("iterate"):
            for _ in range(config.iterations):
                spread = vxm(r, a, PLUS_TIMES)
                teleport = (1.0 - c) * r.reduce()
                if scale_by_n:
                    teleport /= n
                r = spread.scale(c).ewise_add(Vector.full(n, teleport))
            rank = r.to_dense()
        details: Details = {
            "phases": timings.as_dict(),
            "iterations": config.iterations,
            "damping": c,
            "rank_sum": float(rank.sum()),
        }
        return rank, details
