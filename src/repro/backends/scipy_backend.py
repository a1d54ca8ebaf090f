"""The scipy backend: ``scipy.sparse`` kernels.

This is the reference high-performance implementation — the analogue of
the paper's Matlab/Julia codes, whose kernels are one-liner sparse
operations.  Kernel 2 is a direct transcription of the paper's
Matlab listing into scipy:

====================================  =================================
paper (Matlab)                        here (scipy)
====================================  =================================
``A = sparse(u,v,1,N,N)``             ``coo_matrix((1s,(u,v))).tocsr()``
``din = sum(A,1)``                    ``A.sum(axis=0)``
``A(:,din==max(din)) = 0``            right-multiply by column selector
``A(:,din==1) = 0``                   right-multiply by column selector
``dout = sum(A,2)``                   ``A.sum(axis=1)``
``A(i,:) = A(i,:) ./ dout(i)``        left-multiply by ``diag(1/dout)``
====================================  =================================
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._util import Timings
from repro.backends.base import AdjacencyHandle, Backend, Details, KernelOutput
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset


class ScipyAdjacency(AdjacencyHandle):
    """Kernel 2 output as a scipy CSR matrix."""

    def __init__(self, matrix: sp.csr_matrix, pre_filter_total: float) -> None:
        self._matrix = matrix.tocsr()
        self._pre_filter_total = float(pre_filter_total)

    @property
    def num_vertices(self) -> int:
        return self._matrix.shape[0]

    @property
    def nnz(self) -> int:
        return int(self._matrix.nnz)

    @property
    def pre_filter_entry_total(self) -> float:
        return self._pre_filter_total

    @property
    def matrix(self) -> sp.csr_matrix:
        """The underlying CSR matrix (not copied)."""
        return self._matrix

    def to_scipy_csr(self) -> sp.csr_matrix:
        return self._matrix.copy()


class ScipyBackend(Backend):
    """scipy.sparse implementation of all four kernels."""

    name = "scipy"
    capabilities = frozenset({"serial", "streaming", "parallel"})

    def adjacency_from_csr(self, matrix, pre_filter_total):
        return ScipyAdjacency(matrix, pre_filter_total)

    # ------------------------------------------------------------------
    def kernel2(
        self, config: PipelineConfig, source: EdgeDataset
    ) -> KernelOutput[AdjacencyHandle]:
        timings = Timings()
        n = source.num_vertices
        with timings.measure("read"):
            u, v = source.read_all()

        with timings.measure("construct"):
            ones = np.ones(len(u), dtype=np.float64)
            adjacency = sp.coo_matrix((ones, (u, v)), shape=(n, n)).tocsr()
            pre_filter_total = float(adjacency.sum())

        with timings.measure("filter"):
            din = np.asarray(adjacency.sum(axis=0)).ravel()
            max_in = din.max() if len(din) else 0.0
            eliminate = np.zeros(n, dtype=bool)
            supernode_count = 0
            leaf_count = 0
            if max_in > 0:
                supernode_mask = din == max_in
                leaf_mask = din == 1
                eliminate = supernode_mask | leaf_mask
                supernode_count = int(supernode_mask.sum())
                leaf_count = int(leaf_mask.sum())
                keep_diag = sp.diags((~eliminate).astype(np.float64))
                adjacency = (adjacency @ keep_diag).tocsr()
                adjacency.eliminate_zeros()

        with timings.measure("normalize"):
            dout = np.asarray(adjacency.sum(axis=1)).ravel()
            inv = np.ones(n, dtype=np.float64)
            nonzero = dout > 0
            inv[nonzero] = 1.0 / dout[nonzero]
            adjacency = sp.diags(inv) @ adjacency
            adjacency = adjacency.tocsr()

        handle = ScipyAdjacency(adjacency, pre_filter_total)
        details: Details = {
            "phases": timings.as_dict(),
            "nnz": handle.nnz,
            "pre_filter_entry_total": pre_filter_total,
            "max_in_degree": float(max_in),
            "supernode_columns": supernode_count,
            "leaf_columns": leaf_count,
            "nonzero_rows": int(nonzero.sum()),
        }
        return handle, details

    # ------------------------------------------------------------------
    def kernel3(
        self, config: PipelineConfig, matrix: AdjacencyHandle
    ) -> KernelOutput[np.ndarray]:
        if not isinstance(matrix, ScipyAdjacency):
            raise TypeError(
                f"scipy backend needs ScipyAdjacency, got {type(matrix).__name__}"
            )
        a = matrix.matrix
        at = a.T.tocsr()  # one transposed copy; r@A == (A.T @ r)
        n = matrix.num_vertices
        c = config.damping
        r = self.initial_rank(config)
        scale_by_n = config.formula == "appendix"
        for _ in range(config.iterations):
            teleport = (1.0 - c) * r.sum()
            if scale_by_n:
                teleport /= n
            r = c * (at @ r) + teleport
        details: Details = {
            "iterations": config.iterations,
            "damping": c,
            "rank_sum": float(r.sum()),
        }
        return r, details
