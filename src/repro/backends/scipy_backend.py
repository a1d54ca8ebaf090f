"""The scipy backend: ``scipy.sparse`` kernels.

This is the reference high-performance implementation — the analogue of
the paper's Matlab/Julia codes, whose kernels are one-liner sparse
operations.  Each line of the paper's listing is computed once, on
column-major triples (the middle four in ``Backend.filter_triples``):

================================  ==========================================
paper (Matlab)                    here
================================  ==========================================
``A = sparse(u,v,1,N,N)``         ``cols, rows, vals = collapse_duplicates(v, u)``
``din = sum(A,1)``                ``np.bincount(cols, weights=vals)``
``A(:,din==max(din)) = 0``        one boolean compress of the triples,
``A(:,din==1) = 0``               ``~eliminate[cols]``, for both masks
``dout = sum(A,2)``               ``np.bincount(rows, weights=vals)``
``A(i,:) = A(i,:) ./ dout(i)``    ``vals * inv[rows]``, then
                                  ``sp.csc_matrix((vals, rows, indptr))``
``r = c*(r*A) + (1-c)*sum(r)/N``  ``A.T @ r`` into a buffer, scaled and
                                  shifted there; ``A.T`` a view
================================  ==========================================

Matlab's ``sparse`` is compressed-column, so ``r*A`` walks the matrix as
stored and Kernel 3 is only the products.  CSC is the faithful layout:
its arrays are byte for byte the CSR arrays of ``Aᵀ``, so ``A.T`` is a
view and ``A.T @ r`` one ``csr_matvec`` over what Kernel 2 built (a CSR
``A`` needs a transposed copy per run).  Kernel 3 calls that
``csr_matvec`` itself, into one of two vectors allocated once, so an
iteration allocates no N-vector and the bits are those of ``A.T @ r``.
Counts are exact integers and each value is the one product
``count * (1/dout[row])``: bit for bit the literal scipy transcription
(``tests/unit/test_kernel2_oracle.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from repro._util import Timings
from repro.backends.base import AdjacencyHandle, Backend, Details, KernelOutput
from repro.core.config import PipelineConfig
from repro.sort.inmemory import collapse_duplicates


class ScipyAdjacency(AdjacencyHandle):
    """Kernel 2 output as a scipy CSC matrix — Kernel 3's operand
    (any other format is converted once, here, inside Kernel 2)."""

    def __init__(self, matrix: sp.spmatrix, pre_filter_total: float) -> None:
        self._matrix = matrix.tocsc()
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
    def matrix(self) -> sp.csc_matrix:
        """The underlying CSC matrix (not copied)."""
        return self._matrix

    def to_scipy_csr(self) -> sp.csr_matrix:
        return self._matrix.tocsr()

    def compressed(self) -> sp.csc_matrix:
        return self._matrix


class ScipyBackend(Backend):
    """scipy.sparse implementation of all four kernels."""

    name = "scipy"
    capabilities = frozenset({"serial", "streaming", "parallel"})

    def adjacency_from_csr(self, matrix, pre_filter_total):
        return ScipyAdjacency(matrix, pre_filter_total)

    # ------------------------------------------------------------------
    def build_adjacency(
        self, config: PipelineConfig, u: np.ndarray, v: np.ndarray, n: int,
        timings: Timings,
    ) -> KernelOutput[AdjacencyHandle]:
        with timings.measure("construct"):
            # Column-major: sorted by (v, u), which is CSC's entry order.
            cols, rows, vals = collapse_duplicates(v, u)
            del u, v  # or the raw edges sit under the filter's memory peak
            pre_filter_total = float(vals.sum())

        rows, cols, vals, stats = self.filter_triples(timings, n, rows, cols, vals)
        with timings.measure("normalize"):
            indptr = np.r_[0, np.cumsum(np.bincount(cols, minlength=n))]
            adjacency = sp.csc_matrix((vals, rows, indptr), shape=(n, n))

        handle = ScipyAdjacency(adjacency, pre_filter_total)
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
        if not isinstance(matrix, ScipyAdjacency):
            raise TypeError(
                f"scipy backend needs ScipyAdjacency, got {type(matrix).__name__}"
            )
        timings = Timings()
        with timings.measure("setup"):
            at = matrix.matrix.T  # CSC of A read as CSR of Aᵀ: a view
            product = matvec_product(at)
        return self.fixed_iterations(config, timings, product)


def matvec_product(at: sp.csr_matrix):
    """``r -> at @ r`` for :meth:`Backend.fixed_iterations`, without the
    per-call allocation: the ``csr_matvec`` that ``@`` calls, into a
    vector zeroed first, as ``@`` zeroes its own (the routine adds into
    its output).  The product alternates between two vectors allocated
    here, so it never writes the ``r`` it reads, and each result is
    free to be scaled in place until the call after next."""
    m, n = at.shape
    buffers = [np.empty(m), np.empty(m)]

    def product(r: np.ndarray) -> np.ndarray:
        if r.shape != (n,):  # csr_matvec reads n values, unchecked
            raise ValueError(f"r has shape {r.shape}, the matrix ({m}, {n})")
        y = buffers[0]
        buffers.reverse()
        y.fill(0.0)
        _sparsetools.csr_matvec(m, n, at.indptr, at.indices, at.data, r, y)
        return y

    return product
