"""GraphBLAS-lite: a small sparse linear-algebra substrate.

The paper (Sections I and IV): "The linear algebraic nature of PageRank
makes it well suited to being implemented using the GraphBLAS standard."
This package provides the subset of GraphBLAS that Kernels 2 and 3 need,
and nothing beyond it:

* :class:`Matrix` — CSR sparse matrix with duplicate-accumulating
  ``build`` (exactly Matlab's ``sparse(u,v,1,N,N)`` semantics),
  ``reduce_rows``/``reduce_columns``, ``clear_columns`` and
  ``scale_rows``;
* :class:`Vector` — dense vector with monoid reductions;
* :mod:`repro.grb.semiring` — ``plus_times``, ``min_plus``,
  ``max_times``, ``lor_land`` semirings over float64;
* ``vxm`` — the row-vector-matrix product under any registered
  semiring, with a fast path for ``plus_times``.

The implementation is pure numpy (bincount / reduceat segment kernels);
it is deliberately independent of ``scipy.sparse`` so the scipy backend
and the graphblas backend are genuinely distinct implementations.
"""

from __future__ import annotations

from repro.grb.semiring import (
    LOR_LAND,
    MAX_TIMES,
    MIN_PLUS,
    PLUS_TIMES,
    Monoid,
    Semiring,
    available_semirings,
    get_semiring,
)
from repro.grb.vector import Vector
from repro.grb.matrix import Matrix
from repro.grb.ops import vxm

__all__ = [
    "LOR_LAND",
    "MAX_TIMES",
    "MIN_PLUS",
    "Matrix",
    "Monoid",
    "PLUS_TIMES",
    "Semiring",
    "Vector",
    "available_semirings",
    "get_semiring",
    "vxm",
]
