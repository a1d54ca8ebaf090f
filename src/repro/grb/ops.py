"""Matrix-vector product under a semiring.

``vxm`` (row-vector times matrix) is the PageRank workhorse:
``r' = r @ A`` distributes each rank share along out-edges.  It has an
O(nnz) fast path for the ``plus_times`` semiring (bincount) and a
generic path using ``ufunc.at`` scatter-reduction for any other monoid.
"""

from __future__ import annotations

import numpy as np

from repro.grb.matrix import Matrix
from repro.grb.semiring import PLUS_TIMES, Semiring
from repro.grb.vector import Vector


def vxm(x: Vector, a: Matrix, semiring: Semiring = PLUS_TIMES) -> Vector:
    """Row-vector-matrix product ``y = x ⊕.⊗ A``.

    ``y[j] = add.reduce_i( multiply(x[i], A[i, j]) )``

    Parameters
    ----------
    x:
        Vector of size ``a.nrows``.
    a:
        Matrix.
    semiring:
        Semiring; defaults to arithmetic ``plus_times``.

    Examples
    --------
    >>> import numpy as np
    >>> a = Matrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    >>> vxm(Vector.from_dense([2.0, 3.0]), a).to_dense().tolist()
    [3.0, 2.0]
    """
    if x.size != a.nrows:
        raise ValueError(f"vector size {x.size} != matrix nrows {a.nrows}")
    xv = x.values
    row_of = np.repeat(np.arange(a.nrows), np.diff(a.row_ptr))
    contributions = semiring.multiply(xv[row_of], a.values)
    if semiring.add.ufunc is np.add:
        out = np.bincount(
            a.col_idx, weights=contributions, minlength=a.ncols
        ).astype(np.float64)
    else:
        out = np.full(a.ncols, semiring.add.identity, dtype=np.float64)
        semiring.add.ufunc.at(out, a.col_idx, contributions)
    return Vector(out)
