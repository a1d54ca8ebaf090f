"""CSR sparse matrix for GraphBLAS-lite.

``Matrix`` stores compressed sparse rows (``row_ptr``, ``col_idx``,
``values``) over float64 and implements exactly the operations Kernel 2
and Kernel 3 need, in GraphBLAS vocabulary:

* ``build`` — COO triples with duplicate accumulation
  (``sparse(u, v, 1, N, N)`` semantics);
* ``reduce_rows`` / ``reduce_columns`` — out-degree / in-degree;
* ``clear_columns`` — the super-node / leaf elimination;
* ``scale_rows`` — row normalisation by out-degree;
* ``vxm`` (in :mod:`repro.grb.ops`) — the PageRank product.

Construction is a counting sort on row indices (the CSR row-pointer
build), all O(nnz + n); no scipy involved.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro._util import check_nonneg_int, check_positive_int, check_same_length
from repro.grb.semiring import Monoid, PLUS
from repro.sort.inmemory import pair_order


class Matrix:
    """An ``nrows x ncols`` CSR sparse matrix of float64 values.

    Instances are immutable from the public API's point of view: every
    operation returns a new matrix (cheap — arrays are shared when
    unchanged).  Explicit zeros are permitted and reported by ``nvals``
    until :meth:`prune` removes them.
    """

    __slots__ = ("nrows", "ncols", "row_ptr", "col_idx", "values")

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row_ptr: np.ndarray,
        col_idx: np.ndarray,
        values: np.ndarray,
    ) -> None:
        self.nrows = check_nonneg_int("nrows", nrows)
        self.ncols = check_nonneg_int("ncols", ncols)
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.col_idx = np.asarray(col_idx, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)
        if len(self.row_ptr) != nrows + 1:
            raise ValueError(
                f"row_ptr length {len(self.row_ptr)} != nrows + 1 = {nrows + 1}"
            )
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != len(self.col_idx):
            raise ValueError("row_ptr must start at 0 and end at nnz")
        check_same_length("col_idx", self.col_idx, "values", self.values)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        values: Optional[np.ndarray] = None,
        *,
        nrows: int,
        ncols: int,
        dup: Monoid = PLUS,
    ) -> "Matrix":
        """Build from COO triples, accumulating duplicates with ``dup``.

        Parameters
        ----------
        rows, cols:
            Integer coordinate arrays.
        values:
            Entry values; defaults to all-ones (edge counting).
        nrows, ncols:
            Matrix shape.
        dup:
            Monoid combining duplicate coordinates (default ``plus`` —
            Matlab ``sparse`` semantics, required by Kernel 2).

        Examples
        --------
        >>> import numpy as np
        >>> m = Matrix.build(np.array([0, 0]), np.array([1, 1]), nrows=2, ncols=2)
        >>> m.nvals, m.reduce_scalar()
        (1, 2.0)
        """
        check_positive_int("nrows", nrows)
        check_positive_int("ncols", ncols)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        check_same_length("rows", rows, "cols", cols)
        if values is None:
            values = np.ones(len(rows), dtype=np.float64)
        else:
            values = np.asarray(values, dtype=np.float64)
            check_same_length("rows", rows, "values", values)
        if len(rows):
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError(
                    f"row indices outside [0, {nrows}): "
                    f"min={rows.min()}, max={rows.max()}"
                )
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError(
                    f"col indices outside [0, {ncols}): "
                    f"min={cols.min()}, max={cols.max()}"
                )

        # Sort by (row, col) so duplicates become adjacent, then collapse.
        order = pair_order(rows, cols)
        r = rows[order]
        c = cols[order]
        w = values[order]
        if len(r):
            new_entry = np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])]
            group_id = np.cumsum(new_entry) - 1
            num_groups = int(group_id[-1]) + 1
            ur = r[new_entry]
            uc = c[new_entry]
            if dup.ufunc is np.add:
                uw = np.bincount(group_id, weights=w, minlength=num_groups)
            else:
                uw = np.full(num_groups, dup.identity, dtype=np.float64)
                dup.ufunc.at(uw, group_id, w)
        else:
            ur = r
            uc = c
            uw = w.astype(np.float64)

        row_counts = np.bincount(ur, minlength=nrows)
        row_ptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(row_counts, out=row_ptr[1:])
        return cls(nrows, ncols, row_ptr, uc, uw)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "Matrix":
        """Build from a dense 2-D array, keeping non-zero entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected 2-D array, got shape {dense.shape}")
        rows, cols = np.nonzero(dense)
        return cls.build(
            rows.astype(np.int64),
            cols.astype(np.int64),
            dense[rows, cols],
            nrows=dense.shape[0],
            ncols=dense.shape[1],
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """(nrows, ncols)."""
        return (self.nrows, self.ncols)

    @property
    def nvals(self) -> int:
        """Number of stored entries (including explicit zeros)."""
        return len(self.values)

    def row_degrees(self) -> np.ndarray:
        """Stored-entry count per row (out-degree when values are counts)."""
        return np.diff(self.row_ptr)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense array (small matrices / tests only)."""
        dense = np.zeros((self.nrows, self.ncols), dtype=np.float64)
        row_of = np.repeat(np.arange(self.nrows), self.row_degrees())
        np.add.at(dense, (row_of, self.col_idx), self.values)
        return dense

    def isclose(self, other: "Matrix", *, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Structural + numeric equality up to tolerance (after pruning)."""
        a = self.prune()
        b = other.prune()
        return (
            a.shape == b.shape
            and np.array_equal(a.row_ptr, b.row_ptr)
            and np.array_equal(a.col_idx, b.col_idx)
            and bool(np.allclose(a.values, b.values, rtol=rtol, atol=atol))
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Matrix(shape={self.shape}, nvals={self.nvals})"

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def reduce_rows(self, monoid: Monoid = PLUS) -> np.ndarray:
        """Per-row reduction (``sum(A, 2)`` when monoid is plus)."""
        return monoid.segment_reduce(self.values, self.row_ptr)

    def reduce_columns(self, monoid: Monoid = PLUS) -> np.ndarray:
        """Per-column reduction (``sum(A, 1)`` when monoid is plus)."""
        if monoid.ufunc is np.add:
            return np.bincount(
                self.col_idx, weights=self.values, minlength=self.ncols
            )
        out = np.full(self.ncols, monoid.identity, dtype=np.float64)
        monoid.ufunc.at(out, self.col_idx, self.values)
        return out

    def reduce_scalar(self, monoid: Monoid = PLUS) -> float:
        """Whole-matrix reduction (``sum(A(:))``)."""
        return monoid.reduce(self.values)

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------
    def clear_columns(self, column_mask: np.ndarray) -> "Matrix":
        """Zero every entry whose column is flagged in ``column_mask``.

        Implements Kernel 2's ``A(:, mask) = 0``.  Entries are removed
        (not left as explicit zeros).

        Parameters
        ----------
        column_mask:
            Boolean array of length ``ncols``; True columns are cleared.
        """
        column_mask = np.asarray(column_mask, dtype=bool)
        if len(column_mask) != self.ncols:
            raise ValueError(
                f"column_mask length {len(column_mask)} != ncols {self.ncols}"
            )
        keep = ~column_mask[self.col_idx]
        return self._filter_entries(keep)

    def prune(self) -> "Matrix":
        """Drop stored entries whose value is exactly zero."""
        keep = self.values != 0.0
        if keep.all():
            return self
        return self._filter_entries(keep)

    def _filter_entries(self, keep: np.ndarray) -> "Matrix":
        """New matrix retaining entries where ``keep`` is True."""
        row_of = np.repeat(np.arange(self.nrows), self.row_degrees())
        new_rows = row_of[keep]
        new_cols = self.col_idx[keep]
        new_vals = self.values[keep]
        counts = np.bincount(new_rows, minlength=self.nrows)
        row_ptr = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        return Matrix(self.nrows, self.ncols, row_ptr, new_cols, new_vals)

    def scale_rows(self, factors: np.ndarray) -> "Matrix":
        """Multiply each row ``i`` by ``factors[i]``.

        Kernel 2's normalisation is ``scale_rows(1 / dout)`` restricted
        to rows with ``dout > 0``; pass factor 1.0 for untouched rows.
        """
        factors = np.asarray(factors, dtype=np.float64)
        if len(factors) != self.nrows:
            raise ValueError(
                f"factors length {len(factors)} != nrows {self.nrows}"
            )
        expanded = np.repeat(factors, self.row_degrees())
        return Matrix(
            self.nrows, self.ncols, self.row_ptr, self.col_idx,
            self.values * expanded,
        )
