"""The :class:`Frame` type: named, equal-length numpy columns."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Union

import numpy as np

ColumnLike = Union[np.ndarray, Sequence]


class Frame:
    """An immutable columnar table.

    Columns are 1-D numpy arrays of equal length; operations return new
    frames and never mutate in place.

    Examples
    --------
    >>> f = Frame({"u": [2, 0, 1], "v": [5, 6, 7]})
    >>> f.sort_values("u").column("v").tolist()
    [6, 7, 5]
    >>> f.num_rows
    3
    """

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: Mapping[str, ColumnLike]) -> None:
        if not columns:
            raise ValueError("Frame requires at least one column")
        converted: Dict[str, np.ndarray] = {}
        length = None
        for name, data in columns.items():
            arr = np.asarray(data)
            if arr.ndim != 1:
                raise ValueError(
                    f"column {name!r} must be 1-D, got shape {arr.shape}"
                )
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise ValueError(
                    f"column {name!r} has length {len(arr)}, expected {length}"
                )
            converted[name] = arr
        self._columns = converted
        self._length = length or 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Row count."""
        return self._length

    @property
    def column_names(self) -> List[str]:
        """Column names in insertion order."""
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        """Return one column as a (copied) numpy array."""
        try:
            return self._columns[name].copy()
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def _col_view(self, name: str) -> np.ndarray:
        """Internal no-copy access."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {self.column_names}"
            ) from None

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cols = ", ".join(f"{n}:{c.dtype}" for n, c in self._columns.items())
        return f"Frame({self._length} rows; {cols})"

    def to_dict(self) -> Dict[str, np.ndarray]:
        """Copy out all columns."""
        return {name: col.copy() for name, col in self._columns.items()}

    def head(self, n: int = 5) -> "Frame":
        """First ``n`` rows."""
        return self.take(np.arange(min(n, self._length)))

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "Frame":
        """Select rows by integer positions."""
        indices = np.asarray(indices)
        return Frame({n: c[indices] for n, c in self._columns.items()})

    def filter(self, mask: np.ndarray) -> "Frame":
        """Select rows where the boolean ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._length:
            raise ValueError(
                f"mask length {len(mask)} != frame length {self._length}"
            )
        return self.take(np.flatnonzero(mask))

    def sort_values(self, by: Union[str, Sequence[str]], *, stable: bool = True) -> "Frame":
        """Sort rows by one or more key columns (first key primary).

        Multi-key sorts use ``numpy.lexsort`` (last key in the lexsort
        tuple is primary, so keys are reversed internally).
        """
        keys = [by] if isinstance(by, str) else list(by)
        if not keys:
            raise ValueError("sort_values requires at least one key")
        if len(keys) == 1:
            order = np.argsort(
                self._col_view(keys[0]), kind="stable" if stable else None
            )
        else:
            order = np.lexsort(tuple(self._col_view(k) for k in reversed(keys)))
        return self.take(order)

    def assign(self, **new_columns: ColumnLike) -> "Frame":
        """Return a frame with columns added or replaced."""
        merged: Dict[str, ColumnLike] = {n: c for n, c in self._columns.items()}
        merged.update(new_columns)
        return Frame(merged)

    def select(self, names: Iterable[str]) -> "Frame":
        """Keep only the named columns, in the given order."""
        return Frame({n: self._col_view(n) for n in names})

    # ------------------------------------------------------------------
    # Grouped aggregation
    # ------------------------------------------------------------------
    def groupby_size(self, key: str) -> "Frame":
        """Count rows per distinct key value.

        Returns a frame with columns ``key`` (distinct values,
        ascending) and ``"size"``.
        """
        keys = self._col_view(key)
        values, counts = np.unique(keys, return_counts=True)
        return Frame({key: values, "size": counts.astype(np.int64)})

    def groupby_sum(self, key: str, value: str) -> "Frame":
        """Sum ``value`` per distinct ``key``.

        Returns a frame with columns ``key`` and ``f"{value}_sum"``.
        """
        keys = self._col_view(key)
        vals = np.asarray(self._col_view(value), dtype=np.float64)
        uniq, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse, weights=vals, minlength=len(uniq))
        return Frame({key: uniq, f"{value}_sum": sums})

    # ------------------------------------------------------------------
    # Joins (hash join on a single key)
    # ------------------------------------------------------------------
    def merge(self, other: "Frame", on: str, how: str = "inner") -> "Frame":
        """Single-key equi-join.

        Parameters
        ----------
        other:
            Right-hand frame.
        on:
            Key column present in both frames.
        how:
            ``"inner"`` or ``"left"``.  Left rows without a match get
            fill values (0 for numeric columns) in ``"left"`` mode.
        """
        if how not in ("inner", "left"):
            raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
        left_keys = self._col_view(on)
        right_keys = other._col_view(on)

        if len(right_keys) == 0:
            # Degenerate join: no matches possible.
            if how == "inner":
                out = {n: c[:0] for n, c in self._columns.items()}
                for name, col in other._columns.items():
                    if name != on:
                        out[name] = col[:0]
                return Frame(out)
            out = {n: c.copy() for n, c in self._columns.items()}
            for name, col in other._columns.items():
                if name != on:
                    fill = (
                        np.zeros(self._length, dtype=col.dtype)
                        if np.issubdtype(col.dtype, np.number)
                        else np.empty(self._length, dtype=col.dtype)
                    )
                    out[name] = fill
            return Frame(out)

        # Sorted right side + searchsorted gives match positions.
        right_order = np.argsort(right_keys, kind="stable")
        sorted_right = right_keys[right_order]
        pos = np.searchsorted(sorted_right, left_keys, side="left")
        pos_clamped = np.minimum(pos, len(sorted_right) - 1)
        matched = (pos < len(sorted_right)) & (
            sorted_right[pos_clamped] == left_keys
        )

        # NOTE: only the first match per key is joined (sufficient for
        # the degree-table joins the backends perform; duplicate-key
        # fan-out joins are out of scope).
        right_index = right_order[pos_clamped]
        if how == "inner":
            keep = np.flatnonzero(matched)
            out = {n: c[keep] for n, c in self._columns.items()}
            for name, col in other._columns.items():
                if name == on:
                    continue
                out[name] = col[right_index[keep]]
            return Frame(out)

        out = {n: c.copy() for n, c in self._columns.items()}
        for name, col in other._columns.items():
            if name == on:
                continue
            gathered = col[right_index].copy()
            if np.issubdtype(gathered.dtype, np.number):
                gathered[~matched] = 0
            out[name] = gathered
        return Frame(out)

    # ------------------------------------------------------------------
    # Equality (mainly for tests)
    # ------------------------------------------------------------------
    def equals(self, other: "Frame") -> bool:
        """Exact column-name and value equality."""
        if self.column_names != other.column_names:
            return False
        return all(
            np.array_equal(self._col_view(n), other._col_view(n))
            for n in self.column_names
        )
