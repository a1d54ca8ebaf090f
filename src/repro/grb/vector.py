"""Dense vector type for GraphBLAS-lite.

The pipeline's vectors (rank vector ``r``, degree vectors) are dense, so
``Vector`` wraps a contiguous float64 numpy array with monoid reductions
and element-wise operations.  A sparse vector type is unnecessary for
the benchmark and deliberately omitted.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from repro._util import check_positive_int
from repro.grb.semiring import Monoid, PLUS

ArrayLike = Union[np.ndarray, list, tuple]


class Vector:
    """A dense float64 vector of fixed size.

    Examples
    --------
    >>> x = Vector.from_dense([1.0, 2.0, 3.0])
    >>> x.reduce()
    6.0
    >>> bool((x.apply(lambda a: a * 2).to_dense() == [2.0, 4.0, 6.0]).all())
    True
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 1:
            raise ValueError(f"Vector requires 1-D data, got shape {data.shape}")
        self._data = data

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, size: int) -> "Vector":
        """All-zeros vector of ``size`` entries."""
        check_positive_int("size", size)
        return cls(np.zeros(size, dtype=np.float64))

    @classmethod
    def full(cls, size: int, value: float) -> "Vector":
        """Constant vector."""
        check_positive_int("size", size)
        return cls(np.full(size, float(value), dtype=np.float64))

    @classmethod
    def from_dense(cls, values: ArrayLike) -> "Vector":
        """Copy a dense array-like into a new vector."""
        return cls(np.array(values, dtype=np.float64))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of entries."""
        return len(self._data)

    def to_dense(self) -> np.ndarray:
        """Copy out the underlying dense array."""
        return self._data.copy()

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the underlying array (no copy)."""
        view = self._data.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index: int) -> float:
        return float(self._data[index])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Vector(size={self.size})"

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def reduce(self, monoid: Monoid = PLUS) -> float:
        """Reduce all entries with ``monoid`` (default: sum)."""
        return monoid.reduce(self._data)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "Vector":
        """Return a new vector with ``fn`` applied to the dense data."""
        out = np.asarray(fn(self._data.copy()), dtype=np.float64)
        if out.shape != self._data.shape:
            raise ValueError(
                f"apply result shape {out.shape} != vector shape {self._data.shape}"
            )
        return Vector(out)

    def scale(self, scalar: float) -> "Vector":
        """Multiply every entry by ``scalar``."""
        return Vector(self._data * float(scalar))

    def ewise_add(self, other: "Vector") -> "Vector":
        """Element-wise sum with another vector of equal size."""
        self._check_size(other)
        return Vector(self._data + other._data)

    def isclose(self, other: "Vector", *, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Element-wise approximate equality."""
        self._check_size(other)
        return bool(np.allclose(self._data, other._data, rtol=rtol, atol=atol))

    def _check_size(self, other: "Vector") -> None:
        if self.size != other.size:
            raise ValueError(f"size mismatch: {self.size} != {other.size}")
