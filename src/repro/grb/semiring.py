"""Monoids and semirings for GraphBLAS-lite.

A *monoid* is an associative binary operator with an identity; a
*semiring* pairs an additive monoid with a multiplicative binary op.
The vector-matrix product is defined over a semiring:
``y[j] = add.reduce_i( mult(x[i], A[i, j]) )``.

Only float64 carriers are supported (GraphBLAS type polymorphism is out
of scope); boolean semantics (``lor_land``) are expressed over 0.0/1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class Monoid:
    """An associative reduction operator with identity.

    Attributes
    ----------
    name:
        Registry name, e.g. ``"plus"``.
    ufunc:
        The numpy binary ufunc implementing the operation; must be
        associative and commutative for segment reductions to be valid.
    identity:
        Neutral element (the value of an empty reduction).
    """

    name: str
    ufunc: np.ufunc
    identity: float

    def reduce(self, values: np.ndarray) -> float:
        """Reduce a 1-D array to a scalar; empty input gives identity."""
        if values.size == 0:
            return float(self.identity)
        return float(self.ufunc.reduce(values))

    def segment_reduce(self, values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Reduce consecutive segments ``values[offsets[i]:offsets[i+1]]``.

        Parameters
        ----------
        values:
            Data array.
        offsets:
            Length ``n+1`` non-decreasing segment boundaries, with
            ``offsets[0] == 0`` and ``offsets[-1] == len(values)``.

        Returns
        -------
        Length-``n`` array; empty segments yield ``identity``.

        Notes
        -----
        ``np.ufunc.reduceat`` returns ``values[i]`` (not identity) for
        empty segments and mis-handles a trailing empty segment, so this
        wrapper post-fills empty segments explicitly.
        """
        n = len(offsets) - 1
        out = np.full(n, self.identity, dtype=np.float64)
        if n == 0 or values.size == 0:
            return out
        starts = offsets[:-1]
        nonempty = offsets[1:] > starts
        if not nonempty.any():
            return out
        safe_starts = np.minimum(starts[nonempty], values.size - 1)
        out[nonempty] = self.ufunc.reduceat(values, safe_starts)
        return out


@dataclass(frozen=True)
class Semiring:
    """An (add-monoid, multiply-op) pair defining ``vxm``.

    Attributes
    ----------
    name:
        Registry name, e.g. ``"plus_times"``.
    add:
        Additive monoid.
    multiply:
        Multiplicative numpy binary ufunc.
    """

    name: str
    add: Monoid
    multiply: np.ufunc


PLUS = Monoid("plus", np.add, 0.0)
MIN = Monoid("min", np.minimum, np.inf)
MAX = Monoid("max", np.maximum, -np.inf)
LOR = Monoid("lor", np.logical_or, 0.0)

PLUS_TIMES = Semiring("plus_times", PLUS, np.multiply)
MIN_PLUS = Semiring("min_plus", MIN, np.add)
MAX_TIMES = Semiring("max_times", MAX, np.multiply)
LOR_LAND = Semiring("lor_land", LOR, np.logical_and)

_REGISTRY: Dict[str, Semiring] = {
    s.name: s for s in (PLUS_TIMES, MIN_PLUS, MAX_TIMES, LOR_LAND)
}


def available_semirings() -> Dict[str, Semiring]:
    """Copy of the semiring registry keyed by name."""
    return dict(_REGISTRY)


def get_semiring(name: str) -> Semiring:
    """Look up a semiring by name.

    Raises
    ------
    KeyError
        With the list of valid names when ``name`` is unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown semiring {name!r}; available: {valid}") from None
