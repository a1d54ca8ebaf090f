"""Argument-validation helpers shared across the library.

All helpers raise ``ValueError`` (or ``TypeError`` for outright wrong
types) with messages that name the offending parameter, so errors surface
close to the caller's mistake rather than deep inside numpy.
"""

from __future__ import annotations

from typing import Any, Sized

import numpy as np


def check_positive_int(name: str, value: Any) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_nonneg_int(name: str, value: Any) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Validate ``lo <= value <= hi`` and return ``value`` as ``float``."""
    out = float(value)
    if not lo <= out <= hi:
        raise ValueError(f"{name} must be within [{lo}, {hi}], got {out}")
    return out


def check_same_length(name_a: str, a: Sized, name_b: str, b: Sized) -> None:
    """Validate that two sized containers have equal length."""
    if len(a) != len(b):
        raise ValueError(
            f"{name_a} and {name_b} must have the same length: "
            f"{len(a)} != {len(b)}"
        )


def check_dtype(name: str, array: np.ndarray, kind: str) -> np.ndarray:
    """Validate that ``array`` has dtype kind ``kind`` (e.g. 'i', 'f').

    Returns the array unchanged so the call can be inlined in expressions.
    """
    if not isinstance(array, np.ndarray):
        raise TypeError(f"{name} must be a numpy array, got {type(array).__name__}")
    if array.dtype.kind != kind:
        raise ValueError(
            f"{name} must have dtype kind {kind!r}, got {array.dtype} "
            f"(kind {array.dtype.kind!r})"
        )
    return array
