"""Internal shared utilities: timing, RNG plumbing, argument validation.

Nothing in this package is part of the public API; modules under
``repro._util`` may change without notice.  Public code should import the
re-exported names from the owning subsystem instead.
"""

from __future__ import annotations

from repro._util.timing import StopWatch, Timings, timed
from repro._util.checks import (
    check_dtype,
    check_in_range,
    check_nonneg_int,
    check_positive_int,
    check_same_length,
)
from repro._util.rng import derive_seed, resolve_rng

__all__ = [
    "StopWatch",
    "Timings",
    "timed",
    "check_dtype",
    "check_in_range",
    "check_nonneg_int",
    "check_positive_int",
    "check_same_length",
    "derive_seed",
    "resolve_rng",
]
