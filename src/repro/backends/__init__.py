"""Pipeline backends: interchangeable kernel implementations.

The paper implements the serial benchmark in six languages (C++, Python,
Python w/Pandas, Matlab, Octave, Julia) and compares them on one
platform.  This package reproduces that axis inside Python with five
genuinely different implementation technologies:

========== ==============================================================
name        technology
========== ==============================================================
python      pure standard library: lists, dicts, ``sorted``, f-strings —
            the paper's interpreted-loop baseline
numpy       vectorised numpy arrays, hand-rolled COO/CSR kernels
scipy       ``scipy.sparse`` matrices (the conventional fast path)
dataframe   :mod:`repro.frame` columnar dataframe (the "Pandas" analogue)
graphblas   :mod:`repro.grb` GraphBLAS-lite semiring substrate
========== ==============================================================

All backends implement :class:`repro.backends.base.Backend` and must
produce bit-identical Kernel 1 outputs and numerically identical Kernel
2/3 outputs for the same input dataset — enforced by the cross-backend
integration tests.
"""

from __future__ import annotations

from repro._util.lazy import lazy_exports
from repro.backends.registry import available_backends, get_backend, register_backend

__getattr__ = lazy_exports(__name__, {
    "AdjacencyHandle": "repro.backends.base",
    "Backend": "repro.backends.base",
    "KernelOutput": "repro.backends.base",
})

__all__ = [
    "AdjacencyHandle",
    "Backend",
    "KernelOutput",
    "available_backends",
    "get_backend",
    "register_backend",
]
