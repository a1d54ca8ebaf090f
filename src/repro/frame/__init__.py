"""A minimal columnar dataframe.

The paper benchmarks a "Python with Pandas" implementation.  Pandas is
not installable in this offline environment, so this package provides
the thin slice of dataframe functionality the pipeline needs — typed
named columns over numpy arrays, multi-key sorting, filtering, joins
and grouped aggregation — letting
:mod:`repro.backends.dataframe_backend` exercise the same
columnar-dataframe code path the paper's Pandas variant did.

It is *not* a pandas re-implementation: no index objects, no NaN
semantics, no broadcasting alignment, no file I/O (edge files are read
and written by :mod:`repro.edgeio`) — just columns.
"""

from __future__ import annotations

from repro.frame.frame import Frame

__all__ = ["Frame"]
