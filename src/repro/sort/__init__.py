"""Sorting substrate for Kernel 1.

The paper notes (Section IV.B) that "the type of sorting algorithm may
depend upon the scale parameter": in-memory when the edge list fits in
RAM, out-of-core otherwise.  Both regimes are implemented:

* :mod:`repro.sort.inmemory` — :func:`sort_edges`, one stable sort by
  start vertex: a value sort of packed ``(u, position)`` keys;
* :mod:`repro.sort.external` — run generation + k-way merge external
  sort whose memory use is bounded by a configurable batch size, for
  datasets larger than RAM; it sorts runs and merged batches with
  :func:`sort_edges` and gives the same bytes.

Both order edges by start vertex ``u``, ties in input order, with an
option to sort by ``(u, v)`` — one of the open questions in the paper's
"next steps" section.
"""

from __future__ import annotations

from repro.sort.inmemory import (
    collapse_duplicates,
    is_sorted_by_start,
    pair_order,
    sort_edges,
)
from repro.sort.external import ExternalSortConfig, external_sort_dataset

__all__ = [
    "ExternalSortConfig",
    "collapse_duplicates",
    "external_sort_dataset",
    "is_sorted_by_start",
    "pair_order",
    "sort_edges",
]
