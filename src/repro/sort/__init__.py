"""Sorting substrate for Kernel 1.

The paper notes (Section IV.B) that "the type of sorting algorithm may
depend upon the scale parameter": in-memory when the edge list fits in
RAM, out-of-core otherwise.  Both regimes are implemented:

* :mod:`repro.sort.inmemory` — numpy comparison sort plus hand-rolled
  counting and LSD radix sorts (the classic distribution sorts for
  bounded integer keys);
* :mod:`repro.sort.external` — run generation + k-way merge external
  sort whose memory use is bounded by a configurable batch size, for
  datasets larger than RAM.

All sorts order edges by start vertex ``u`` (ties keep or ignore input
order depending on ``stable``), with an option to sort by ``(u, v)`` —
one of the open questions in the paper's "next steps" section.
"""

from __future__ import annotations

from repro.sort.inmemory import (
    collapse_duplicates,
    counting_sort_edges,
    is_sorted_by_start,
    numpy_sort_edges,
    pair_order,
    radix_sort_edges,
    sort_edges,
)
from repro.sort.external import ExternalSortConfig, external_sort_dataset

__all__ = [
    "ExternalSortConfig",
    "collapse_duplicates",
    "counting_sort_edges",
    "external_sort_dataset",
    "is_sorted_by_start",
    "numpy_sort_edges",
    "pair_order",
    "radix_sort_edges",
    "sort_edges",
]
