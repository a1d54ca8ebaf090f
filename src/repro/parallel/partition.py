"""Row-block partitioning of the vertex space.

The paper (Sections IV.C/D): "a common decomposition would be to have
each processor hold a set of rows, since this would correspond to how
the files have been sorted in kernel 1."  ``RowPartition`` owns the
arithmetic of that decomposition: contiguous vertex ranges, near-equal
sizes, and owner lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro._util import check_positive_int


@dataclass(frozen=True)
class RowPartition:
    """Contiguous block partition of ``num_vertices`` rows over ``size`` ranks.

    Block sizes differ by at most one row; rank ``r`` owns
    ``[start(r), end(r))``.

    Examples
    --------
    >>> p = RowPartition(num_vertices=10, size=3)
    >>> [p.bounds(r) for r in range(3)]
    [(0, 4), (4, 7), (7, 10)]
    >>> p.owner_of(np.array([0, 5, 9])).tolist()
    [0, 1, 2]
    """

    num_vertices: int
    size: int

    def __post_init__(self) -> None:
        check_positive_int("num_vertices", self.num_vertices)
        check_positive_int("size", self.size)

    def bounds(self, rank: int) -> Tuple[int, int]:
        """[start, end) vertex range owned by ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")
        base = self.num_vertices // self.size
        remainder = self.num_vertices % self.size
        start = rank * base + min(rank, remainder)
        size = base + (1 if rank < remainder else 0)
        return start, start + size

    def local_count(self, rank: int) -> int:
        """Number of rows owned by ``rank``."""
        start, end = self.bounds(rank)
        return end - start

    def owner_of(self, vertices: np.ndarray) -> np.ndarray:
        """Owning rank of each vertex (vectorised).

        Uses ``searchsorted`` over the block starts, so cost is
        O(len(vertices) * log(size)).
        """
        vertices = np.asarray(vertices)
        if len(vertices) and (vertices.min() < 0 or vertices.max() >= self.num_vertices):
            raise ValueError(
                f"vertices outside [0, {self.num_vertices}): "
                f"min={vertices.min()}, max={vertices.max()}"
            )
        starts = np.array([self.bounds(r)[0] for r in range(self.size)], dtype=np.int64)
        return (np.searchsorted(starts, vertices, side="right") - 1).astype(np.int64)
