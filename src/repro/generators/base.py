"""Shared generator types and helpers.

An *edge list* throughout this library is a pair of equal-length
integer arrays ``(u, v)`` in the label dtype of :mod:`repro.labels`
(``uint32`` up to scale 32, else ``int64``): edge ``i`` points from
vertex ``u[i]`` to vertex ``v[i]``, labels are 0-based and bounded by
the generator's vertex count ``N``.  Multi-edges and self-loops are permitted (the Kronecker
generator produces both; Kernel 2 accumulates duplicates into counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

from repro._util import check_dtype, check_same_length

if TYPE_CHECKING:
    import numpy as np

#: Edge list type alias: (start vertices, end vertices), both in the
#: label dtype (:mod:`repro.labels`).
EdgeList = Tuple["np.ndarray", "np.ndarray"]

#: Bytes per edge assumed by the paper's Table II memory column
#: (two 8-byte integers; the pipeline itself holds two ``uint32`` labels,
#: 8 bytes, up to scale 32).
BYTES_PER_EDGE = 16


@dataclass(frozen=True)
class GeneratorSpec:
    """Size specification shared by scale-parameterised generators.

    Mirrors the paper's Section IV.A: ``N = 2**scale`` vertices and
    ``M = edge_factor * N`` edges.

    Attributes
    ----------
    scale:
        Graph500 integer scale factor ``S``.
    edge_factor:
        Average edges per vertex ``k`` (paper default 16).
    """

    scale: int
    edge_factor: int = 16

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.scale > 40:
            raise ValueError(
                f"scale {self.scale} would need >= 2**40 vertices; refusing"
            )
        if self.edge_factor < 1:
            raise ValueError(f"edge_factor must be >= 1, got {self.edge_factor}")

    @property
    def num_vertices(self) -> int:
        """Maximum vertex count ``N = 2**scale``."""
        return 1 << self.scale

    @property
    def num_edges(self) -> int:
        """Total edge count ``M = edge_factor * N``."""
        return self.edge_factor * self.num_vertices

    @property
    def memory_bytes(self) -> int:
        """Approximate edge-data footprint at 16 bytes/edge (Table II)."""
        return self.num_edges * BYTES_PER_EDGE


def validate_edge_list(u: np.ndarray, v: np.ndarray, num_vertices: int) -> None:
    """Raise if ``(u, v)`` is not a well-formed edge list for ``num_vertices``.

    Checks dtype kind (any integer), equal lengths, and label bounds
    ``0 <= label < N``.
    """
    check_dtype("u", u, "iu")
    check_dtype("v", v, "iu")
    check_same_length("u", u, "v", v)
    if len(u) == 0:
        return
    for name, arr in (("u", u), ("v", v)):
        lo = int(arr.min())
        hi = int(arr.max())
        if lo < 0 or hi >= num_vertices:
            raise ValueError(
                f"{name} labels out of range [0, {num_vertices}): "
                f"min={lo}, max={hi}"
            )
