"""Perfect power law (PPL) generator.

The paper (Section IV.A) cites Kepner 2012 / Gadepally & Kepner 2015:
graphs whose degree *histogram* follows a power law exactly, rather than
in expectation, which makes downstream kernels easier to validate (the
super-node and leaf counts become deterministic).

Construction:

1. :func:`ppl_degree_sequence` builds a per-vertex degree sequence whose
   histogram satisfies ``count(d) = round(c * d**-exponent)`` for degrees
   ``1..max_degree``, with ``c`` chosen so the vertex budget is met.
2. :func:`ppl_edges` realises the sequence as a directed multigraph by
   stub pairing (a directed configuration model): each vertex contributes
   ``degree`` out-stubs and ``degree`` in-stubs; out-stubs are paired
   with a random permutation of in-stubs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._util import check_positive_int, resolve_rng
from repro._util.rng import SeedLike
from repro.generators.base import EdgeList
from repro.labels import label_dtype


@dataclass(frozen=True)
class PPLParams:
    """PPL shape parameters.

    Attributes
    ----------
    exponent:
        Power-law exponent ``alpha`` (> 1) of the degree histogram.
    max_degree:
        Largest degree in the histogram; ``None`` picks
        ``max(4, N // 16)`` which keeps the super-node unambiguous.
    """

    exponent: float = 1.9
    max_degree: Optional[int] = None

    def __post_init__(self) -> None:
        if self.exponent <= 1.0:
            raise ValueError(f"exponent must be > 1, got {self.exponent}")
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError(f"max_degree must be >= 1, got {self.max_degree}")


def ppl_degree_sequence(
    num_vertices: int,
    *,
    exponent: float = 1.9,
    max_degree: Optional[int] = None,
) -> np.ndarray:
    """Build a per-vertex degree sequence with an exact power-law histogram.

    The returned sequence is sorted descending, has length exactly
    ``num_vertices`` (degree-0 vertices pad the tail if the histogram
    under-fills), and every degree count is
    ``max(1, round(c * d**-exponent))`` for a scale ``c`` fitted so the
    histogram total is as close to ``num_vertices`` as possible without
    exceeding it.

    Examples
    --------
    >>> seq = ppl_degree_sequence(100, exponent=2.0)
    >>> bool(len(seq) == 100 and seq[0] >= seq[-1])
    True
    """
    check_positive_int("num_vertices", num_vertices)
    if exponent <= 1.0:
        raise ValueError(f"exponent must be > 1, got {exponent}")
    if max_degree is None:
        max_degree = max(4, num_vertices // 16)
    check_positive_int("max_degree", max_degree)

    degrees_axis = np.arange(1, max_degree + 1, dtype=np.float64)
    shape = degrees_axis ** (-exponent)

    # Largest c such that the histogram fits the vertex budget, found by
    # bisection on the monotone total-count function.
    def total(c: float) -> int:
        return int(np.maximum(1, np.round(c * shape)).sum())

    lo, hi = 0.0, 1.0
    while total(hi) < num_vertices:
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - defensive against bad params
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if total(mid) <= num_vertices:
            lo = mid
        else:
            hi = mid
    counts = np.maximum(1, np.round(lo * shape)).astype(np.int64)
    if counts.sum() > num_vertices:
        # Trim the excess from the most-populous (degree-1) bucket.
        overshoot = int(counts.sum() - num_vertices)
        counts[0] = max(0, counts[0] - overshoot)

    seq = np.repeat(np.arange(1, max_degree + 1, dtype=np.int64), counts)[::-1]
    if len(seq) < num_vertices:
        seq = np.concatenate(
            [seq, np.zeros(num_vertices - len(seq), dtype=np.int64)]
        )
    return np.sort(seq)[::-1][:num_vertices].copy()


def ppl_edges(
    num_vertices: int,
    *,
    params: Optional[PPLParams] = None,
    degrees: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> EdgeList:
    """Realise a PPL degree sequence as a directed multigraph.

    Parameters
    ----------
    num_vertices:
        Vertex count ``N``.
    params:
        Histogram shape; ignored when ``degrees`` is given.
    degrees:
        Explicit per-vertex degree sequence (out-degree == in-degree
        budget per vertex).
    seed:
        Seed or generator for the stub permutation.

    Returns
    -------
    (u, v):
        Edge arrays with ``len(u) == degrees.sum()``.

    Examples
    --------
    >>> u, v = ppl_edges(32, seed=0)
    >>> len(u) > 0 and int(max(u.max(), v.max())) < 32
    True
    """
    check_positive_int("num_vertices", num_vertices)
    params = params or PPLParams()
    rng = resolve_rng(seed)

    if degrees is None:
        degrees = ppl_degree_sequence(
            num_vertices, exponent=params.exponent, max_degree=params.max_degree
        )
    degrees = np.asarray(degrees, dtype=np.int64)
    if len(degrees) != num_vertices:
        raise ValueError(
            f"degrees has length {len(degrees)}, expected {num_vertices}"
        )
    if (degrees < 0).any():
        raise ValueError("degrees must be non-negative")

    # The shuffle's draws depend on the length only, not the dtype.
    vertices = np.arange(num_vertices, dtype=label_dtype(num_vertices))
    out_stubs = np.repeat(vertices, degrees)
    in_stubs = np.repeat(vertices, degrees)
    rng.shuffle(in_stubs)
    return out_stubs, in_stubs
