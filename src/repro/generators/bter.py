"""Block Two-level Erdős–Rényi (BTER) generator.

The paper (Section IV.A) names BTER [Seshadhri, Kolda & Pinar 2012] as an
alternative Kernel 0 generator "worth investigating [because it] may make
the validation of subsequent kernels easier".  BTER matches a target
degree distribution while also producing community structure:

* **Phase 1** groups vertices of similar degree into *affinity blocks* of
  size ``d + 1`` (``d`` = block degree) and links each block internally as
  a dense Erdős–Rényi graph with connectivity ``rho``;
* **Phase 2** distributes each vertex's *excess* degree (target degree
  minus expected phase-1 degree) through a Chung–Lu style weighted
  pairing across blocks.

This implementation is directed (edges are ordered pairs, duplicates and
self-loops permitted) to match the pipeline's edge-list conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro._util import check_in_range, resolve_rng
from repro._util.rng import SeedLike
from repro.generators.base import EdgeList
from repro.labels import label_dtype
from repro.generators.ppl import ppl_degree_sequence


@dataclass(frozen=True)
class BTERParams:
    """BTER tuning knobs.

    Attributes
    ----------
    rho:
        Within-block Erdős–Rényi connectivity in (0, 1]; higher values
        put more of each vertex's degree into its affinity block,
        raising clustering.
    exponent:
        Power-law exponent of the default degree sequence (used only
        when the caller does not pass an explicit sequence).
    """

    rho: float = 0.9
    exponent: float = 1.9

    def __post_init__(self) -> None:
        check_in_range("rho", self.rho, 1e-9, 1.0)
        if self.exponent <= 1.0:
            raise ValueError(f"exponent must be > 1, got {self.exponent}")


def _affinity_blocks(degrees: np.ndarray) -> np.ndarray:
    """Assign vertices (sorted by degree desc) to blocks of size d+1.

    Returns an array ``block_id`` aligned with the degree-sorted order.
    Block ``b`` contains consecutive vertices; its size is one more than
    the degree of its first member, so phase 1 can in principle satisfy
    that member's entire degree within the block.
    """
    n = len(degrees)
    block_id = np.zeros(n, dtype=np.int64)
    start = 0
    block = 0
    while start < n:
        size = int(degrees[start]) + 1
        end = min(start + size, n)
        block_id[start:end] = block
        start = end
        block += 1
    return block_id


def bter_edges(
    num_vertices: int,
    *,
    degrees: Optional[np.ndarray] = None,
    params: Optional[BTERParams] = None,
    seed: SeedLike = None,
) -> EdgeList:
    """Generate a directed BTER edge list.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``N``; labels are ``0..N-1``.
    degrees:
        Target (out-)degree per vertex.  Defaults to a perfect-power-law
        sequence from :func:`repro.generators.ppl.ppl_degree_sequence`.
    params:
        :class:`BTERParams`; defaults used when omitted.
    seed:
        Seed or generator.

    Returns
    -------
    (u, v):
        Edge arrays in the label dtype.  The realised edge count is close to
        ``degrees.sum()`` (phase-1 edges are sampled per-pair, phase-2
        pairs stubs exactly).

    Examples
    --------
    >>> u, v = bter_edges(64, seed=3)
    >>> int(u.max()) < 64 and int(v.max()) < 64
    True
    """
    if num_vertices < 2:
        raise ValueError(f"num_vertices must be >= 2, got {num_vertices}")
    params = params or BTERParams()
    rng = resolve_rng(seed)

    if degrees is None:
        degrees = ppl_degree_sequence(num_vertices, exponent=params.exponent)
    degrees = np.asarray(degrees, dtype=np.int64)
    if len(degrees) != num_vertices:
        raise ValueError(
            f"degrees has length {len(degrees)}, expected {num_vertices}"
        )
    if (degrees < 0).any():
        raise ValueError("degrees must be non-negative")

    # Work in degree-descending order; map back at the end.
    order = np.argsort(-degrees, kind="stable")
    sorted_deg = degrees[order]
    block_id = _affinity_blocks(sorted_deg)

    u_parts = []
    v_parts = []

    # ---- Phase 1: dense ER inside each affinity block -----------------
    # Blocks are sized by their *largest*-degree member, so the
    # connectivity is scaled to the block's *smallest* degree
    # (rho_b = rho * d_min / (size-1)); otherwise low-degree members
    # would receive phase-1 edges beyond their whole degree budget and
    # the realised edge count would overshoot the target.
    n = num_vertices
    block_starts = np.flatnonzero(np.r_[True, block_id[1:] != block_id[:-1]])
    block_ends = np.r_[block_starts[1:], n]
    expected_in_block = np.zeros(n, dtype=np.float64)
    for s, e in zip(block_starts, block_ends):
        size = e - s
        if size < 2:
            continue
        min_degree = float(sorted_deg[e - 1])
        rho_b = min(1.0, params.rho * min_degree / (size - 1))
        if rho_b <= 0.0:
            continue
        # Sample each ordered pair (i, j), i != j, with probability
        # rho_b.  Blocks are small (size = degree + 1), so materialising
        # the size^2 pair grid is fine at benchmark-scale degree caps.
        # Positions in the degree order, not labels: ``order`` maps them
        # to labels at the end.
        local = np.arange(s, e, dtype=np.int64)
        ii, jj = np.meshgrid(local, local, indexing="ij")
        mask = (ii != jj) & (rng.random((size, size)) < rho_b)
        u_parts.append(ii[mask])
        v_parts.append(jj[mask])
        expected_in_block[s:e] = rho_b * (size - 1)

    # ---- Phase 2: Chung–Lu pairing of excess degree --------------------
    excess = np.maximum(sorted_deg - expected_in_block, 0.0)
    total_excess = excess.sum()
    if total_excess > 0:
        num_phase2 = int(round(total_excess))
        if num_phase2 > 0:
            weights = excess / total_excess
            src = rng.choice(n, size=num_phase2, p=weights)
            dst = rng.choice(n, size=num_phase2, p=weights)
            u_parts.append(src.astype(np.int64))
            v_parts.append(dst.astype(np.int64))

    labels = label_dtype(n)
    if not u_parts:
        return (np.empty(0, dtype=labels), np.empty(0, dtype=labels))

    u_sorted = np.concatenate(u_parts)
    v_sorted = np.concatenate(v_parts)
    # Undo the degree sort so labels refer to the caller's vertex ids.
    u = order[u_sorted]
    v = order[v_sorted]
    return u.astype(labels), v.astype(labels)
