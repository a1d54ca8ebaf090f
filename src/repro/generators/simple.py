"""Classical random and deterministic graphs for the generator registry.

The paper's "next steps" section asks whether "a more deterministic
generator [should] be used in kernel 0 to facilitate validation of all
kernels".  The ring answers it: its degree structure is closed-form, so
Kernel 2's elimination and Kernel 3's fixed point can be checked
analytically.  The uniform random multigraph is the structure-free
baseline beside the power-law generators.  Both return the
library-standard ``(u, v)`` edge arrays in the label dtype
(:mod:`repro.labels`).
"""

from __future__ import annotations

import numpy as np

from repro._util import check_nonneg_int, check_positive_int, resolve_rng
from repro._util.rng import SeedLike
from repro.generators.base import EdgeList
from repro.labels import label_dtype


def ring_graph_edges(num_vertices: int) -> EdgeList:
    """Directed cycle ``0 -> 1 -> ... -> N-1 -> 0``.

    The normalised adjacency matrix is a permutation matrix, so
    PageRank's fixed point is exactly uniform — used to validate
    Kernel 3 analytically.
    """
    check_positive_int("num_vertices", num_vertices)
    u = np.arange(num_vertices, dtype=label_dtype(num_vertices))
    v = np.roll(u, -1)
    return u, v.copy()


def erdos_renyi_edges(
    num_vertices: int,
    num_edges: int,
    *,
    seed: SeedLike = None,
) -> EdgeList:
    """G(n, m)-style directed multigraph: ``num_edges`` uniform pairs.

    Unlike the classical simple-graph model, duplicates and self-loops
    are allowed, matching the benchmark's edge-list semantics.
    """
    check_positive_int("num_vertices", num_vertices)
    check_nonneg_int("num_edges", num_edges)
    rng = resolve_rng(seed)
    # Drawn as int64, which fixes the stream; narrowed after the draws.
    labels = label_dtype(num_vertices)
    u = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    v = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    return u.astype(labels), v.astype(labels)
