"""Row-block parallel Kernels 2 and 3.

Faithful implementations of the paper's parallel decomposition notes:

* **Kernel 2** (Section IV.C): each rank holds the adjacency rows it
  owns; "the in-degree info will need to be aggregated and the selected
  vertices for elimination broadcast" — implemented as an ``allreduce``
  of the partial in-degree vectors followed by a ``bcast`` of the
  elimination mask from rank 0.  Out-degree and normalisation are
  rank-local (rows live on one rank).
* **Kernel 3** (Section IV.D): "each processor would compute its own
  value of r that would be summed across all processors and broadcast
  back" — an ``allreduce`` of the per-rank partial spread vectors each
  iteration, which the paper predicts dominates parallel runtime.

Results are numerically identical to the serial numpy backend: the same
dedup/filter/normalise arithmetic runs on disjoint row blocks, and
float64 summation order per column matches because each column
contribution within a rank is produced by the same ``bincount``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.parallel.comm import Communicator
from repro.parallel.partition import RowPartition
from repro.sort.inmemory import collapse_duplicates, elimination_masks

EdgePair = Tuple[np.ndarray, np.ndarray]


def exchange_edges_by_owner(
    comm: Communicator,
    partition: RowPartition,
    u: np.ndarray,
    v: np.ndarray,
) -> EdgePair:
    """Shuffle edges so each rank holds exactly its own rows' edges.

    The parallel analogue of Kernel 1's output layout: after the
    exchange, rank ``r`` holds every edge whose start vertex lies in its
    row block.  Implemented as one personalised all-to-all.
    """
    owners = partition.owner_of(u)
    payloads = []
    for dest in range(comm.size):
        mask = owners == dest
        payloads.append((u[mask], v[mask]))
    received = comm.alltoall(payloads)
    local_u = np.concatenate([part[0] for part in received]) if received else u[:0]
    local_v = np.concatenate([part[1] for part in received]) if received else v[:0]
    return local_u, local_v


@dataclass
class LocalMatrix:
    """One rank's row block of the normalised adjacency matrix (COO).

    Row indices are *global* vertex ids restricted to the rank's range;
    column indices span the full vertex space.
    """

    partition: RowPartition
    rank: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def nnz(self) -> int:
        """Stored entries on this rank."""
        return len(self.vals)


def parallel_kernel2(
    comm: Communicator,
    partition: RowPartition,
    local_u: np.ndarray,
    local_v: np.ndarray,
) -> Tuple[LocalMatrix, dict]:
    """Distributed Kernel 2 over one rank's edges.

    Parameters
    ----------
    comm:
        The rank's communicator.
    partition:
        Row-block partition (must match the edge exchange).
    local_u, local_v:
        Edges owned by this rank (``partition.owner_of(local_u) == rank``).

    Returns
    -------
    (matrix, details):
        The rank's normalised row block and a metrics dict
        (pre-filter entry total is the *global* sum, as the contract
        requires).
    """
    n = partition.num_vertices

    # Local construction: dedup this rank's rows.
    rows, cols, vals = collapse_duplicates(local_u, local_v)
    local_total = float(vals.sum())
    global_total = float(comm.allreduce(local_total, op="sum"))

    # In-degree aggregation across ranks (columns are distributed).
    local_din = np.bincount(cols, weights=vals, minlength=n)
    din = comm.allreduce(local_din, op="sum")

    # Rank 0 selects the eliminated vertices and broadcasts the mask.
    if comm.rank == 0:
        supernode, leaf = elimination_masks(din)
        eliminate = supernode | leaf
    else:
        eliminate = None
    eliminate = comm.bcast(eliminate, root=0)

    keep = ~eliminate[cols]
    rows, cols, vals = rows[keep], cols[keep], vals[keep]

    # Out-degree and normalisation are local to the row block.
    lo, hi = partition.bounds(comm.rank)
    local_width = hi - lo
    dout = np.bincount(rows - lo, weights=vals, minlength=local_width)
    nonzero = dout > 0
    inv = np.ones(local_width, dtype=np.float64)
    inv[nonzero] = 1.0 / dout[nonzero]
    vals = vals * inv[rows - lo]

    # Kernel 3 gathers and scatters by these every iteration, and numpy
    # converts an index array of any other dtype to intp on each use.
    matrix = LocalMatrix(
        partition, comm.rank, rows.astype(np.intp), cols.astype(np.intp), vals
    )
    details = {
        "pre_filter_entry_total": global_total,
        "eliminated_columns": int(eliminate.sum()),
        "local_nnz": matrix.nnz,
        "nonzero_local_rows": int(nonzero.sum()),
    }
    return matrix, details


def parallel_kernel3(
    comm: Communicator,
    matrix: LocalMatrix,
    initial_rank: np.ndarray,
    *,
    damping: float = 0.85,
    iterations: int = 20,
    formula: str = "appendix",
) -> np.ndarray:
    """Distributed Kernel 3: allreduce of partial spreads per iteration.

    Every rank keeps the full rank vector ``r`` (it is dense and small
    relative to the edges); each iteration computes the partial spread
    from the rank's rows and allreduces it — the communication pattern
    the paper predicts will dominate.

    Returns the full final rank vector (identical on every rank).
    """
    if formula not in ("appendix", "paper-body"):
        raise ValueError(f"formula must be 'appendix' or 'paper-body', got {formula!r}")
    n = matrix.partition.num_vertices
    r = np.asarray(initial_rank, dtype=np.float64)
    if r.shape != (n,):
        raise ValueError(f"initial_rank shape {r.shape} != ({n},)")
    c = damping
    rows, cols, vals = matrix.rows, matrix.cols, matrix.vals
    for _ in range(iterations):
        contributions = r[rows] * vals
        partial = np.bincount(cols, weights=contributions, minlength=n)
        spread = comm.allreduce(partial, op="sum")
        teleport = (1.0 - c) * r.sum()
        if formula == "appendix":
            teleport /= n
        r = c * spread + teleport
    return r
