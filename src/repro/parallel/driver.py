"""End-to-end parallel K2+K3 driver.

``run_parallel_pipeline`` takes an edge list (typically a Kernel 1
output read back from disk), distributes it over ``num_ranks`` thread
or process ranks, runs the distributed Kernel 2 and Kernel 3, and
returns the rank vector plus the measured communication traffic — ready
to feed the performance models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.parallel.comm import Communicator, run_rank_programs
from repro.parallel.kernels import (
    exchange_edges_by_owner,
    parallel_kernel2,
    parallel_kernel3,
)
from repro.parallel.partition import RowPartition
from repro.parallel.traffic import TrafficLog


@dataclass
class ParallelRunResult:
    """Output of a distributed K2+K3 run.

    Attributes
    ----------
    rank_vector:
        Final PageRank vector (identical across ranks).
    num_ranks:
        Group size used.
    traffic:
        Traffic summary (``total_bytes``, ``total_messages``,
        ``bytes_by_op``) of every rank's log, merged.
    kernel2_details:
        Rank-0 metrics from the distributed Kernel 2.
    local_nnz:
        Per-rank stored entries after filtering (load-balance signal).
    kernel2_seconds / kernel3_seconds:
        Slowest rank's wall-clock for the exchange+K2 phase and the K3
        phase.  Communication (allreduce/bcast) synchronises the ranks
        at each phase boundary, so the per-rank maximum approximates
        the phase's global wall-clock even though the fused program
        never barriers explicitly.
    """

    rank_vector: np.ndarray
    num_ranks: int
    traffic: Dict[str, object] = field(default_factory=dict)
    kernel2_details: Dict[str, object] = field(default_factory=dict)
    local_nnz: List[int] = field(default_factory=list)
    kernel2_seconds: float = 0.0
    kernel3_seconds: float = 0.0


def _rank_program(
    comm: Communicator,
    u: np.ndarray,
    v: np.ndarray,
    num_vertices: int,
    initial_rank: np.ndarray,
    damping: float,
    iterations: int,
    formula: str,
):
    """The per-rank program: exchange, Kernel 2, Kernel 3."""
    partition = RowPartition(num_vertices=num_vertices, size=comm.size)
    # Every rank starts from the rank-0 slice of the global edge list —
    # emulate a sharded read where rank r reads shard r.
    per_rank = len(u) // comm.size
    start = comm.rank * per_rank
    end = len(u) if comm.rank == comm.size - 1 else start + per_rank
    my_u, my_v = u[start:end], v[start:end]

    t0 = time.perf_counter()
    local_u, local_v = exchange_edges_by_owner(comm, partition, my_u, my_v)
    matrix, k2_details = parallel_kernel2(comm, partition, local_u, local_v)
    t1 = time.perf_counter()
    rank_vector = parallel_kernel3(
        comm,
        matrix,
        initial_rank,
        damping=damping,
        iterations=iterations,
        formula=formula,
    )
    t2 = time.perf_counter()
    return rank_vector, k2_details, matrix.nnz, t1 - t0, t2 - t1


def run_parallel_pipeline(
    u: np.ndarray,
    v: np.ndarray,
    num_vertices: int,
    *,
    num_ranks: int = 4,
    initial_rank: Optional[np.ndarray] = None,
    damping: float = 0.85,
    iterations: int = 20,
    formula: str = "appendix",
    executor: str = "sim",
) -> ParallelRunResult:
    """Run distributed Kernel 2 + Kernel 3 over an edge list.

    Parameters
    ----------
    u, v:
        Full edge list (0-based labels below ``num_vertices``).
    num_vertices:
        Vertex count ``N``.
    num_ranks:
        Group size.
    initial_rank:
        Kernel 3 start vector; uniform ``1/N`` when omitted.
    executor:
        ``"sim"`` (ranks are threads) or ``"mp"`` (ranks are OS
        processes, true process parallelism).  Same communicator, same
        rank vector, same traffic log.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.generators import kronecker_edges
    >>> u, v = kronecker_edges(6, 4, seed=9)
    >>> out = run_parallel_pipeline(u, v, 64, num_ranks=3, iterations=5)
    >>> out.rank_vector.shape
    (64,)
    """
    if executor not in ("sim", "mp"):
        raise ValueError(f"executor must be 'sim' or 'mp', got {executor!r}")
    if initial_rank is None:
        initial_rank = np.full(num_vertices, 1.0 / num_vertices)

    args = (u, v, num_vertices, initial_rank, damping, iterations, formula)
    traffic = TrafficLog()
    outputs = run_rank_programs(
        _rank_program, num_ranks, *args,
        processes=executor == "mp", traffic=traffic,
    )

    rank_vectors = [out[0] for out in outputs]
    for other in rank_vectors[1:]:
        if not np.allclose(rank_vectors[0], other, rtol=1e-12, atol=1e-15):
            raise RuntimeError("ranks disagree on the final PageRank vector")
    return ParallelRunResult(
        rank_vector=rank_vectors[0],
        num_ranks=num_ranks,
        traffic=traffic.summary(),
        kernel2_details=outputs[0][1],
        local_nnz=[out[2] for out in outputs],
        kernel2_seconds=max(out[3] for out in outputs),
        kernel3_seconds=max(out[4] for out in outputs),
    )
