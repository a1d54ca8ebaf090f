"""Parallel pipeline substrate.

The paper describes (Sections IV.C/D) how a parallel implementation
would decompose the pipeline: each processor holds a block of matrix
*rows* (matching the Kernel 1 sort order), Kernel 2 aggregates in-degree
across processors and broadcasts the eliminated vertices, and Kernel 3
sums per-processor partial rank vectors every iteration — predicting
that Kernel 3 is network-communication dominated.

This package reproduces that design without requiring MPI:

* :class:`Communicator` — the one message-passing implementation
  (send/recv over per-pair queues; barrier, bcast, allreduce, allgather
  and alltoall as a star through rank 0) with byte-accurate traffic
  accounting;
* :func:`run_rank_programs` — runs a rank program on ``size`` ranks, as
  threads (deterministic, debuggable) or, with ``processes=True``, as
  OS processes (true parallelism); either way it returns the same
  values and fills the same :class:`TrafficLog`, the instrument behind
  the "network-limited" Kernel 3 analysis;
* :mod:`repro.parallel.kernels` — row-block parallel Kernel 2/3 whose
  results are bit-compatible with the serial backends;
* :func:`run_parallel_pipeline` — end-to-end parallel K2+K3 driver.
"""

from __future__ import annotations

from repro.parallel.comm import Communicator, run_rank_programs
from repro.parallel.traffic import TrafficLog, TrafficRecord
from repro.parallel.partition import RowPartition
from repro.parallel.kernels import (
    exchange_edges_by_owner,
    parallel_kernel2,
    parallel_kernel3,
)
from repro.parallel.driver import ParallelRunResult, run_parallel_pipeline

__all__ = [
    "Communicator",
    "ParallelRunResult",
    "RowPartition",
    "TrafficLog",
    "TrafficRecord",
    "exchange_edges_by_owner",
    "parallel_kernel2",
    "parallel_kernel3",
    "run_parallel_pipeline",
    "run_rank_programs",
]
