#!/usr/bin/env python3
"""Parallel decomposition study: measured traffic vs the paper's model.

Paper Sections IV.C/D predict the parallel pipeline's behaviour: row
blocks per processor, an in-degree allreduce plus elimination broadcast
in Kernel 2, and a per-iteration rank-vector allreduce in Kernel 3 that
should come to dominate.  This example runs the benchmark's own
``execution="parallel"`` strategy (Kernels 0/1 through their files,
Kernels 2+3 on thread ranks, then on process ranks), measures the
actual communication bytes and checks them against the closed form.

Usage::

    python examples/parallel_scaling.py [scale]
"""

from __future__ import annotations

import sys

from repro.api import RunSpec, execute_spec
from repro.harness.figures import allreduce_closed_form


def run(scale: int, ranks: int, executor: str = "sim"):
    spec = RunSpec(scale=scale, seed=3, execution="parallel",
                   parallel_ranks=ranks, parallel_executor=executor,
                   validation="off")
    return execute_spec(spec)


def main() -> int:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 12

    print(f"scale-{scale} Kronecker graph, parallel K2+K3 on thread ranks:")
    print(f"{'ranks':>6}{'K3 allreduce bytes':>20}{'expected':>14}"
          f"{'total bytes':>14}{'K3 edges/s':>14}")
    thread_runs = {}
    for ranks in (1, 2, 4, 8):
        outcome = thread_runs[ranks] = run(scale, ranks)
        result = outcome.result
        k3 = result.kernels[-1]
        measured = k3.details["traffic"]["bytes_by_op"].get("allreduce", 0)
        expected = allreduce_closed_form(
            ranks, result.config.num_vertices, result.config.iterations
        )
        assert measured == expected, (ranks, measured, expected)
        print(f"{ranks:>6}{measured:>20,}{expected:>14,}"
              f"{k3.details['traffic']['total_bytes']:>14,}"
              f"{k3.edges_per_second:>14,.0f}")

    print("\nload balance at 8 ranks (nnz per rank):")
    nnz = thread_runs[8].result.kernels[-2].details["local_nnz"]
    print(f"  {nnz}  (max/mean = {max(nnz) / (sum(nnz) / len(nnz)):.2f})")

    print("\nprocess ranks (same communicator, true process parallelism):")
    mp_run = run(scale, 2, executor="mp")
    # One rank count, two launches: the same bits.  Across rank counts
    # the allreduce's summation order differs, so nothing is asserted.
    assert mp_run.rank_digest == thread_runs[2].rank_digest
    print(f"  2 processes: K2+K3 in "
          f"{sum(k.seconds for k in mp_run.result.kernels[2:]):.2f}s, moved "
          f"{mp_run.result.kernels[-1].details['traffic']['total_bytes']:,} "
          f"bytes; rank digest identical to thread ranks")

    print("\nconclusion: measured allreduce bytes match the closed form, "
          "which grows with the rank count while each rank's share of "
          "the matrix shrinks — the paper's Section IV.D network term.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
