#!/usr/bin/env python3
"""Quickstart: run the full PageRank pipeline benchmark once.

Runs all four kernels at a laptop-friendly scale, prints the paper's
per-kernel edges/second metrics, and cross-checks the Kernel 3 result
against the principal eigenvector (paper Section IV.D).

Usage::

    python examples/quickstart.py [scale]
"""

from __future__ import annotations

import sys

from repro import RunSpec, execute_spec


def main() -> int:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 12

    spec = RunSpec(
        scale=scale,          # N = 2**scale vertices
        edge_factor=16,       # M = 16 * N edges (paper default)
        seed=42,              # fully reproducible run
        backend="scipy",      # try: python | numpy | scipy | dataframe | graphblas
        num_files=4,          # the benchmark's free file-count parameter
        validation="full",    # contracts + eigenvector cross-check after Kernel 3
    )
    result = execute_spec(spec).result
    config = result.config
    print(f"Ran PageRank pipeline: N={config.num_vertices:,} "
          f"M={config.num_edges:,} backend={config.backend}")

    print(f"\n{'kernel':<14}{'seconds':>10}{'edges/s':>16}")
    for kernel in result.kernels:
        marker = "" if kernel.officially_timed else "  (untimed by spec)"
        print(f"{kernel.kernel.value:<14}{kernel.seconds:>10.4f}"
              f"{kernel.edges_per_second:>16,.0f}{marker}")

    print(f"\nrank vector: sum={result.rank.sum():.6f} "
          f"(mass leaks by design — eliminated columns + dangling rows)")
    print(f"top vertex: {result.rank.argmax()} "
          f"with rank {result.rank.max():.3e}")

    assert result.validation is not None
    status = "PASS" if result.validation["passed"] else "FAIL"
    print(f"eigenvector validation: {status} "
          f"(l1 distance {result.validation['l1_distance']:.4f}, "
          f"tolerance {result.validation['tolerance']})")
    return 0 if result.validation["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
