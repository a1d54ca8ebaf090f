#!/usr/bin/env python3
"""Out-of-core Kernel 1: external sort of a larger-than-memory dataset.

Paper Section IV.B: "if u and v are too large to fit in memory, then an
out-of-core algorithm would be required."  This example writes a sharded
edge dataset, sorts it with the external run-generation + k-way-merge
sort under an artificially tiny memory budget (so the machinery actually
spills and multi-pass merges), verifies the result, and compares
throughput against the in-memory path.

Usage::

    python examples/out_of_core_sort.py [scale]
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.edgeio import EdgeDataset
from repro.generators import kronecker_edges
from repro.sort import ExternalSortConfig, external_sort_dataset, sort_edges


def main() -> int:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 14
    edge_factor = 16
    num_vertices = 1 << scale
    num_edges = edge_factor * num_vertices

    print(f"generating {num_edges:,} edges (scale {scale}) ...")
    u, v = kronecker_edges(scale, edge_factor, seed=99)

    with tempfile.TemporaryDirectory(prefix="oocsort-") as tmp:
        base = Path(tmp)
        dataset = EdgeDataset.write(
            base / "unsorted", u, v,
            num_vertices=num_vertices, num_shards=8,
        )
        print(f"wrote {dataset.num_shards} shards, "
              f"{dataset.total_bytes():,} bytes")

        # Tiny budget: ~1/32 of the edges per run => many runs, and a
        # fan-in of 4 forces multi-pass merging.
        config = ExternalSortConfig(
            batch_edges=max(num_edges // 32, 1024),
            fan_in=4,
            merge_block_edges=4096,
        )
        print(f"external sort: runs of {config.batch_edges:,} edges, "
              f"fan-in {config.fan_in} (multi-pass) ...")
        t0 = time.perf_counter()
        sorted_ds = external_sort_dataset(dataset, base / "sorted", config=config)
        external_seconds = time.perf_counter() - t0

        su, sv = sorted_ds.read_all()
        assert np.all(np.diff(su) >= 0), "output must be sorted by start vertex"
        assert len(su) == num_edges, "no edges may be lost"
        # Same multiset of edges (order-independent check).
        key_in = np.sort(u * num_vertices + v)
        key_out = np.sort(su * num_vertices + sv)
        assert np.array_equal(key_in, key_out), "edge multiset must be preserved"
        print(f"  verified: sorted, complete, and a permutation of the input")
        print(f"  external path: {external_seconds:.2f}s "
              f"({num_edges / external_seconds:,.0f} edges/s)")

        t0 = time.perf_counter()
        mu, mv = dataset.read_all()
        sort_edges(mu, mv)
        in_memory_seconds = time.perf_counter() - t0
        print(f"  in-memory path: {in_memory_seconds:.2f}s "
              f"({num_edges / in_memory_seconds:,.0f} edges/s)")
        print(f"  out-of-core overhead: "
              f"{external_seconds / in_memory_seconds:.1f}x "
              f"(the price of bounded memory)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
