"""Deliberately broken backends for contract-enforcement tests.

Shared between the failure-injection suite and the executor-parity
suite (kept in a plain helper module, not a test file, so either can
import it under any pytest invocation style).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.backends.scipy_backend import ScipyBackend
from repro.edgeio.dataset import EdgeDataset
from repro.sort.inmemory import sort_edges


class BrokenK0(ScipyBackend):
    """Writes fewer edges than the spec demands."""

    name = "broken-k0"

    def kernel0(self, config, out_dir):
        dataset, details = super().kernel0(config, out_dir)
        u, v = dataset.read_all()
        short = EdgeDataset.write(
            Path(str(out_dir) + "-short"), u[:-5], v[:-5],
            num_vertices=config.num_vertices,
        )
        return short, details


class UnsortedK1(ScipyBackend):
    """Skips the sort, violating Kernel 1's contract."""

    name = "broken-k1"

    def kernel1(self, config, source, out_dir):
        u, v = source.read_all()
        # Deliberately reverse-sort to guarantee disorder.
        order = np.argsort(-u)
        dataset = EdgeDataset.write(
            out_dir, u[order], v[order],
            num_vertices=source.num_vertices, num_shards=config.num_files,
        )
        return dataset, {}


class StartOnlyK1(ScipyBackend):
    """Sorts by start vertex only, ignoring ``sort_by_end_vertex``."""

    name = "start-only-k1"

    def sort_edges(self, config, u, v):
        return sort_edges(u, v)


class LossyK2(ScipyBackend):
    """Drops edges before counting, breaking sum(A) == M."""

    name = "broken-k2"

    def kernel2(self, config, source):
        handle, details = super().kernel2(config, source)
        handle._pre_filter_total -= 3.0  # simulate lost edges
        return handle, details


class FailingK2(ScipyBackend):
    """Raises inside Kernel 2."""

    name = "failing-k2"

    def kernel2(self, config, source):
        raise RuntimeError("kernel 2 failed")


class NaNK3(ScipyBackend):
    """Returns a poisoned rank vector."""

    name = "broken-k3"

    def kernel3(self, config, matrix):
        rank, details = super().kernel3(config, matrix)
        rank = rank.copy()
        rank[0] = np.nan
        return rank, details
