"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.edgeio.dataset import EdgeDataset
from repro.generators.kronecker import kronecker_edges

# One profile for every @given test: no per-example deadline (a shared
# host stalls for longer than any honest one) and the same examples on
# every run, so tier-1 is green or red deterministically.
settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture
def rng():
    """A deterministic numpy Generator for test-local randomness."""
    return np.random.default_rng(20160523)


@pytest.fixture
def small_edges():
    """A small, fixed Kronecker edge list: scale 6, k=4 (256 edges)."""
    return kronecker_edges(6, 4, seed=7)


@pytest.fixture
def tiny_dataset(tmp_path, small_edges):
    """The small edge list written as a 3-shard TSV dataset."""
    u, v = small_edges
    return EdgeDataset.write(
        tmp_path / "tiny", u, v, num_vertices=64, num_shards=3
    )


@pytest.fixture
def toy_matrix():
    """A tiny row-normalised adjacency matrix with known structure.

    Graph: 0 -> 1, 1 -> 2, 2 -> 0, 2 -> 1 (rows normalised).
    """
    import scipy.sparse as sp

    dense = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.0],
        ]
    )
    return sp.csr_matrix(dense)
