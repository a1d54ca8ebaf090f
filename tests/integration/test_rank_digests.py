"""Seed-1 rank digests, pinned in one table.

:data:`DIGESTS` maps ``(scale, path)`` to the first 12 hex digits of
:attr:`~repro.api.runner.RunOutcome.rank_digest` for
``RunSpec(scale=scale, seed=1)`` run on that path; every test that pins
a digest reads it from here.  A path (:data:`PATHS`) is an execution
strategy on scipy, or another backend on serial.

Serial, async and streaming share one digest with the numpy and
graphblas backends.  Parallel's bits depend on its rank count: each
rank's partial sums enter the allreduce in a fixed order, so 4 ranks
give a digest of their own (2 ranks give ``10e0a233df45``), the same on
thread and process ranks.  Its agreement with serial is held to
``allclose`` by the parity suite.  Dataframe and python are pinned to
their own digests, dataframe at 16 and python at 12 (its pure-Python
kernels are slow).

This module runs the rows up to scale 16 (seconds).  The paper-scale
rows (18 and 20) run from ``paper_digests.py``, whose name keeps it out
of tier-1's collection; CI's "paper-scale digests" step passes it by
path::

    PYTHONPATH=src python -m pytest -q tests/integration/paper_digests.py
"""

from __future__ import annotations

import pytest

from repro.api import RunSpec, execute_spec

#: Spec fields of each path, over ``RunSpec(scale=..., seed=1)``.
PATHS = {
    "serial": {},
    "async": {"execution": "async"},
    "streaming": {"execution": "streaming"},
    "parallel-sim-4": {"execution": "parallel", "parallel_ranks": 4,
                       "parallel_executor": "sim"},
    "parallel-mp-4": {"execution": "parallel", "parallel_ranks": 4,
                      "parallel_executor": "mp"},
    "numpy": {"backend": "numpy"},
    "graphblas": {"backend": "graphblas"},
    "dataframe": {"backend": "dataframe"},
    "python": {"backend": "python"},
}

#: ``(scale, path) -> digest``: the one table.
DIGESTS = {
    (12, "python"): "d982f2d69a49",
    (14, "serial"): "38544e32d943",
    **{(16, path): "64afd84459bc" for path in (
        "serial", "async", "streaming", "numpy", "graphblas")},
    (16, "parallel-sim-4"): "c8f8e14a9086",
    (16, "parallel-mp-4"): "c8f8e14a9086",
    (16, "dataframe"): "a3310763633a",
    **{(18, path): "66ba2360428b" for path in (
        "serial", "async", "streaming")},
    (18, "parallel-sim-4"): "0e132b036f44",
    (18, "parallel-mp-4"): "0e132b036f44",
    **{(20, path): "4eb403d476dc" for path in ("serial", "streaming")},
}

#: The largest scale this module runs; ``paper_digests.py`` runs the rest.
TIER1_MAX_SCALE = 16


def check_digest(scale, path):
    spec = RunSpec(scale=scale, seed=1, validation="off", **PATHS[path])
    assert execute_spec(spec).rank_digest[:12] == DIGESTS[scale, path]


_ROWS = sorted(row for row in DIGESTS if row[0] <= TIER1_MAX_SCALE)


@pytest.mark.parametrize(
    "scale, path", _ROWS, ids=[f"s{scale}-{path}" for scale, path in _ROWS]
)
def test_rank_digest(scale, path):
    check_digest(scale, path)
