"""repro — PageRank Pipeline Benchmark reproduction.

A from-scratch Python implementation of the holistic big-data system
benchmark proposed in:

    Dreher, Byun, Hill, Gadepally, Kuszmaul, Kepner.
    "PageRank Pipeline Benchmark: Proposal for a Holistic System Benchmark
    for Big-Data Platforms." IEEE IPDPS Workshops, 2016.

The benchmark consists of four pipelined kernels over a scale-``S``
power-law graph (``N = 2**S`` vertices, ``M = 16*N`` edges):

* **Kernel 0 — Generate**: Graph500 Kronecker edges written to TSV files.
* **Kernel 1 — Sort**: sort the edge files by start vertex, rewrite.
* **Kernel 2 — Filter**: build the sparse adjacency matrix, drop the
  super-node and leaf columns, row-normalise by out-degree.
* **Kernel 3 — PageRank**: 20 fixed iterations of the damped PageRank
  update ``r <- c*(r@A) + (1-c)*sum(r)/N``.

Quickstart
----------
>>> from repro import RunSpec, execute_spec
>>> outcome = execute_spec(RunSpec(scale=10, seed=7))         # doctest: +SKIP
>>> [r.edges_per_second for r in outcome.records]             # doctest: +SKIP

The declarative surface (`repro.api`: `RunSpec`, scenarios,
`execute_spec`; `repro.service`: `BenchmarkService`, `repro serve`) is
the public entry point; `run_pipeline` is the engine underneath it.
The subpackages (`repro.generators`,
`repro.edgeio`, `repro.sort`, `repro.grb`, `repro.frame`,
`repro.backends`, `repro.pagerank`, `repro.parallel`,
`repro.harness`) expose the full substrate APIs.
"""

from __future__ import annotations

from repro._util.lazy import lazy_exports
from repro.api import (
    RunSpec,
    SweepSpec,
    get_scenario,
    scenario_names,
)
from repro.backends.registry import available_backends, get_backend
from repro.core.config import KernelName, PipelineConfig

# The engine's names import numpy and scipy on first use.
__getattr__ = lazy_exports(__name__, {
    "execute_spec": "repro.api.runner",
    "execute_sweep": "repro.api.runner",
    "run_pipeline": "repro.core.pipeline",
    "KernelResult": "repro.core.results",
    "PipelineResult": "repro.core.results",
})

__version__ = "1.0.0"

__all__ = [
    "KernelName",
    "KernelResult",
    "PipelineConfig",
    "PipelineResult",
    "RunSpec",
    "SweepSpec",
    "available_backends",
    "execute_spec",
    "execute_sweep",
    "get_backend",
    "get_scenario",
    "run_pipeline",
    "scenario_names",
    "__version__",
]
