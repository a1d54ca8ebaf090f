"""``repro.api`` — the declarative public surface.

One way in for every kind of work:

* :class:`RunSpec` / :class:`SweepSpec` — workloads as versioned,
  JSON round-trippable data (:mod:`repro.api.spec`);
* :class:`ScenarioRegistry` — named workloads, ``repro run --scenario
  paper-s18`` (:mod:`repro.api.scenarios`);
* :func:`execute_spec` / :func:`execute_sweep` — run them
  (:mod:`repro.api.runner`);
* :class:`repro.service.BenchmarkService` — submit them to a long-lived
  concurrent job service (``from repro.api import BenchmarkService``
  works).

:func:`repro.core.pipeline.run_pipeline` is the engine underneath, for
callers that already hold a :class:`~repro.core.config.PipelineConfig`.
"""

from __future__ import annotations

from repro._util.lazy import lazy_exports
from repro.api.spec import (
    CACHE_POLICIES,
    SPEC_VERSION,
    RunSpec,
    SweepSpec,
    sweep_cells,
)
from repro.api.scenarios import (
    BUILTIN_SCENARIOS,
    PAPER_SCALES,
    Scenario,
    ScenarioRegistry,
    default_registry,
    get_scenario,
    scenario_names,
)
from repro.core.config import VALIDATION_MODES

__all__ = [
    "BUILTIN_SCENARIOS",
    "BenchmarkService",
    "CACHE_POLICIES",
    "PAPER_SCALES",
    "RunOutcome",
    "RunSpec",
    "SPEC_VERSION",
    "Scenario",
    "ScenarioRegistry",
    "SweepSpec",
    "VALIDATION_MODES",
    "default_registry",
    "execute_spec",
    "execute_sweep",
    "get_scenario",
    "rank_sha256",
    "scenario_names",
    "sweep_cells",
]

# The runner imports the engine (numpy, scipy): loaded on first use, so
# building, hashing and lowering specs needs neither.  repro.service
# imports repro.api.spec, so it is lazy here as well.
__getattr__ = lazy_exports(__name__, {
    "RunOutcome": "repro.api.runner",
    "execute_spec": "repro.api.runner",
    "execute_sweep": "repro.api.runner",
    "rank_sha256": "repro.api.runner",
    "BenchmarkService": "repro.service",
})
