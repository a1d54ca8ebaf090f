"""``repro.api`` — the declarative public surface.

One way in for every kind of work:

* :class:`RunSpec` / :class:`SweepSpec` — workloads as versioned,
  JSON round-trippable data (:mod:`repro.api.spec`);
* :class:`ScenarioRegistry` — named workloads, ``repro run --scenario
  paper-s18`` (:mod:`repro.api.scenarios`);
* :func:`execute_spec` / :func:`execute_sweep` — run them
  (:mod:`repro.api.runner`);
* :class:`repro.service.BenchmarkService` — submit them to a long-lived
  concurrent job service (re-exported here lazily to avoid an import
  cycle; ``from repro.api import BenchmarkService`` works).

:func:`repro.core.pipeline.run_pipeline` is the engine underneath, for
callers that already hold a :class:`~repro.core.config.PipelineConfig`.
"""

from __future__ import annotations

from repro.api.spec import (
    CACHE_POLICIES,
    SPEC_VERSION,
    VALIDATION_MODES,
    RunSpec,
    SweepSpec,
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
from repro.api.runner import (
    RunOutcome,
    execute_spec,
    execute_sweep,
    rank_sha256,
    sweep_cells,
)

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


def __getattr__(name: str):
    # Lazy re-export: repro.service imports repro.api.spec, so a direct
    # import here would be a cycle.
    if name == "BenchmarkService":
        from repro.service import BenchmarkService

        return BenchmarkService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
