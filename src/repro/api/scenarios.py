"""Named workloads: the scenario registry.

BigDataBench and BigOP scale to dozens of workloads by making each one
*data* handed to a harness, not a new entry point.  Same here: a
scenario is a name, a description, and a dict of
:class:`~repro.api.spec.RunSpec` fields.  ``repro run --scenario
paper-s18`` replaces flag soup, the service accepts ``{"scenario":
"smoke"}`` over HTTP, and a new workload is one
:meth:`ScenarioRegistry.register` call (or one dict entry in
:data:`BUILTIN_SCENARIOS`).

Scenario names resolve with overrides — ``registry.resolve("smoke",
seed=7)`` — so a scenario fixes the workload shape while the caller
still owns incidental knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.api.spec import RunSpec

#: The paper's Table II scales (Section IV.A).
PAPER_SCALES = tuple(range(16, 23))

#: Backends shipped with the repo (mirrors the registry; listed here so
#: scenario construction does not import backend modules).
_BACKENDS = ("python", "numpy", "scipy", "dataframe", "graphblas")


@dataclass(frozen=True)
class Scenario:
    """One registered workload: a RunSpec field dict with a name."""

    name: str
    description: str
    fields: Dict[str, object]

    def resolve(self, **overrides: object) -> RunSpec:
        """Materialise the spec, caller overrides winning."""
        merged = dict(self.fields)
        merged.update(overrides)
        return RunSpec(**merged)  # type: ignore[arg-type]


class ScenarioRegistry:
    """Name → scenario mapping with helpful failure modes.

    Examples
    --------
    >>> registry = default_registry()
    >>> registry.resolve("smoke").scale
    6
    >>> registry.resolve("paper-s18").scale
    18
    >>> registry.resolve("smoke", seed=9).seed
    9
    """

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(
        self, name: str, description: str, **fields: object
    ) -> Scenario:
        """Add a scenario; field validity is checked eagerly.

        Raises
        ------
        ValueError
            On a duplicate name or fields no :class:`RunSpec` accepts
            (a registry can never hold an unrunnable scenario).
        """
        if name in self._scenarios:
            raise ValueError(f"scenario {name!r} is already registered")
        scenario = Scenario(name=name, description=description, fields=fields)
        scenario.resolve()  # validate eagerly
        self._scenarios[name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look up one scenario.

        Raises
        ------
        KeyError
            With the known names (sorted) when ``name`` is missing.
        """
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r}; known: {', '.join(self.names())}"
            ) from None

    def resolve(self, name: str, **overrides: object) -> RunSpec:
        """Materialise a scenario's :class:`RunSpec`, with overrides."""
        return self.get(name).resolve(**overrides)

    def names(self) -> List[str]:
        """Registered names, sorted."""
        return sorted(self._scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        for name in self.names():
            yield self._scenarios[name]

    def __contains__(self, name: object) -> bool:
        return name in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def describe(self) -> List[Tuple[str, str]]:
        """(name, description) rows for CLI/HTTP listings."""
        return [(s.name, s.description) for s in self]


def default_registry() -> ScenarioRegistry:
    """Build the built-in registry (a fresh copy — mutate freely)."""
    registry = ScenarioRegistry()

    registry.register(
        "smoke",
        "30-second sanity workload: scale 6, numpy, contracts on",
        scale=6, backend="numpy",
    )
    for backend in _BACKENDS:
        registry.register(
            f"smoke-{backend}",
            f"smoke workload pinned to the {backend} backend",
            scale=6, backend=backend,
        )
    for scale in PAPER_SCALES:
        registry.register(
            f"paper-s{scale}",
            f"paper Table II run size: scale {scale} "
            f"(N=2^{scale}, M=16*2^{scale}), scipy",
            scale=scale, backend="scipy",
        )
    registry.register(
        "cache-warm",
        "artifact-cache behaviour probe: 3 repeats sharing one cache "
        "root; repeat 2+ should record k0/k1/k2 cache hits",
        scale=10, backend="scipy", repeats=3, cache_policy="shared",
    )
    registry.register(
        "async-overlap",
        "async executor demo at scale 12: per-kernel busy times plus "
        "overlap_saved_s in the K3 details",
        scale=12, backend="scipy", execution="async",
    )
    registry.register(
        "async-overlap-proc",
        "async executor with process codec lanes at scale 12 over 4 "
        "shards: TSV encode/decode offloaded to lane worker processes; "
        "K3 details add lane_busy_seconds per lane",
        scale=12, backend="scipy", execution="async",
        async_lanes="process", num_files=4,
    )
    registry.register(
        "async-overlap-shm",
        "async executor with process lanes and the shared-memory shard "
        "plane at scale 12 over 4 shards: edge arrays cross lane "
        "workers as ShardBuffer segments (zero-copy); K3 details add "
        "handoff_mode and shm_bytes_saved",
        scale=12, backend="scipy", execution="async",
        async_lanes="process", num_files=4, shard_plane="shm",
    )
    registry.register(
        "streaming-bounded",
        "out-of-core Kernels 1 and 2 at scale 14 with small sort runs "
        "and pass-1 batches (memory bounded by O(batch + N))",
        scale=14, backend="scipy", execution="streaming",
        streaming_batch_edges=1 << 16,
    )
    registry.register(
        "parallel-sim",
        "sharded K2+K3 over 4 thread ranks with traffic accounting",
        scale=10, backend="scipy", execution="parallel", parallel_ranks=4,
    )
    registry.register(
        "parallel-mp",
        "sharded K2+K3 over 2 process ranks (same communicator and "
        "traffic accounting, true process parallelism)",
        scale=10, backend="scipy", execution="parallel", parallel_ranks=2,
        parallel_executor="mp",
    )
    registry.register(
        "validated",
        "scale 8 with the full eigenvector cross-check (Section IV.D)",
        scale=8, backend="scipy", validation="full",
    )
    return registry


#: Module-level default registry used by the CLI and service.
BUILTIN_SCENARIOS = default_registry()


def get_scenario(name: str, **overrides: object) -> RunSpec:
    """Resolve against the built-in registry (CLI convenience)."""
    return BUILTIN_SCENARIOS.resolve(name, **overrides)


def scenario_names() -> List[str]:
    """Built-in scenario names, sorted."""
    return BUILTIN_SCENARIOS.names()
