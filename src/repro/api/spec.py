"""Declarative run specifications: the public unit of work.

The paper frames the pipeline as a *system* benchmark — the unit of
interest is a whole submitted workload, not a library call.
:class:`RunSpec` is that workload as data: a versioned, JSON
round-trippable superset of :class:`~repro.core.config.PipelineConfig`
that also captures the execution strategy, repeat count, cache policy,
and validation mode.  Everything that accepts work — the CLI, the
:class:`~repro.service.BenchmarkService`, the HTTP front end — accepts a
RunSpec (or a scenario name that resolves to one); nothing else plumbs
config fields by hand.

Design rules:

* **Round-trippable**: ``RunSpec.from_dict(spec.to_dict()) == spec``,
  always.  Unknown fields are *rejected*, not ignored — a typo'd field
  must fail loudly, not silently benchmark the wrong thing.
* **Versioned**: every serialised spec carries ``spec_version``.  One
  version is read — the current one; an unstamped document is taken as
  current, any other stamp is refused by name.
* **Environment-free**: a spec never names a cache root.  The *policy*
  ("may this run use the shared artifact cache?") is spec;
  the *location* belongs to the executing environment (CLI flag,
  service constructor).  This keeps :meth:`RunSpec.spec_hash` stable
  across machines, which is what lets the service deduplicate jobs.

:class:`SweepSpec` composes RunSpecs over a (backend × scale) grid, the
shape behind the paper's Figures 4–7.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import (
    DEFAULT_DAMPING,
    DEFAULT_ITERATIONS,
    DEFAULT_PARALLEL_RANKS,
    DEFAULT_STREAMING_BATCH_EDGES,
    PipelineConfig,
)

#: The one serialisation version :meth:`RunSpec.from_dict` reads.
SPEC_VERSION = 7

#: How a run may interact with the environment's artifact cache.
CACHE_POLICIES = ("shared", "off")

#: What correctness machinery runs: ``off`` (nothing — tight benchmark
#: loops), ``contracts`` (the four inter-kernel contracts), ``full``
#: (contracts + the Section IV.D eigenvector cross-check), and
#: ``validate-only`` (the eigenvector check without contracts — the
#: CLI's ``--validate --no-verify``, useful when the contracts' extra
#: file reads would perturb I/O caches but the endpoint check is
#: still wanted).
VALIDATION_MODES = ("off", "contracts", "full", "validate-only")


@dataclass(frozen=True)
class RunSpec:
    """One declarative benchmark job.

    The pipeline-shape fields mirror
    :class:`~repro.core.config.PipelineConfig` (same names, same
    semantics, same validation — see :meth:`to_config`); the API-level
    fields describe how the job is *executed and judged*:

    Attributes
    ----------
    repeats:
        Runs of the pipeline for this job; per-kernel records keep the
        best time (standard wall-clock discipline).  Rank vectors are
        deterministic across repeats.
    cache_policy:
        ``"shared"`` — the run may read/write the executing
        environment's artifact cache; ``"off"`` — always regenerate.
    validation:
        ``"off"`` / ``"contracts"`` / ``"full"`` (see
        :data:`VALIDATION_MODES`).
    data_dir:
        Keep kernel files in this directory instead of a temp dir
        (serialised as a string for JSON friendliness).
    spec_version:
        Serialisation version stamp; not an input knob.

    Examples
    --------
    >>> spec = RunSpec(scale=8, backend="numpy")
    >>> RunSpec.from_dict(spec.to_dict()) == spec
    True
    >>> len(spec.spec_hash())
    24
    """

    scale: int
    edge_factor: int = 16
    seed: int = 1
    num_files: int = 1
    backend: str = "scipy"
    generator: str = "kronecker"
    damping: float = DEFAULT_DAMPING
    iterations: int = DEFAULT_ITERATIONS
    vertex_base: int = 0
    file_format: str = "tsv"
    sort_by_end_vertex: bool = False
    external_sort: bool = False
    formula: str = "appendix"
    execution: str = "serial"
    parallel_ranks: int = DEFAULT_PARALLEL_RANKS
    parallel_executor: str = "sim"
    streaming_batch_edges: int = DEFAULT_STREAMING_BATCH_EDGES
    async_lanes: str = "thread"
    shard_plane: str = "pipe"
    trace: bool = False
    data_dir: Optional[str] = None
    repeats: int = 1
    cache_policy: str = "shared"
    validation: str = "contracts"
    spec_version: int = SPEC_VERSION

    def __post_init__(self) -> None:
        if self.spec_version != SPEC_VERSION:
            raise ValueError(
                f"RunSpec is version {SPEC_VERSION}; got spec_version="
                f"{self.spec_version}"
            )
        if not isinstance(self.repeats, int) or self.repeats < 1:
            raise ValueError(f"repeats must be an int >= 1, got {self.repeats!r}")
        if self.cache_policy not in CACHE_POLICIES:
            raise ValueError(
                f"cache_policy must be one of {CACHE_POLICIES}, "
                f"got {self.cache_policy!r}"
            )
        if self.validation not in VALIDATION_MODES:
            raise ValueError(
                f"validation must be one of {VALIDATION_MODES}, "
                f"got {self.validation!r}"
            )
        if self.data_dir is not None:
            object.__setattr__(self, "data_dir", str(self.data_dir))
        # Delegate pipeline-field validation to PipelineConfig so the
        # two surfaces can never drift on what is legal.
        self.to_config()

    # ------------------------------------------------------------------
    # Bridges
    # ------------------------------------------------------------------
    @property
    def verify(self) -> bool:
        """Whether the inter-kernel contracts run for this spec."""
        return self.validation in ("contracts", "full")

    def to_config(self, cache_dir: Optional[Path] = None) -> PipelineConfig:
        """Materialise the executable config for one environment.

        Parameters
        ----------
        cache_dir:
            The environment's artifact-cache root; ignored when the
            spec's ``cache_policy`` is ``"off"``.
        """
        return PipelineConfig(
            **{name: getattr(self, name) for name in SHARED_FIELDS},
            data_dir=Path(self.data_dir) if self.data_dir else None,
            validate=self.validation in ("full", "validate-only"),
            cache_dir=(
                cache_dir
                if cache_dir is not None and self.cache_policy == "shared"
                else None
            ),
        )

    @classmethod
    def from_config(cls, config: PipelineConfig, **api_fields: object) -> "RunSpec":
        """Lift a :class:`PipelineConfig` into a spec.

        ``validate``/``cache_dir`` map onto ``validation``/
        ``cache_policy``; extra keyword fields (``repeats``, …) pass
        through to the constructor.
        """
        api_fields.setdefault(
            "validation", "full" if config.validate else "contracts"
        )
        api_fields.setdefault(
            "cache_policy", "shared" if config.cache_dir is not None else "off"
        )
        return cls(
            **{name: getattr(config, name) for name in SHARED_FIELDS},
            data_dir=str(config.data_dir) if config.data_dir else None,
            **api_fields,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return asdict(self)

    def to_json(self) -> str:
        """Stable JSON encoding."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "RunSpec":
        """Parse a spec document (unstamped means current version).

        Raises
        ------
        ValueError
            On any ``spec_version`` but the current one, or any unknown
            field.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"RunSpec document must be an object, got {doc!r}")
        version = doc.get("spec_version", SPEC_VERSION)
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"invalid spec_version {version!r}")
        if version > SPEC_VERSION:
            raise ValueError(
                f"spec_version {version} is newer than this library "
                f"understands (max {SPEC_VERSION})"
            )
        if version < SPEC_VERSION:
            raise ValueError(
                f"spec_version {version} is older than version "
                f"{SPEC_VERSION}, the only one this library reads; old "
                f"documents are not upgraded"
            )
        known = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown RunSpec field(s) {unknown}; known fields: "
                f"{sorted(known)}"
            )
        return cls(**doc)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        """Parse :meth:`to_json` output (or any spec JSON document)."""
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Deterministic identity of this workload (dedup key).

        Stable across processes and machines: delegates to
        :func:`repro.core.artifacts.cache_key` (SHA-256 of the
        canonical JSON) so the two content-addressing schemes share one
        encoding.

        Examples
        --------
        >>> a = RunSpec(scale=8)
        >>> a.spec_hash() == RunSpec(scale=8).spec_hash()
        True
        >>> a.spec_hash() == RunSpec(scale=9).spec_hash()
        False
        """
        from repro.core.artifacts import cache_key

        return cache_key(self.to_dict())

    def with_overrides(self, **changes: object) -> "RunSpec":
        """Functional update (delegates to ``dataclasses.replace``)."""
        return replace(self, **changes)  # type: ignore[arg-type]


#: The pipeline fields :class:`RunSpec` and :class:`PipelineConfig`
#: declare under one name with one meaning; the two bridges copy these
#: and spell out only what differs (``data_dir`` is ``str`` here, ``Path``
#: there).
SHARED_FIELDS = tuple(
    f.name for f in dataclass_fields(PipelineConfig)
    if f.name in RunSpec.__dataclass_fields__ and f.name != "data_dir"
)


@dataclass(frozen=True)
class SweepSpec:
    """A grid of RunSpecs: one base spec swept over backends × scales.

    JSON round-trippable and scenario-registrable.  Grid cells inherit
    every field of ``base`` except the swept axes.

    Attributes
    ----------
    base:
        Field donor for every cell.  Its ``repeats`` must be 1 — the
        sweep-level :attr:`repeats` owns that axis (the harness keeps
        the best time per kernel per cell).
    scales / backends:
        The grid axes (backend-major iteration order, matching the
        harness).
    repeats:
        Runs per cell.

    Examples
    --------
    >>> sweep = SweepSpec(base=RunSpec(scale=1), scales=(6, 8),
    ...                   backends=("scipy", "numpy"))
    >>> [s.backend for s in sweep.run_specs()]
    ['scipy', 'scipy', 'numpy', 'numpy']
    >>> SweepSpec.from_dict(sweep.to_dict()) == sweep
    True
    """

    base: RunSpec
    scales: Tuple[int, ...]
    backends: Tuple[str, ...]
    repeats: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "scales", tuple(int(s) for s in self.scales))
        object.__setattr__(self, "backends", tuple(str(b) for b in self.backends))
        if not self.scales:
            raise ValueError("SweepSpec needs at least one scale")
        if not self.backends:
            raise ValueError("SweepSpec needs at least one backend")
        if not isinstance(self.repeats, int) or self.repeats < 1:
            raise ValueError(f"repeats must be an int >= 1, got {self.repeats!r}")
        if self.base.repeats != 1:
            raise ValueError(
                "SweepSpec.base.repeats must be 1; use SweepSpec.repeats "
                "for the per-cell repeat count"
            )

    def run_specs(self) -> List[RunSpec]:
        """All cell specs, backend-major then scale order."""
        return [
            self.base.with_overrides(backend=backend, scale=scale)
            for backend in self.backends
            for scale in self.scales
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict; inverse of :meth:`from_dict`."""
        return {
            "base": self.base.to_dict(),
            "scales": list(self.scales),
            "backends": list(self.backends),
            "repeats": self.repeats,
        }

    def to_json(self) -> str:
        """Stable JSON encoding."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "SweepSpec":
        """Parse a sweep document (strict, like :meth:`RunSpec.from_dict`)."""
        if not isinstance(doc, dict):
            raise ValueError(f"SweepSpec document must be an object, got {doc!r}")
        doc = dict(doc)
        try:
            base_doc = doc.pop("base")
        except KeyError:
            raise ValueError("SweepSpec document needs a 'base' RunSpec") from None
        known = {"scales", "backends", "repeats"}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(
                f"unknown SweepSpec field(s) {unknown}; known fields: "
                f"{sorted(known | {'base'})}"
            )
        return cls(
            base=RunSpec.from_dict(base_doc),
            scales=tuple(doc.get("scales", ())),
            backends=tuple(doc.get("backends", ())),
            repeats=int(doc.get("repeats", 1)),
        )

    def spec_hash(self) -> str:
        """Deterministic identity of the whole grid."""
        from repro.core.artifacts import cache_key

        return cache_key(self.to_dict())
