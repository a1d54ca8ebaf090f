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

from repro._util import check_positive_int
from repro.core.config import (
    DEFAULT_DAMPING,
    DEFAULT_ITERATIONS,
    DEFAULT_PARALLEL_RANKS,
    DEFAULT_STREAMING_BATCH_EDGES,
    REQUIRED_CAPABILITY,
    PipelineConfig,
)

#: The one serialisation version :meth:`RunSpec.from_dict` reads.
SPEC_VERSION = 8

#: How a run may interact with the environment's artifact cache.
CACHE_POLICIES = ("shared", "off")


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
        ``"off"`` / ``"contracts"`` / ``"full"``
        (see :data:`~repro.core.config.VALIDATION_MODES`); a pipeline
        field, copied to the config like the others.
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
        check_positive_int("repeats", self.repeats)
        if self.cache_policy not in CACHE_POLICIES:
            raise ValueError(
                f"cache_policy must be one of {CACHE_POLICIES}, "
                f"got {self.cache_policy!r}"
            )
        if self.data_dir is not None:
            object.__setattr__(self, "data_dir", str(self.data_dir))
        # Delegate pipeline-field validation to PipelineConfig so the
        # two surfaces can never drift on what is legal.
        self.to_config()

    # ------------------------------------------------------------------
    # Bridges
    # ------------------------------------------------------------------
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
            cache_dir=(
                cache_dir
                if cache_dir is not None and self.cache_policy == "shared"
                else None
            ),
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
        # Checked, never coerced: RunSpec refuses scale=6.5, and so does
        # the grid ("68" is not the scales 6 and 8).
        for axis, kind in (("scales", int), ("backends", str)):
            values = getattr(self, axis)
            if not isinstance(values, (list, tuple)):
                raise TypeError(
                    f"{axis} must be a list, got {type(values).__name__}"
                )
            for value in values:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise TypeError(
                        f"{axis} entries must be {kind.__name__}, got "
                        f"{value!r}"
                    )
            if not values:
                raise ValueError(f"SweepSpec needs at least one {axis[:-1]}")
            object.__setattr__(self, axis, tuple(values))
        check_positive_int("repeats", self.repeats)
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
            scales=doc.get("scales", ()),
            backends=doc.get("backends", ()),
            repeats=doc.get("repeats", 1),
        )

    def spec_hash(self) -> str:
        """Deterministic identity of the whole grid."""
        from repro.core.artifacts import cache_key

        return cache_key(self.to_dict())


def sweep_cells(
    sweep: SweepSpec,
) -> List[Tuple[str, int, Optional[RunSpec]]]:
    """Lower a sweep grid to per-cell RunSpecs.

    Returns ``(backend, scale, spec)`` triples, backend-major then
    scale order — exactly the cells
    :func:`~repro.api.runner.execute_sweep` runs.  Cells whose backend
    lacks the execution strategy's capability get ``spec=None`` (e.g.
    ``python`` under ``execution="streaming"``), so the default backend
    grid still works with non-serial strategies and the service can
    record the skip in its sweep table.  The sweep-level ``repeats``
    moves onto each cell spec, where
    :func:`~repro.api.runner.execute_spec`'s repeat loop keeps the best
    time per kernel.  Imports no backend.

    Raises
    ------
    ValueError
        When no backend in the grid supports the execution strategy.
    """
    from repro.backends.registry import backend_capabilities

    needed = REQUIRED_CAPABILITY[sweep.base.execution]
    cells: List[Tuple[str, int, Optional[RunSpec]]] = []
    supported = False
    for backend in sweep.backends:
        capable = needed in backend_capabilities(backend)
        for scale in sweep.scales:
            if capable:
                cells.append((backend, scale, sweep.base.with_overrides(
                    backend=backend, scale=scale, repeats=sweep.repeats,
                )))
                supported = True
            else:
                cells.append((backend, scale, None))
    if not supported:
        raise ValueError(
            f"no backend in {list(sweep.backends)} supports execution="
            f"{sweep.base.execution!r}"
        )
    return cells
