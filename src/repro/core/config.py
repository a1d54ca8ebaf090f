"""Benchmark configuration.

:class:`PipelineConfig` is the single source of truth for a run: sizes,
seeds, file layout, backend and algorithm switches.  It is immutable,
hashable, JSON-serialisable, and fully determines the pipeline output
(given the same library version) — reproducibility is a config property,
not a harness afterthought.

:func:`run_sizes_table` regenerates the paper's Table II from first
principles.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro._util import (
    check_bool,
    check_in_range,
    check_nonneg_int,
    check_positive_int,
)
from repro.generators.base import GeneratorSpec


class KernelName(str, enum.Enum):
    """The four pipeline kernels, in execution order."""

    K0_GENERATE = "k0-generate"
    K1_SORT = "k1-sort"
    K2_FILTER = "k2-filter"
    K3_PAGERANK = "k3-pagerank"

    @property
    def index(self) -> int:
        """0-based kernel position."""
        return list(KernelName).index(self)


#: Damping factor fixed by the paper (Section IV.D).
DEFAULT_DAMPING = 0.85
#: PageRank iteration count fixed by the paper.
DEFAULT_ITERATIONS = 20
#: Execution strategies understood by :mod:`repro.core.executor`, each
#: with the backend capability it requires (each executor's
#: ``required_capability``; sweep lowering reads it without importing
#: the executors).
REQUIRED_CAPABILITY = {
    "serial": "serial",
    "streaming": "streaming",
    "parallel": "parallel",
    "async": "streaming",
}
EXECUTION_MODES = tuple(REQUIRED_CAPABILITY)
#: Default rank count for the "parallel" strategy.
DEFAULT_PARALLEL_RANKS = 4
#: Default run and batch size of the "streaming" strategy's Kernels 1
#: and 2 (config and :func:`repro.core.streaming.streaming_kernel2`).
DEFAULT_STREAMING_BATCH_EDGES = 1 << 18
#: What correctness machinery runs: ``off`` (nothing — tight benchmark
#: loops), ``contracts`` (the four inter-kernel contracts), or ``full``
#: (contracts + the Section IV.D eigenvector cross-check).
VALIDATION_MODES = ("off", "contracts", "full")
#: Shard hand-off planes (``shard_plane``; :mod:`repro.core.shmplane`
#: negotiates the plane).
SHARD_PLANES = ("pipe", "shm")
#: Accepted ``worker_kind`` values for the service/CLI.  ``"remote"``
#: dispatches over TCP to ``repro worker --connect`` agents (see
#: :mod:`repro.service.remote`).
WORKER_KINDS = ("thread", "process", "remote")
#: Enum-valued fields and their legal values: the one table
#: :class:`PipelineConfig` validates against and the CLI reads for
#: ``choices=``.
FIELD_CHOICES = {
    "file_format": ("tsv", "npy", "tsv.gz"),
    "formula": ("appendix", "paper-body"),
    "validation": VALIDATION_MODES,
    "execution": EXECUTION_MODES,
    "parallel_executor": ("sim", "mp"),
    "async_lanes": ("thread", "process"),
    "shard_plane": SHARD_PLANES,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to reproduce one benchmark run.

    Attributes
    ----------
    scale:
        Graph500 scale ``S``: the graph has ``N = 2**S`` vertices.
    edge_factor:
        Edges per vertex ``k`` (paper fixes 16).
    seed:
        Root RNG seed; child streams are derived deterministically.
    num_files:
        Shard count for Kernels 0 and 1 output ("a free parameter to be
        set by the implementer or the user"), at most ``M`` (one edge
        per file).
    backend:
        Registered backend name (see :func:`repro.backends.registry`).
    generator:
        Registered Kernel 0 generator name.
    damping:
        PageRank damping ``c``.
    iterations:
        Fixed PageRank iteration count.
    data_dir:
        Directory for kernel files, kept after the run; ``None`` means a
        temporary directory, always removed after the run (on success
        or failure).
    vertex_base:
        On-disk vertex label base (0, or 1 for Matlab convention).
    file_format:
        ``"tsv"`` (paper), ``"tsv.gz"`` (the same text, gzip-compressed)
        or ``"npy"`` (binary ablation).
    sort_by_end_vertex:
        Also order ties by end vertex (paper's open question).  Kernel 1
        has one in-memory sort, :func:`repro.sort.inmemory.sort_edges`:
        a value sort of packed ``(u, position)`` keys (stable), or of
        ``(u, v)`` keys with this flag.  The out-of-core path (the
        ``"streaming"`` strategy's Kernel 1) forms its runs and orders
        its merged batches with it, so both give the same bytes.
    formula:
        Kernel 3 update form: ``"appendix"`` (with ``/N``, the correct
        PageRank) or ``"paper-body"`` (the body text's typo, kept for
        documentation of the divergence).
    validation:
        Which correctness checks run (:data:`VALIDATION_MODES`): the
        inter-kernel contracts (:attr:`verify`), those plus the
        eigenvector cross-check after Kernel 3 (:attr:`validate`, small
        scales), or neither.
    execution:
        Execution strategy: ``"serial"`` (in-memory, the default),
        ``"streaming"`` (out-of-core Kernels 1 and 2), ``"parallel"``
        (sharded distributed Kernels 2+3), or ``"async"`` (overlapped
        stage I/O and compute via the task scheduler).  See
        :mod:`repro.core.executor`.
    cache_dir:
        Root of the Kernel 0/1 artifact cache
        (:class:`repro.core.artifacts.ArtifactCache`); ``None`` disables
        caching.
    parallel_ranks:
        Rank count for the ``"parallel"`` execution strategy.
    parallel_executor:
        How the ``"parallel"`` strategy launches its ranks: ``"sim"``
        (threads) or ``"mp"`` (OS processes, true process parallelism).
        Same communicator, rank digest and traffic log either way.
    streaming_batch_edges:
        The ``"streaming"`` strategy's one memory knob: the edges per
        sorted run of its Kernel 1 and per pass-1 batch of its Kernel 2.
    async_lanes:
        Where the ``"async"`` strategy runs its GIL-bound TSV codec
        tasks: ``"thread"`` (scheduler thread pool, the default) or
        ``"process"`` (offloaded to lane worker processes so shard
        encodes/decodes overlap compute instead of contending for the
        GIL).  Results are bit-identical either way.
    shard_plane:
        How edge arrays cross the lane-worker boundary when process
        lanes are active: ``"pipe"`` (pickled over the worker pipes,
        the default) or ``"shm"`` (shared-memory
        :class:`~repro.core.shmplane.ShardBuffer` segments; only
        segment names cross the pipe).  Degrades to ``"pipe"`` with a
        warning when shared memory is unavailable; results are
        bit-identical either way.
    trace:
        Record a span trace of the run (:mod:`repro.core.trace`): stage
        phases, scheduler tasks, lane ops, shm segment lifecycle, and
        cache probes land in ``PipelineResult.trace``, exportable as a
        Chrome/Perfetto ``trace.json``.  Off by default; the disabled
        path is a cheap no-op and the flag never enters artifact-cache
        keys (those enumerate their fields explicitly).
    """

    scale: int
    edge_factor: int = 16
    seed: int = 1
    num_files: int = 1
    backend: str = "scipy"
    generator: str = "kronecker"
    damping: float = DEFAULT_DAMPING
    iterations: int = DEFAULT_ITERATIONS
    data_dir: Optional[Path] = None
    vertex_base: int = 0
    file_format: str = "tsv"
    sort_by_end_vertex: bool = False
    formula: str = "appendix"
    validation: str = "contracts"
    execution: str = "serial"
    cache_dir: Optional[Path] = None
    parallel_ranks: int = DEFAULT_PARALLEL_RANKS
    parallel_executor: str = "sim"
    streaming_batch_edges: int = DEFAULT_STREAMING_BATCH_EDGES
    async_lanes: str = "thread"
    shard_plane: str = "pipe"
    trace: bool = False

    def __post_init__(self) -> None:
        check_positive_int("scale", self.scale)
        check_positive_int("edge_factor", self.edge_factor)
        check_nonneg_int("seed", self.seed)
        check_positive_int("num_files", self.num_files)
        if self.num_files > self.num_edges:
            raise ValueError(
                f"num_files must be at most M = {self.num_edges} (the "
                f"edge count at scale {self.scale}, edge_factor "
                f"{self.edge_factor}), got {self.num_files}"
            )
        for name in ("backend", "generator"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TypeError(f"{name} must be a str, got {type(value).__name__}")
        check_in_range("damping", self.damping, 0.0, 1.0)
        check_positive_int("iterations", self.iterations)
        check_nonneg_int("vertex_base", self.vertex_base)
        if self.vertex_base not in (0, 1):
            raise ValueError(f"vertex_base must be 0 or 1, got {self.vertex_base}")
        for name, choices in FIELD_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(
                    f"{name} must be one of {choices}, "
                    f"got {getattr(self, name)!r}"
                )
        check_positive_int("parallel_ranks", self.parallel_ranks)
        check_positive_int("streaming_batch_edges", self.streaming_batch_edges)
        for name in ("sort_by_end_vertex", "trace"):
            check_bool(name, getattr(self, name))
        if self.data_dir is not None:
            object.__setattr__(self, "data_dir", Path(self.data_dir))
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))

    @property
    def verify(self) -> bool:
        """Whether the inter-kernel contracts run (``contracts``, ``full``)."""
        return self.validation in ("contracts", "full")

    @property
    def validate(self) -> bool:
        """Whether the eigenvector cross-check runs (``full``)."""
        return self.validation == "full"

    # ------------------------------------------------------------------
    # Derived sizes (paper Section IV.A / Table II)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``N = 2**scale``."""
        return GeneratorSpec(self.scale, self.edge_factor).num_vertices

    @property
    def num_edges(self) -> int:
        """``M = edge_factor * N``."""
        return GeneratorSpec(self.scale, self.edge_factor).num_edges

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict (paths become strings)."""
        doc = asdict(self)
        for key in ("data_dir", "cache_dir"):
            if doc[key] is not None:
                doc[key] = str(doc[key])
        return doc

    def with_overrides(self, **changes: object) -> "PipelineConfig":
        """Functional update (delegates to ``dataclasses.replace``)."""
        return replace(self, **changes)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RunSizeRow:
    """One row of the paper's Table II."""

    scale: int
    max_vertices: int
    max_edges: int
    memory_bytes: int


#: Bytes/edge that reproduce the paper's Table II memory column.
#: The paper's *text* says "assuming 16 bytes per edge", but its printed
#: numbers (25MB at scale 16 … 1.6GB at scale 22) only follow from
#: ~24 bytes/edge (1048576 * 24 = 25.2 MB; 67108864 * 24 = 1.61 GB).
#: We reproduce the published numbers.
TABLE2_BYTES_PER_EDGE = 24


def run_sizes_table(
    scales: Optional[List[int]] = None,
    edge_factor: int = 16,
    bytes_per_edge: int = TABLE2_BYTES_PER_EDGE,
) -> List[RunSizeRow]:
    """Regenerate the paper's Table II (benchmark run sizes).

    Parameters
    ----------
    scales:
        Scale factors to tabulate; defaults to the paper's 16..22.
    edge_factor:
        Edges per vertex (paper: 16).
    bytes_per_edge:
        Memory-column multiplier; the default 24 matches the paper's
        printed numbers (its text says 16 — see
        :data:`TABLE2_BYTES_PER_EDGE`).

    Examples
    --------
    >>> rows = run_sizes_table([16])
    >>> rows[0].max_vertices, rows[0].max_edges
    (65536, 1048576)
    """
    scales = scales if scales is not None else list(range(16, 23))
    rows = []
    for scale in scales:
        spec = GeneratorSpec(scale, edge_factor)
        rows.append(
            RunSizeRow(
                scale=scale,
                max_vertices=spec.num_vertices,
                max_edges=spec.num_edges,
                memory_bytes=spec.num_edges * bytes_per_edge,
            )
        )
    return rows
