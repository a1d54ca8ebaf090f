"""Backend interface: the four kernels.

A backend owns *how* each kernel is computed; the pipeline driver owns
sequencing, timing, and contract verification.  Backends communicate
through the filesystem (Kernels 0→1→2, as the benchmark requires) and
through :class:`AdjacencyHandle` (Kernel 2→3, in memory).

Kernel 3 is abstract, and so is Kernel 2's build: they are where the
implementation technologies differ.  Kernels 0, 1 and 2 are defined
once, here, as a sequence of steps::

    kernel0:  generate_edges → write_shard per shard → publish_kernel0
    kernel1:  read → sort_edges → write_shard per shard → publish_kernel1
    kernel2:  read → build_adjacency

of which a backend may replace :meth:`Backend.generate_edges` and
:meth:`Backend.sort_edges` and must supply
:meth:`Backend.build_adjacency` (construct, filter and normalize on the
sorted ``(u, v)``).  The serial executors run the steps in order
(:meth:`Backend.kernel0`, :meth:`Backend.kernel1`,
:meth:`Backend.kernel2`); the async executor schedules *the same
functions* as tasks, its Kernel 2 building from the Kernel 1 sort's
arrays instead of the ``read``.  A backend that replaces a whole kernel
instead (the stdlib ``python`` backend replaces all three) is run
through its own kernel by those executors.  The streaming executor runs
Kernels 1 and 2 out of core instead, whatever the backend.

Every kernel method returns ``(output, details)`` where ``details`` is a
JSON-safe dict of free-form metrics folded into the
:class:`repro.core.results.KernelResult`.
"""

from __future__ import annotations

import abc
import time
from pathlib import Path
from typing import Dict, List, Tuple, TypeVar

import numpy as np
import scipy.sparse as sp

from repro._util import Timings, derive_seed, resolve_rng
from repro.core.config import PipelineConfig
from repro.edgeio.dataset import EdgeDataset, write_shards
from repro.edgeio.manifest import ShardInfo
from repro.generators.registry import get_generator
from repro.sort.inmemory import (
    elimination_masks,
    sort_edges as sort_edge_arrays,
    sorted_by,
)

#: Free-form kernel metrics.
Details = Dict[str, object]

T = TypeVar("T")
KernelOutput = Tuple[T, Details]


class AdjacencyHandle(abc.ABC):
    """Backend-specific wrapper around the Kernel 2 output matrix.

    Exposes the minimal cross-backend surface: size, entry counts used
    by contract checks, and a conversion to ``scipy.sparse`` for
    validation and comparison.
    """

    @property
    @abc.abstractmethod
    def num_vertices(self) -> int:
        """Matrix dimension ``N``."""

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Stored entries after filtering and normalisation."""

    @property
    @abc.abstractmethod
    def pre_filter_entry_total(self) -> float:
        """Sum of all adjacency counts *before* column elimination.

        The benchmark contract requires this to equal ``M`` ("all the
        entries in A should sum to M", Section IV.C).
        """

    @abc.abstractmethod
    def to_scipy_csr(self) -> sp.csr_matrix:
        """Materialise the normalised matrix as scipy CSR (float64)."""

    def compressed(self) -> sp.spmatrix:
        """The matrix as the Kernel 2 cache stores it: CSR, or the CSC
        a backend's :meth:`Backend.adjacency_from_csr` adopts as is."""
        return self.to_scipy_csr()


class Backend(abc.ABC):
    """One complete serial implementation of the four-kernel pipeline."""

    #: Registry name; subclasses must override.
    name: str = ""

    #: Execution strategies this backend's kernels compose with
    #: (see :mod:`repro.core.executor`):
    #:
    #: * ``"serial"`` — always supported (the four kernels);
    #: * ``"streaming"`` — the out-of-core Kernel 2 can hand this
    #:   backend a scipy CSR matrix via :meth:`adjacency_from_csr` and
    #:   its Kernel 3 will accept the resulting handle.  The streaming
    #:   *and* async strategies require it (async runs this backend's
    #:   own Kernel 0/1/2 steps, but a backend that replaces the
    #:   kernels whole would give it nothing to overlap);
    #: * ``"parallel"`` — the sharded K2+K3 path produces rank vectors
    #:   numerically matching this backend's serial output.
    capabilities: frozenset = frozenset({"serial"})

    # ------------------------------------------------------------------
    # Kernel 0/1 steps a backend may replace
    # ------------------------------------------------------------------
    def generate_edges(
        self, config: PipelineConfig
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Kernel 0's edge list ``(u, v)`` from the configured generator."""
        generator = get_generator(config.generator)
        return generator(config.scale, config.edge_factor, seed=config.seed)

    def sort_edges(
        self, config: PipelineConfig, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Kernel 1's in-memory sort of ``(u, v)`` by start vertex."""
        return sort_edge_arrays(u, v, by_end_vertex=config.sort_by_end_vertex)

    # ------------------------------------------------------------------
    # Kernel 0 — Generate
    # ------------------------------------------------------------------
    def kernel0(
        self, config: PipelineConfig, out_dir: Path
    ) -> KernelOutput[EdgeDataset]:
        """Generate the Kronecker (or configured) graph and write edge
        files to ``out_dir``.

        Returns the written dataset.  Generation and file writing are
        both inside the measured region (the paper's Figure 4 measures
        Kernel 0 end-to-end even though it is officially untimed).
        """
        timings = Timings()
        with timings.measure("generate"):
            u, v = self.generate_edges(config)
        with timings.measure("write"):
            shards = _write_run_shards(config, out_dir, u, v)
            dataset, details = publish_kernel0(config, out_dir, shards)
        return dataset, {"phases": timings.as_dict(), **details}

    # ------------------------------------------------------------------
    # Kernel 1 — Sort
    # ------------------------------------------------------------------
    def kernel1(
        self, config: PipelineConfig, source: EdgeDataset, out_dir: Path
    ) -> KernelOutput[EdgeDataset]:
        """Read ``source`` edge files, sort by start vertex, write the
        sorted dataset to ``out_dir`` in the same format."""
        timings = Timings()
        with timings.measure("read"):
            u, v = source.read_all()
        with timings.measure("sort"):
            u, v = self.sort_edges(config, u, v)
        with timings.measure("write"):
            shards = _write_run_shards(config, out_dir, u, v)
            dataset, details = publish_kernel1(self, config, out_dir, shards)
        return dataset, {"phases": timings.as_dict(), **details}

    # ------------------------------------------------------------------
    # Kernel 2 — Filter
    # ------------------------------------------------------------------
    def kernel2(
        self, config: PipelineConfig, source: EdgeDataset
    ) -> KernelOutput[AdjacencyHandle]:
        """Read the sorted edge files, then :meth:`build_adjacency`."""
        timings = Timings()
        with timings.measure("read"):
            edges = list(source.read_all())
        # Popped, not unpacked: the build holds the only references, so
        # it can free the raw edges before its filter's memory peak.
        return self.build_adjacency(
            config, edges.pop(0), edges.pop(0), source.num_vertices, timings
        )

    def build_adjacency(
        self, config: PipelineConfig, u: np.ndarray, v: np.ndarray, n: int,
        timings: Timings,
    ) -> KernelOutput[AdjacencyHandle]:
        """Kernel 2's build step: the filtered, row-normalised adjacency
        matrix of the sorted edges ``(u, v)`` over ``n`` vertices:

        1. ``A = sparse(u, v, 1, N, N)`` (duplicates accumulate);
        2. ``din = sum(A, 1)``;
        3. ``A[:, din == max(din)] = 0`` and ``A[:, din == 1] = 0``;
        4. rows with ``dout > 0`` divided by their ``dout``.

        ``timings`` gains ``construct``/``filter``/``normalize`` and is
        published as the details' ``phases``.  Everything after the
        read belongs here, the backend's own container included (the
        dataframe backend builds its ``Frame`` here), so the async
        hand-off skips exactly the read.  ``u`` and ``v`` must be
        left as they are: under the async executor the Kernel 1 shard
        writes encode the same arrays while this step runs.  Only a
        backend that replaces :meth:`kernel2` whole may leave it out.
        """
        raise NotImplementedError(
            f"backend {self.name!r} defines no Kernel 2 build step"
        )

    # ------------------------------------------------------------------
    # Kernel 3 — PageRank
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def kernel3(
        self, config: PipelineConfig, matrix: AdjacencyHandle
    ) -> KernelOutput[np.ndarray]:
        """Run ``config.iterations`` fixed PageRank iterations.

        The initial vector is uniform random (seeded from
        ``config.seed``) normalised to unit 1-norm; each iteration is
        ``r <- c*(r@A) + (1-c)*sum(r)/N`` (``"appendix"`` formula) or
        the paper body's no-``/N`` variant when configured.

        Returns the final rank row-vector of length ``N``.
        """

    # ------------------------------------------------------------------
    # Capability hooks
    # ------------------------------------------------------------------
    def adjacency_from_csr(
        self, matrix: sp.csr_matrix, pre_filter_total: float
    ) -> AdjacencyHandle:
        """Adopt an externally built (row-normalised) CSR or CSC matrix
        as this backend's Kernel 2 output handle.

        The streaming executor builds the filtered matrix out-of-core
        (:func:`repro.core.streaming.streaming_kernel2`) and the Kernel 2
        cache reloads one; both hand it to the backend's Kernel 3.
        Backends declaring the ``"streaming"`` capability must override this.
        """
        raise NotImplementedError(
            f"backend {self.name!r} cannot adopt an external CSR matrix; "
            f"it does not support the 'streaming' execution strategy"
        )

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def initial_rank(config: PipelineConfig) -> np.ndarray:
        """The benchmark's initial rank vector.

        Drawn from a child stream of the config seed so Kernel 3's
        start point is identical across backends, then 1-norm
        normalised (``r = rand(1, N); r = r ./ norm(r, 1)``).
        """
        rng = resolve_rng(derive_seed(config.seed, 3))
        r = rng.random(config.num_vertices)
        return r / np.abs(r).sum()

    @staticmethod
    def filter_triples(
        timings: Timings, n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Details]:
        """Kernel 2 after construction, for backends that hold
        ``sparse(u, v, 1, N, N)`` as triples (any order, which is kept):
        drop the super-node and leaf columns, scale each row by ``1/dout``;
        returns the details too.  ``timings`` gains ``filter``/``normalize``."""
        with timings.measure("filter"):
            din = np.bincount(cols, weights=vals, minlength=n)
            supernode, leaf = elimination_masks(din)
            eliminate = supernode | leaf
            keep = ~eliminate[cols]
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        with timings.measure("normalize"):
            dout = np.bincount(rows, weights=vals, minlength=n)
            nonzero = dout > 0
            inv = np.ones(n, dtype=np.float64)
            inv[nonzero] = 1.0 / dout[nonzero]
            vals *= inv[rows]  # in place: the compress above made vals ours
        return rows, cols, vals, {
            "max_in_degree": float(din.max(initial=0.0)),
            "supernode_columns": int(supernode.sum()),
            "leaf_columns": int(leaf.sum()),
            # Not the sum of the two: at max in-degree 1 they are one set.
            "eliminated_columns": int(eliminate.sum()),
            "nonzero_rows": int(nonzero.sum()),
        }

    def fixed_iterations(
        self, config: PipelineConfig, timings: Timings, product
    ) -> KernelOutput[np.ndarray]:
        """Kernel 3 around a backend's ``r*A`` product: ``timings`` gains
        the initial rank under ``setup`` (beside whatever the operand
        cost) and the ``r <- c*product(r) + teleport`` steps as ``iterate``;
        ``iteration_seconds`` lists each step's share of ``iterate``.

        ``product(r)`` must return a vector that is not ``r`` and that
        nothing else holds: it is scaled and shifted in place, the same
        two operations in the same order as ``c * y + teleport``, so the
        bits are those of the out-of-place step.  A vector of another
        dtype (an empty graph's ``bincount`` is int64) is made float64
        first, as the out-of-place step's scaling made it.
        """
        with timings.measure("setup"):
            n, c = config.num_vertices, config.damping
            r = self.initial_rank(config)
            scale_by_n = config.formula == "appendix"
            iteration_seconds = []
        with timings.measure("iterate"):
            for _ in range(config.iterations):
                started = time.perf_counter()
                teleport = (1.0 - c) * r.sum()
                if scale_by_n:
                    teleport /= n
                y = np.asarray(product(r), dtype=np.float64)
                np.multiply(y, c, out=y)
                np.add(y, teleport, out=y)
                r = y
                iteration_seconds.append(time.perf_counter() - started)
        return r, {
            "phases": timings.as_dict(),
            "iterations": config.iterations,
            "iteration_seconds": iteration_seconds,
            "damping": c,
            "rank_sum": float(r.sum()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<backend {self.name!r}>"


# ----------------------------------------------------------------------
# Kernel 0/1 steps shared by every schedule (not replaceable)
# ----------------------------------------------------------------------
def _write_run_shards(
    config: PipelineConfig, out_dir: Path, u: np.ndarray, v: np.ndarray
) -> List[ShardInfo]:
    """Write ``(u, v)`` to ``out_dir`` in the run's shard layout."""
    return write_shards(
        out_dir, u, v, num_shards=config.num_files, fmt=config.file_format,
        vertex_base=config.vertex_base,
    )


def _publish(config, out_dir, shards, extra) -> EdgeDataset:
    return EdgeDataset.publish(
        out_dir, shards, num_vertices=config.num_vertices,
        vertex_base=config.vertex_base, fmt=config.file_format, extra=extra,
    )


def publish_kernel0(
    config: PipelineConfig, out_dir: Path, shards: List[ShardInfo]
) -> KernelOutput[EdgeDataset]:
    """Kernel 0's last step: the dataset over its written shards."""
    dataset = _publish(
        config, out_dir, shards,
        {"kernel": "k0", "generator": config.generator},
    )
    details: Details = {
        "num_edges": dataset.num_edges,
        "num_shards": dataset.num_shards,
        "bytes_written": dataset.total_bytes(),
    }
    return dataset, details


def kernel1_manifest(config: PipelineConfig) -> Dict[str, object]:
    """The manifest fields of a Kernel 1 dataset: its kernel and order."""
    return {"kernel": "k1", "sorted_by": sorted_by(config.sort_by_end_vertex)}


def publish_kernel1(
    backend: Backend,
    config: PipelineConfig,
    out_dir: Path,
    shards: List[ShardInfo],
) -> KernelOutput[EdgeDataset]:
    """Kernel 1's last step: the sorted dataset over its written shards.

    ``algorithm`` names what actually sorted: ``numpy`` (the one
    in-memory sort) unless the backend replaced :meth:`Backend.sort_edges`.
    """
    dataset = _publish(config, out_dir, shards, kernel1_manifest(config))
    own_sort = type(backend).sort_edges is not Backend.sort_edges
    details: Details = {
        "algorithm": f"{backend.name}-sort" if own_sort else "numpy",
        "num_shards": dataset.num_shards,
    }
    return dataset, details
