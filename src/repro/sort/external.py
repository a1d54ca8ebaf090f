"""Out-of-core external sort for edge datasets (Kernel 1 at scale).

The paper: "if u and v are too large to fit in memory, then an
out-of-core algorithm would be required."  This module implements the
textbook two-phase external sort with bounded memory:

1. **Run generation** — stream the input dataset in batches of
   ``batch_edges`` edges, sort each batch in memory, spill it as a
   sorted *run* (raw label pairs on disk, in the label dtype of the
   dataset's vertex count: ``uint32`` up to scale 32).
2. **K-way merge** — merge up to ``fan_in`` runs at a time using a
   vectorised boundary merge: each round reads one block per run, finds
   the smallest per-run block-maximum (the *safe boundary*), takes the
   buffered edges whose order is settled (see :func:`_merge_runs`),
   sorts them with :func:`~repro.sort.inmemory.sort_edges` and refills.
   More runs than ``fan_in`` triggers multi-pass merging.  The merge is
   stable: the output equals the in-memory ``sort_edges`` byte for byte,
   for labels of either label dtype.

Memory is bounded by ``O(batch_edges + fan_in * merge_block_edges)``
regardless of dataset size.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro._util import check_positive_int
from repro.core.shmplane import mapped_view
from repro.edgeio.dataset import EdgeDataset
from repro.labels import label_dtype
from repro.sort.inmemory import sort_edges, sorted_by


@dataclass(frozen=True)
class ExternalSortConfig:
    """Tuning parameters for the external sort.

    Attributes
    ----------
    batch_edges:
        Edges per in-memory run (phase 1 memory bound).
    fan_in:
        Maximum runs merged simultaneously (phase 2 width).
    merge_block_edges:
        Edges read per run per refill during merging.
    tmp_dir:
        Spill directory; defaults to a fresh ``tempfile.mkdtemp``.
    """

    batch_edges: int = 1 << 18
    fan_in: int = 16
    merge_block_edges: int = 1 << 15
    tmp_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        check_positive_int("batch_edges", self.batch_edges)
        check_positive_int("merge_block_edges", self.merge_block_edges)
        if self.fan_in < 2:
            raise ValueError(f"fan_in must be >= 2, got {self.fan_in}")


class _RunWriter:
    """Appends sorted edge blocks to a raw ``(u, v)``-pair file of
    ``dtype`` labels (every label of the dataset fits it)."""

    def __init__(self, path: Path, dtype: np.dtype) -> None:
        self.path = path
        self.dtype = dtype
        self._fh = open(path, "wb")
        self.num_edges = 0

    def append(self, u: np.ndarray, v: np.ndarray) -> None:
        stacked = np.empty((len(u), 2), dtype=self.dtype)
        stacked[:, 0], stacked[:, 1] = u, v
        stacked.tofile(self._fh)
        self.num_edges += len(u)

    def close(self) -> "_Run":
        self._fh.close()
        return _Run(self.path, self.num_edges, self.dtype)


@dataclass
class _Run:
    """A completed sorted run on disk."""

    path: Path
    num_edges: int
    dtype: np.dtype

    def delete(self) -> None:
        self.path.unlink(missing_ok=True)


class _RunReader:
    """Buffered block reader over a run file (memory-mapped).

    The run is sorted by ``u``, or by ``(u, v)`` when ``by_end_vertex``;
    :meth:`top` and :meth:`take` compare keys of that form.
    """

    def __init__(self, run: _Run, block_edges: int, by_end_vertex: bool) -> None:
        self.run = run
        self.block_edges = block_edges
        self.by_end_vertex = by_end_vertex
        self._stack = contextlib.ExitStack()
        if run.num_edges:
            self._mm = self._stack.enter_context(
                mapped_view(run.path, run.dtype, (run.num_edges, 2))
            )
        else:
            self._mm = np.empty((0, 2), dtype=run.dtype)
        self._cursor = 0
        self.buf_u = np.empty(0, dtype=run.dtype)
        self.buf_v = np.empty(0, dtype=run.dtype)

    def close(self) -> None:
        """Unmap the run file *now* — not at garbage collection.

        The merge deletes run files as soon as it finishes with them;
        under Windows-style strict unlink semantics that fails while a
        mapping is open.  ``refill`` copies every block out of the map,
        so nothing dangles.
        """
        self._mm = np.empty((0, 2), dtype=self.run.dtype)
        self._stack.close()

    def refill(self) -> None:
        """Top the buffer up with the next file block, if any."""
        if len(self.buf_u) > 0 or self._cursor >= self.run.num_edges:
            return
        end = min(self._cursor + self.block_edges, self.run.num_edges)
        block = np.asarray(self._mm[self._cursor:end])
        self._cursor = end
        self.buf_u = block[:, 0].copy()
        self.buf_v = block[:, 1].copy()

    def top(self) -> Tuple[int, ...]:
        """The key of the last buffered edge (the buffer's maximum)."""
        if self.by_end_vertex:
            return int(self.buf_u[-1]), int(self.buf_v[-1])
        return (int(self.buf_u[-1]),)

    def take(self, boundary: Tuple[int, ...], side: str) -> Tuple[np.ndarray, np.ndarray]:
        """Remove and return the buffered edges with key ``<= boundary``
        (``side="right"``) or ``< boundary`` (``side="left"``)."""
        if self.by_end_vertex:
            lo, hi = (int(np.searchsorted(self.buf_u, boundary[0], side=s))
                      for s in ("left", "right"))
            cut = lo + int(np.searchsorted(self.buf_v[lo:hi], boundary[1], side=side))
        else:
            cut = int(np.searchsorted(self.buf_u, boundary[0], side=side))
        take = (self.buf_u[:cut], self.buf_v[:cut])
        self.buf_u = self.buf_u[cut:]
        self.buf_v = self.buf_v[cut:]
        return take


def _merge_runs(
    runs: List[_Run],
    emit,
    *,
    block_edges: int,
    by_end_vertex: bool,
) -> None:
    """Merge sorted runs, calling ``emit(u, v)`` with ordered batches.

    Each round's boundary is the smallest buffered maximum.  Every edge
    below it is buffered; more edges *at* it may follow in a later block
    of a reader whose buffer ends there.  So the readers up to the first
    such one take their edges at the boundary and the later readers
    hold theirs back: ties leave in run order, and the stable
    :func:`sort_edges` of each batch makes the merge stable.
    """
    readers = [_RunReader(r, block_edges, by_end_vertex) for r in runs]
    try:
        while True:
            active = []
            for reader in readers:
                reader.refill()
                if len(reader.buf_u):
                    active.append(reader)
            if not active:
                break
            tops = [reader.top() for reader in active]
            boundary = min(tops)
            first = tops.index(boundary)
            parts = [reader.take(boundary, "right" if i <= first else "left")
                     for i, reader in enumerate(active)]
            cat_u = np.concatenate([pu for pu, _ in parts])
            cat_v = np.concatenate([pv for _, pv in parts])
            emit(*sort_edges(cat_u, cat_v, by_end_vertex=by_end_vertex))
    finally:
        # Unmap before the caller deletes the run files (strict-unlink
        # filesystems refuse to remove a mapped file).
        for reader in readers:
            reader.close()


def _merge_to_run(
    runs: List[_Run], path: Path, *, block_edges: int, by_end_vertex: bool
) -> _Run:
    """Merge ``runs`` into a single new run file."""
    writer = _RunWriter(path, runs[0].dtype)
    _merge_runs(runs, writer.append, block_edges=block_edges,
                by_end_vertex=by_end_vertex)
    merged = writer.close()
    for run in runs:
        run.delete()
    return merged


def external_sort_dataset(
    dataset: EdgeDataset,
    out_dir: Path,
    *,
    config: Optional[ExternalSortConfig] = None,
    num_shards: Optional[int] = None,
    by_end_vertex: bool = False,
) -> EdgeDataset:
    """Sort a dataset by start vertex without holding it in memory.

    Parameters
    ----------
    dataset:
        Input :class:`~repro.edgeio.dataset.EdgeDataset` (any order).
    out_dir:
        Directory for the sorted output dataset.
    config:
        :class:`ExternalSortConfig`; defaults used when omitted.
    num_shards:
        Output shard count; defaults to the input's shard count.
    by_end_vertex:
        Sort lexicographically by ``(u, v)`` instead of ``u`` only.

    Returns
    -------
    EdgeDataset
        The sorted dataset (same format and vertex base as the input).

    Notes
    -----
    Spill space is cleaned up on success and on failure; the output
    manifest is only written after the merge completes, so a crashed
    sort never yields a dataset that opens successfully.
    """
    config = config or ExternalSortConfig()
    num_shards = num_shards if num_shards is not None else dataset.num_shards
    check_positive_int("num_shards", num_shards)

    own_tmp = config.tmp_dir is None
    tmp_dir = Path(config.tmp_dir) if config.tmp_dir else Path(
        tempfile.mkdtemp(prefix="repro-extsort-")
    )
    tmp_dir.mkdir(parents=True, exist_ok=True)
    run_counter = 0
    runs: List[_Run] = []
    # iter_batches checks every label is below num_vertices.
    labels = label_dtype(dataset.num_vertices)
    try:
        # ---- Phase 1: run generation --------------------------------
        for u, v in dataset.iter_batches(config.batch_edges):
            su, sv = sort_edges(u, v, by_end_vertex=by_end_vertex)
            writer = _RunWriter(tmp_dir / f"run-{run_counter:06d}.bin", labels)
            writer.append(su, sv)
            runs.append(writer.close())
            run_counter += 1

        # ---- Phase 2: (multi-pass) k-way merge -----------------------
        while len(runs) > config.fan_in:
            next_runs: List[_Run] = []
            for group_start in range(0, len(runs), config.fan_in):
                group = runs[group_start:group_start + config.fan_in]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                merged = _merge_to_run(
                    group,
                    tmp_dir / f"run-{run_counter:06d}.bin",
                    block_edges=config.merge_block_edges,
                    by_end_vertex=by_end_vertex,
                )
                next_runs.append(merged)
                run_counter += 1
            runs = next_runs

        # ---- Final merge streamed into the output dataset ------------
        total = dataset.num_edges
        edges_per_shard = max(1, -(-total // num_shards)) if total else 1
        with EdgeDataset.stream_writer(
            out_dir,
            num_vertices=dataset.num_vertices,
            vertex_base=dataset.manifest.vertex_base,
            fmt=dataset.fmt,
            edges_per_shard=edges_per_shard,
            extra={"sorted_by": sorted_by(by_end_vertex),
                   "source": str(dataset.directory)},
        ) as writer:
            if runs:
                _merge_runs(
                    runs,
                    writer.append,
                    block_edges=config.merge_block_edges,
                    by_end_vertex=by_end_vertex,
                )
        return writer.result
    finally:
        for run in runs:
            run.delete()
        if own_tmp:
            shutil.rmtree(tmp_dir, ignore_errors=True)
