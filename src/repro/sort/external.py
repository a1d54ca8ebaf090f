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
plus the output shard being filled.  The output's shards are cut and
written as :meth:`EdgeDataset.write` writes them.  The ``streaming``
execution strategy runs Kernel 1 as this sort
(:func:`repro.core.executor.stream_sort`).
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro._util import Timings, check_positive_int
from repro.edgeio.dataset import EdgeDataset, shard_slices, write_shard
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
    """Buffered block reader over a run file.

    Blocks are read, not mapped: a merge that maps its runs holds every
    page it touched in the process's resident set until it unmaps.
    The run is sorted by ``u``, or by ``(u, v)`` when ``by_end_vertex``;
    :meth:`top` and :meth:`take` compare keys of that form.
    """

    def __init__(self, run: _Run, block_edges: int, by_end_vertex: bool) -> None:
        self.run = run
        self.block_edges = block_edges
        self.by_end_vertex = by_end_vertex
        self._fh = open(run.path, "rb")
        self._unread = run.num_edges
        self.buf_u = np.empty(0, dtype=run.dtype)
        self.buf_v = np.empty(0, dtype=run.dtype)

    def close(self) -> None:
        """Close the run file *now* — not at garbage collection: the
        merge deletes run files as soon as it finishes with them, which
        strict-unlink filesystems refuse while a file is open."""
        self._fh.close()

    def refill(self) -> None:
        """Top the buffer up with the next file block, if any."""
        if len(self.buf_u) > 0 or not self._unread:
            return
        count = min(self.block_edges, self._unread)
        block = np.fromfile(self._fh, dtype=self.run.dtype, count=2 * count)
        self._unread -= count
        block = block.reshape(count, 2)
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
    *,
    block_edges: int,
    by_end_vertex: bool,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Merge sorted runs, yielding ordered ``(u, v)`` batches; close the
    generator before deleting the runs.

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
            yield sort_edges(cat_u, cat_v, by_end_vertex=by_end_vertex)
    finally:
        # Close before the caller deletes the run files (strict-unlink
        # filesystems refuse to remove an open file).
        for reader in readers:
            reader.close()


def _merge_to_run(
    runs: List[_Run], path: Path, *, block_edges: int, by_end_vertex: bool
) -> _Run:
    """Merge ``runs`` into a single new run file."""
    writer = _RunWriter(path, runs[0].dtype)
    batches = _merge_runs(runs, block_edges=block_edges,
                          by_end_vertex=by_end_vertex)
    with contextlib.closing(batches):
        for u, v in batches:
            writer.append(u, v)
    merged = writer.close()
    for run in runs:
        run.delete()
    return merged


def _regroup(
    batches: Iterator[Tuple[np.ndarray, np.ndarray]],
    sizes: List[int],
    dtype: np.dtype,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Re-cut a stream of ``(u, v)`` batches into blocks of ``sizes``,
    each filled into its own allocation (no concatenated copy)."""
    u = v = np.empty(0, dtype)  # what the last batch has left
    for size in sizes:
        block_u, block_v = np.empty(size, dtype), np.empty(size, dtype)
        filled = 0
        while filled < size:
            if not len(u):
                u, v = next(batches)
            take = min(size - filled, len(u))
            block_u[filled:filled + take] = u[:take]
            block_v[filled:filled + take] = v[:take]
            u, v, filled = u[take:], v[take:], filled + take
        yield block_u, block_v


def external_sort_dataset(
    dataset: EdgeDataset,
    out_dir: Path,
    *,
    config: Optional[ExternalSortConfig] = None,
    num_shards: Optional[int] = None,
    by_end_vertex: bool = False,
    extra: Optional[Dict[str, object]] = None,
    timings: Optional[Timings] = None,
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
        Output shard count; defaults to the input's shard count.  The
        shards are cut as :meth:`EdgeDataset.write` cuts them, so the
        output's files equal those of the in-memory sort.
    by_end_vertex:
        Sort lexicographically by ``(u, v)`` instead of ``u`` only.
    extra:
        The output manifest's free-form fields; defaults to its order
        (``sorted_by``).
    timings:
        Gains ``run_formation`` (reading the input and spilling sorted
        runs), ``write`` (the output shard writes) and ``merge`` (every
        merge pass, less those writes).

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
    timings = timings if timings is not None else Timings()
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
        with timings.measure("run_formation"):
            for u, v in dataset.iter_batches(config.batch_edges):
                su, sv = sort_edges(u, v, by_end_vertex=by_end_vertex)
                writer = _RunWriter(tmp_dir / f"run-{run_counter:06d}.bin", labels)
                writer.append(su, sv)
                runs.append(writer.close())
                run_counter += 1

        # ---- Phase 2: (multi-pass) k-way merge -----------------------
        merge_started = time.perf_counter()
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

        # ---- Final merge, cut as EdgeDataset.write cuts shards ------
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        sizes = [end - start
                 for start, end in shard_slices(dataset.num_edges, num_shards)]
        writes = Timings()
        shards = []
        batches = _merge_runs(runs, block_edges=config.merge_block_edges,
                              by_end_vertex=by_end_vertex)
        with contextlib.closing(batches):
            for index, (u, v) in enumerate(_regroup(batches, sizes, labels)):
                with writes.measure("write"):
                    shards.append(write_shard(
                        out_dir, index, u, v, fmt=dataset.fmt,
                        vertex_base=dataset.manifest.vertex_base))
        timings.add("write", writes.total)
        merged_for = time.perf_counter() - merge_started
        timings.add("merge", max(0.0, merged_for - writes.total))
        return EdgeDataset.publish(
            out_dir, shards, num_vertices=dataset.num_vertices,
            vertex_base=dataset.manifest.vertex_base, fmt=dataset.fmt,
            extra=extra if extra is not None else {
                "sorted_by": sorted_by(by_end_vertex)},
        )
    finally:
        for run in runs:
            run.delete()
        if own_tmp:
            shutil.rmtree(tmp_dir, ignore_errors=True)
