"""Out-of-core Kernel 2: build the filtered matrix from a sorted dataset
without materialising the raw edge list in memory.

The paper notes Kernel 2 can be "IO limited … memory limited … or
network limited" depending on scale; this module addresses the memory
axis.  Because Kernel 1 sorted the edges by start vertex, Kernel 2 can
stream:

* **pass 1** — stream batches, deduplicate within each batch (safe: a
  duplicate pair can only span batches at a row boundary, handled by
  carrying each batch's last row into the next), accumulate the
  in-degree vector and spill deduplicated ``(row, col, count)`` records
  to a binary scratch file;
* **decide** — compute the elimination mask from the full in-degree;
* **pass 2** — stream the scratch records, drop eliminated columns,
  count the rows' surviving entries and assemble the CSR, then scale
  each row by its inverse out-degree in place.

Peak memory is O(batch + N) instead of O(M + N).
"""

from __future__ import annotations

import queue
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro._util import Timings, check_positive_int
from repro.core import trace
from repro.core.config import DEFAULT_STREAMING_BATCH_EDGES
from repro.core.shmplane import mapped_view
from repro.edgeio.dataset import EdgeDataset
from repro.labels import NARROW
from repro.sort.inmemory import collapse_duplicates, elimination_masks


@dataclass(frozen=True)
class StreamingKernel2Result:
    """Output of the streaming Kernel 2.

    Attributes
    ----------
    matrix:
        Row-normalised CSR matrix (same value as the in-memory path).
    pre_filter_entry_total:
        Sum of adjacency counts before elimination (must equal ``M``).
        Also the count of edge records ingested in pass 1 (each input
        edge contributes 1 to exactly one accumulated count).
    eliminated_columns:
        Number of zeroed columns (super-node + leaves).
    batches:
        Batches streamed in pass 1 (instrumentation).
    unique_triples:
        Deduplicated ``(row, col, count)`` triples spilled by pass 1 and
        re-read by pass 2 — the actual matrix-assembly work, which batch
        deduplication makes smaller than ``M``.
    phases:
        Seconds per phase: ``ingest`` (reading batches), ``dedup``
        (pass-1 compute), ``spill`` (pass-1 writes), ``decide``,
        ``pass2`` (filter + CSR assembly), ``normalize``.  With
        ``overlap_io`` the first three are per-lane busy times that ran
        concurrently, so the sum is busy time, not wall-clock.
    io_overlap:
        Present only when ``overlap_io=True``: per-role busy seconds
        (``ingest`` read, ``compute`` dedup, ``spill`` write, serial
        ``tail``), the pass-1/total wall-clock, and the wall-clock the
        overlap recovered (``busy - wall``).  The matrix is bit-identical
        either way — overlap changes scheduling, never values.
    """

    matrix: sp.csr_matrix
    pre_filter_entry_total: float
    eliminated_columns: int
    batches: int
    unique_triples: int = 0
    phases: Dict[str, float] = field(default_factory=dict)
    io_overlap: Optional[Dict[str, float]] = None


#: One spilled triple.  Rows and columns stay integers and counts stay
#: float64 end to end, so pass 2 reads each field back without a cast.
#: The record layout is fixed, so rows and columns are int64 whatever
#: the labels' dtype (the spill is a scratch file, not an artifact).
_SPILL_DTYPE = np.dtype(
    [("row", np.int64), ("col", np.int64), ("count", np.float64)]
)

_BACKWARD_ROW = (
    "streaming_kernel2 requires input sorted by start vertex "
    "(kernel 1 output); found a backward row"
)


def _join(head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    return np.concatenate([head, tail]) if len(head) else tail


def _stream_dedup(
    batches: Iterable[Tuple[np.ndarray, np.ndarray]]
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield deduplicated (rows, cols, counts) runs in row order.

    Ties in ``u`` may appear in any ``v`` order, so each batch is
    ordered and run-collapsed on its own — O(batch), not O(M log M).
    The final row of each batch is held back as a carry: input is
    sorted by row, so it is the only row whose duplicates can continue
    in the next batch.  That batch's entries of the carried row (a
    prefix of its collapsed output) are merged into the carry — two
    sorted column runs, one stable merge — and nothing else of the
    batch is touched again.  ``batches`` is any ``(u, v)`` iterable — a
    dataset's :meth:`iter_batches` or a hand-off queue fed by a
    background reader thread.
    """
    carry_u = carry_v = np.empty(0, dtype=NARROW)  # never joined while empty
    carry_c = np.empty(0, dtype=np.float64)
    for u, v in batches:
        if len(u) > 1 and np.any(u[1:] < u[:-1]):
            raise ValueError(_BACKWARD_ROW + " within a batch")
        du, dv, dc = collapse_duplicates(u, v)
        if len(du) == 0:
            continue
        merged = 0  # leading entries of this batch that belong to the carry
        if len(carry_u):
            row = carry_u[0]
            if du[0] < row:
                raise ValueError(_BACKWARD_ROW)
            merged = int(np.searchsorted(du, row, side="right"))
        if merged:
            cols = np.concatenate([carry_v, dv[:merged]])
            counts = np.concatenate([carry_c, dc[:merged]])
            order = np.argsort(cols, kind="stable")
            cols, counts = cols[order], counts[order]
            first = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
            carry_v, carry_c = cols[first], np.add.reduceat(counts, first)
            carry_u = np.full(len(first), row)
            if merged == len(du):
                continue  # the carried row is still open
        # The carried row is complete; so is every row of this batch
        # but its last, which becomes the next carry.
        boundary = int(np.searchsorted(du, du[-1], side="left"))
        if len(carry_u) or boundary:
            yield (
                _join(carry_u, du[merged:boundary]),
                _join(carry_v, dv[merged:boundary]),
                _join(carry_c, dc[merged:boundary]),
            )
        carry_u, carry_v, carry_c = du[boundary:], dv[boundary:], dc[boundary:]
    if len(carry_u):
        yield carry_u, carry_v, carry_c


class _Pass1State:
    """Accumulator shared by the serial and pipelined pass-1 drivers."""

    __slots__ = ("din", "total", "batches", "triples")

    def __init__(self, n: int) -> None:
        self.din = np.zeros(n, dtype=np.float64)
        self.total = 0.0
        self.batches = 0
        self.triples = 0

    def absorb(self, rows, cols, counts) -> np.ndarray:
        """Fold one dedup run into the accumulators; return spill block."""
        self.din += np.bincount(cols, weights=counts, minlength=len(self.din))
        self.total += counts.sum()
        block = np.empty(len(rows), dtype=_SPILL_DTYPE)
        block["row"] = rows
        block["col"] = cols
        block["count"] = counts
        self.triples += len(rows)
        self.batches += 1
        return block


def _timed(batches, timing: Dict[str, float], key: str):
    """Iterate ``batches``, adding the time each ``next`` takes to
    ``timing[key]`` — what the consumer spent waiting on its source."""
    timing.setdefault(key, 0.0)
    iterator = iter(batches)
    while True:
        t0 = time.perf_counter()
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            timing[key] += time.perf_counter() - t0
        yield item


def _pass1_serial(
    batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    spill_path: Path,
    n: int,
    timing: Dict[str, float],
) -> _Pass1State:
    """The original single-threaded pass 1: read, dedup, spill in turn."""
    state = _Pass1State(n)
    spill_seconds = 0.0
    wall0 = time.perf_counter()
    with open(spill_path, "wb") as spill:
        for rows, cols, counts in _stream_dedup(
            _timed(batches, timing, "ingest_seconds")
        ):
            block = state.absorb(rows, cols, counts)
            t0 = time.perf_counter()
            block.tofile(spill)
            spill_seconds += time.perf_counter() - t0
    timing["spill_seconds"] = spill_seconds
    timing["pass1_wall_seconds"] = time.perf_counter() - wall0
    timing["compute_seconds"] = (
        timing["pass1_wall_seconds"] - timing["ingest_seconds"] - spill_seconds
    )
    return state


def _queue_put(q: "queue.Queue", item, cancel: threading.Event) -> bool:
    """Bounded put that aborts (returning False) once ``cancel`` is set."""
    while not cancel.is_set():
        try:
            q.put(item, timeout=0.05)
            return True
        except queue.Full:
            continue
    return False


def _pass1_pipelined(
    batches: Iterable[Tuple[np.ndarray, np.ndarray]],
    spill_path: Path,
    n: int,
    timing: Dict[str, float],
) -> _Pass1State:
    """Pass 1 with ingest/compute/spill on three overlapped lanes.

    A reader thread streams ``(u, v)`` batches into a bounded hand-off
    queue, the calling thread runs the dedup/in-degree compute, and a
    writer thread drains spill blocks to disk.  FIFO queues and a single
    writer preserve the exact byte order of the serial path, so the
    result is bit-identical; only the wall-clock changes.  ``timing``
    receives per-lane busy seconds (read/compute/write) measured around
    the work itself, with queue blocking excluded.
    """
    in_q: "queue.Queue" = queue.Queue(maxsize=4)
    out_q: "queue.Queue" = queue.Queue(maxsize=4)
    cancel = threading.Event()
    reader_error: list = []
    writer_error: list = []

    def _reader() -> None:
        try:
            for batch in _timed(batches, timing, "ingest_seconds"):
                if not _queue_put(in_q, batch, cancel):
                    return
        except BaseException as exc:  # noqa: BLE001 - re-raised by consumer
            reader_error.append(exc)
        finally:
            _queue_put(in_q, None, cancel)

    def _writer() -> None:
        busy = 0.0
        try:
            with open(spill_path, "wb") as spill:
                while True:
                    block = out_q.get()
                    if block is None:
                        return
                    t0 = time.perf_counter()
                    block.tofile(spill)
                    busy += time.perf_counter() - t0
        except BaseException as exc:  # noqa: BLE001 - re-raised by producer
            writer_error.append(exc)
            cancel.set()
        finally:
            timing["spill_seconds"] = busy

    def _batches_from_queue() -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        while True:
            try:
                item = in_q.get(timeout=0.05)
            except queue.Empty:
                # A dead writer sets ``cancel`` and the reader then
                # gives up without delivering its end-of-stream
                # marker; surface the failure instead of waiting
                # for a batch that will never come.
                if cancel.is_set():
                    if writer_error:
                        raise writer_error[0]
                    raise RuntimeError(
                        "streaming pass 1 cancelled mid-ingest"
                    )
                continue
            if item is None:
                if reader_error:
                    raise reader_error[0]
                return
            yield item

    timing["wait_spill_seconds"] = 0.0
    state = _Pass1State(n)
    reader = threading.Thread(target=_reader, name="k2-ingest", daemon=True)
    writer = threading.Thread(target=_writer, name="k2-spill", daemon=True)
    wall0 = time.perf_counter()
    reader.start()
    writer.start()
    try:
        for rows, cols, counts in _stream_dedup(
            _timed(_batches_from_queue(), timing, "wait_ingest_seconds")
        ):
            block = state.absorb(rows, cols, counts)
            t0 = time.perf_counter()
            delivered = _queue_put(out_q, block, cancel)
            timing["wait_spill_seconds"] += time.perf_counter() - t0
            if not delivered:
                break  # writer failed; its error is raised below
    except BaseException:
        cancel.set()
        raise
    finally:
        # Deliver the writer's end-of-stream marker even when ``cancel``
        # is set (the writer keeps draining until it sees it); skip only
        # when the writer itself is gone — then nobody will consume it.
        while writer.is_alive():
            try:
                out_q.put(None, timeout=0.05)
                break
            except queue.Full:
                continue
        reader.join()
        writer.join()
        timing["pass1_wall_seconds"] = time.perf_counter() - wall0
    if writer_error:
        raise writer_error[0]
    if reader_error:
        raise reader_error[0]
    timing["compute_seconds"] = (
        timing["pass1_wall_seconds"]
        - timing["wait_ingest_seconds"]
        - timing["wait_spill_seconds"]
    )
    return state


def streaming_kernel2(
    dataset: EdgeDataset,
    *,
    batch_edges: int = DEFAULT_STREAMING_BATCH_EDGES,
    scratch_dir: Optional[Path] = None,
    overlap_io: bool = False,
) -> StreamingKernel2Result:
    """Run Kernel 2 with memory bounded by ``O(batch_edges + N)``.

    Parameters
    ----------
    dataset:
        Kernel 1 output — **must** be sorted by start vertex (verified
        streamingly; a violation raises ``ValueError``).
    batch_edges:
        Pass-1 batch size (the memory knob).  The result does not depend
        on it: deduplication emits only completed rows (boundary rows
        ride the carry buffer) and every accumulator sums
        integer-valued float64 counts, which is exact.
    scratch_dir:
        Where the deduplicated spill file lives; a temp dir by default.
    overlap_io:
        Run pass 1 with ingest, dedup, and spill on overlapped lanes
        (reader/writer threads plus bounded hand-off queues).  The
        result is bit-identical; :attr:`StreamingKernel2Result.io_overlap`
        then reports per-lane busy time and the wall-clock recovered.

    Returns
    -------
    StreamingKernel2Result
        Matching the in-memory Kernel 2 output exactly (asserted by the
        integration tests).

    Examples
    --------
    >>> # see tests/integration/test_streaming_kernel2.py
    """
    check_positive_int("batch_edges", batch_edges)
    n = dataset.num_vertices

    own_scratch = scratch_dir is None
    scratch = Path(scratch_dir) if scratch_dir else Path(
        tempfile.mkdtemp(prefix="repro-streamk2-")
    )
    scratch.mkdir(parents=True, exist_ok=True)
    spill_path = scratch / "dedup.bin"

    try:
        # ---- pass 1: dedup + in-degree + spill ----------------------
        batches = dataset.iter_batches(batch_edges)
        timing: Dict[str, float] = {}
        with trace.span("k2:pass1", cat="k2") as pass1_span:
            if overlap_io:
                state = _pass1_pipelined(batches, spill_path, n, timing)
            else:
                state = _pass1_serial(batches, spill_path, n, timing)
            pass1_span.set(batches=state.batches, triples=state.triples)
        din = state.din
        triples = state.triples
        phases = Timings({
            "ingest": timing["ingest_seconds"],
            "dedup": timing["compute_seconds"],
            "spill": timing["spill_seconds"],
        })
        tail0 = time.perf_counter()

        # ---- decide elimination -------------------------------------
        with phases.measure("decide"):
            supernode, leaf = elimination_masks(din)
            eliminate = supernode | leaf

        # ---- pass 2: filter + assemble CSR --------------------------
        indptr = np.zeros(n + 1, dtype=np.int64)
        kept_cols = []
        kept_vals = []
        with phases.measure("pass2"), trace.span(
            "k2:pass2", cat="k2", triples=triples
        ):
            if triples:
                with mapped_view(spill_path, _SPILL_DTYPE, (triples,)) as mm:
                    for cursor in range(0, triples, batch_edges):
                        block = mm[cursor:cursor + batch_edges]
                        # Mask-indexing copies the kept entries out of
                        # the mapping, so they outlive the unmap below
                        # (the spill file is deleted right after this
                        # pass, which strict-unlink filesystems refuse
                        # while mapped).
                        keep = ~eliminate[block["col"]]
                        rows = block["row"][keep]
                        indptr[1:] += np.bincount(rows, minlength=n)
                        kept_cols.append(block["col"][keep])
                        kept_vals.append(block["count"][keep])
            col_idx = (np.concatenate(kept_cols) if kept_cols
                       else np.empty(0, dtype=np.int64))
            values = (np.concatenate(kept_vals) if kept_vals
                      else np.empty(0, dtype=np.float64))
            np.cumsum(indptr, out=indptr)
            matrix = sp.csr_matrix((values, col_idx, indptr), shape=(n, n))

        # ---- normalise rows in place --------------------------------
        # One product per entry, inv[row] * count: the products of
        # diags(inv) @ matrix, without the sparse mat-mat and with each
        # row's column order kept.
        with phases.measure("normalize"):
            dout = np.asarray(matrix.sum(axis=1)).ravel()
            inv = np.ones(n)
            nonzero = dout > 0
            inv[nonzero] = 1.0 / dout[nonzero]
            matrix.data *= np.repeat(inv, np.diff(matrix.indptr))

        io_overlap: Optional[Dict[str, float]] = None
        if overlap_io:
            # The decide/pass-2 tail runs serially (busy == wall); the
            # recovered wall-clock is entirely a pass-1 property.
            tail_seconds = time.perf_counter() - tail0
            busy = (
                timing["ingest_seconds"] + timing["compute_seconds"]
                + timing["spill_seconds"] + tail_seconds
            )
            wall = timing["pass1_wall_seconds"] + tail_seconds
            io_overlap = dict(timing)
            io_overlap["tail_seconds"] = tail_seconds
            io_overlap["busy_seconds"] = busy
            io_overlap["wall_seconds"] = wall
            io_overlap["overlap_saved_seconds"] = busy - wall

        return StreamingKernel2Result(
            matrix=matrix,
            pre_filter_entry_total=float(state.total),
            eliminated_columns=int(eliminate.sum()),
            batches=state.batches,
            unique_triples=triples,
            phases=phases.as_dict(),
            io_overlap=io_overlap,
        )
    finally:
        spill_path.unlink(missing_ok=True)
        if own_scratch:
            import shutil

            shutil.rmtree(scratch, ignore_errors=True)
