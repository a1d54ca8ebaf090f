"""The communicator and its launcher.

:class:`Communicator` is deliberately shaped like the mpi4py lower-case
object API (the standard Python HPC idiom) so the rank programs in
:mod:`repro.parallel.kernels` read like MPI code and could be ported to
real MPI directly.  Payloads are numpy arrays or picklable scalars;
reductions operate elementwise, in rank order.

There is one implementation.  Point-to-point messages travel over one
queue per ordered rank pair; every collective is one *hub round* — all
ranks hand their contribution to rank 0, rank 0 assembles the
rank-ordered list into one result per rank and fans the results back
out.  That star is also the *naive* algorithm the traffic model
charges for (star reduce + star broadcast), matching the "simple models
of the hardware" the paper uses for performance prediction.  Vendors'
tree/ring algorithms move fewer bytes; the model is an upper bound with
the right asymptotics.

The communicator knows nothing about its transport beyond "a set of
queues and an abort flag" (:class:`Channels`).
:func:`run_rank_programs` builds them from ``queue``/``threading`` and
starts the ranks as threads (deterministic, debuggable, no compute
parallelism under the GIL), or from a ``multiprocessing`` context and
starts them as processes (true CPU parallelism): thread ranks hand each
other object references, process ranks pickle, and nothing else
differs.  Every blocking ``get`` polls the abort flag, which the
launcher sets as soon as one rank fails or the group times out, so a
failure surfaces as that rank's error instead of a hang.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.traffic import TrafficLog

#: Reduction operators accepted by :meth:`Communicator.allreduce`.
REDUCE_OPS = {
    "sum": np.add,
    "max": np.maximum,
    "min": np.minimum,
}

#: How often a blocked ``get`` looks at the abort flag (an arriving
#: message wakes it at once; this only bounds the abort latency).
_POLL_SECONDS = 0.02
#: How long the launcher waits for ranks to exit once it has every
#: result or has aborted the group.
_GRACE_SECONDS = 1.0


def payload_nbytes(value: Any) -> int:
    """Approximate wire size of a payload in bytes."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bool, np.bool_)):
        return 1
    if isinstance(value, (int, np.integer, float, np.floating)):
        return 8
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(payload_nbytes(v) for v in value)
    return 64  # conservative default for other picklables


@dataclass
class Channels:
    """One group's transport: queues plus the abort flag.

    The queues need ``put(item)`` and ``get(timeout=)`` raising
    :class:`queue.Empty`; the flag needs ``set()`` and ``is_set()``.
    ``queue.Queue``/``threading.Event`` and a multiprocessing context's
    ``Queue``/``Event`` both qualify.
    """

    #: ``pairs[src, dst]`` carries ``send``/``recv`` payloads.
    pairs: Dict[Tuple[int, int], Any]
    #: Every rank's collective contribution, to rank 0.
    to_hub: Any
    #: ``from_hub[rank]`` carries rank 0's assembled result back.
    from_hub: List[Any]
    abort: Any


class Communicator:
    """Rank-local handle to a communication group of ``size`` ranks.

    Collectives must be called by every rank of the group, in the same
    order.  Each is logged once, by rank 0, under the naive star model.
    """

    def __init__(self, rank: int, size: int, channels: Channels) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} outside [0, {size})")
        self.rank = rank
        self.size = size
        #: This rank's own events; the launcher merges the ranks' logs.
        self.traffic = TrafficLog()
        self._channels = channels

    def _get(self, source: Any) -> Any:
        """Blocking ``get`` that gives up once the group is aborted."""
        while True:
            try:
                return source.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if self._channels.abort.is_set():
                    raise RuntimeError(
                        f"rank {self.rank} gave up waiting: the group was aborted"
                    ) from None

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def send(self, dest: int, payload: Any) -> None:
        """Send a payload to ``dest`` (non-blocking buffered semantics)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} outside [0, {self.size})")
        self.traffic.record("send", payload_nbytes(payload), 1, self.rank)
        self._channels.pairs[self.rank, dest].put(payload)

    def recv(self, source: int) -> Any:
        """Receive the next payload from ``source`` (blocking)."""
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} outside [0, {self.size})")
        return self._get(self._channels.pairs[source, self.rank])

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------
    def _hub_round(self, op: str, value: Any,
                   assemble: Callable[[List[Any]], List[Any]]) -> Any:
        """One gather-to-hub / fan-out round.

        ``assemble`` runs on rank 0 only, over the rank-ordered
        contribution list, and returns one result per rank; being the
        one place that sees the whole round, it also logs it.
        """
        channels = self._channels
        if self.rank != 0:
            channels.to_hub.put((self.rank, op, value))
            return self._get(channels.from_hub[self.rank])
        contributions: List[Any] = [value] + [None] * (self.size - 1)
        for _ in range(self.size - 1):
            src, src_op, payload = self._get(channels.to_hub)
            if src_op != op:
                raise RuntimeError(
                    f"collective mismatch at hub: expected {op!r}, "
                    f"rank {src} sent {src_op!r}"
                )
            contributions[src] = payload
        results = assemble(contributions)
        for dest in range(1, self.size):
            channels.from_hub[dest].put(results[dest])
        return results[0]

    def barrier(self) -> None:
        """Block until every rank reaches the barrier."""
        self._hub_round("barrier", None, lambda arrived: [None] * self.size)

    def bcast(self, payload: Any, root: int = 0) -> Any:
        """Broadcast ``payload`` from ``root`` to every rank."""
        if not 0 <= root < self.size:
            raise ValueError(f"root {root} outside [0, {self.size})")
        peers = self.size - 1

        def assemble(offered: List[Any]) -> List[Any]:
            nbytes = payload_nbytes(offered[root])
            self.traffic.record("bcast", nbytes * peers, peers, 0)
            return [offered[root]] * self.size

        return self._hub_round(
            "bcast", payload if self.rank == root else None, assemble
        )

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Elementwise reduction of every rank's value, result everywhere."""
        try:
            ufunc = REDUCE_OPS[op]
        except KeyError:
            raise ValueError(
                f"unknown reduce op {op!r}; expected one of {sorted(REDUCE_OPS)}"
            ) from None
        peers = self.size - 1

        def assemble(values: List[Any]) -> List[Any]:
            result = values[0]
            for other in values[1:]:
                result = ufunc(result, other)
            nbytes = payload_nbytes(value)
            self.traffic.record("allreduce", 2 * nbytes * peers, 2 * peers, 0)
            return [result] * self.size

        result = self._hub_round("allreduce", value, assemble)
        # Thread ranks all hold the hub's array; hand each its own.
        return result.copy() if isinstance(result, np.ndarray) else result

    def allgather(self, value: Any) -> List[Any]:
        """Gather every rank's value, returned as a rank-ordered list."""
        peers = self.size - 1

        def assemble(values: List[Any]) -> List[Any]:
            nbytes = payload_nbytes(values)
            self.traffic.record("allgather", nbytes * peers, self.size * peers, 0)
            return [list(values) for _ in range(self.size)]

        return self._hub_round("allgather", value, assemble)

    def alltoall(self, payloads: List[Any]) -> List[Any]:
        """Personalised exchange: ``payloads[d]`` goes to rank ``d``;
        returns the list of payloads received, indexed by source."""
        if len(payloads) != self.size:
            raise ValueError(
                f"alltoall needs {self.size} payloads, got {len(payloads)}"
            )
        ranks = range(self.size)

        def assemble(matrix: List[List[Any]]) -> List[Any]:
            nbytes = sum(  # the diagonal stays on its rank
                payload_nbytes(matrix[s][d]) for s in ranks for d in ranks if s != d
            )
            self.traffic.record("alltoall", nbytes, self.size * (self.size - 1), 0)
            return [[matrix[s][d] for s in ranks] for d in ranks]

        return self._hub_round("alltoall", payloads, assemble)


def _run_rank(program: Callable[..., Any], rank: int, size: int,
              channels: Channels, outbox: Any, args: tuple) -> None:
    """Body of one rank thread/process: run, then report to the launcher."""
    comm = Communicator(rank, size, channels)
    try:
        report = (True, program(comm, *args))
    except BaseException as exc:  # noqa: BLE001 - re-raised by the launcher
        report = (False, repr(exc))
    outbox.put((rank, *report, comm.traffic.records))


def run_rank_programs(
    program: Callable[..., Any],
    size: int,
    *args: Any,
    processes: bool = False,
    traffic: Optional[TrafficLog] = None,
    timeout: float = 300.0,
) -> List[Any]:
    """Run ``program(comm, *args)`` on ``size`` ranks.

    Parameters
    ----------
    program:
        Rank program; receives a :class:`Communicator` as its first
        argument.  All ranks get the same ``*args``.
    size:
        Number of ranks.
    processes:
        ``False`` runs the ranks as threads of this process, ``True`` as
        forked OS processes (results must then be picklable).
    traffic:
        Optional log that receives every rank's traffic records, in
        rank order, once all ranks have finished.
    timeout:
        Longest wait for the next rank to finish; a deadlocked group
        raises rather than hanging the caller.

    Returns
    -------
    list
        Rank-ordered return values.

    Raises
    ------
    RuntimeError
        Naming the first rank that raised and its exception, or the
        ranks still running when the wait timed out (likely a
        collective mismatch or deadlock).  Either way the abort flag is
        set, so ranks blocked on a message wake and exit.

    Examples
    --------
    >>> run_rank_programs(lambda comm: float(comm.allreduce(comm.rank)), 3)
    [3.0, 3.0, 3.0]
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if processes:
        ctx = multiprocessing.get_context("fork")
        make_queue, make_event, make_worker = ctx.Queue, ctx.Event, ctx.Process
    else:
        make_queue, make_event, make_worker = (
            queue.Queue, threading.Event, threading.Thread
        )
    channels = Channels(
        pairs={(src, dst): make_queue()
               for src in range(size) for dst in range(size)},
        to_hub=make_queue(),
        from_hub=[make_queue() for _ in range(size)],
        abort=make_event(),
    )
    outbox = make_queue()
    workers = [
        make_worker(
            target=_run_rank,
            args=(program, rank, size, channels, outbox, args),
            name=f"rank-{rank}",
        )
        for rank in range(size)
    ]
    for worker in workers:
        worker.start()

    finished: Dict[int, Tuple[Any, list]] = {}
    failure: Optional[str] = None
    try:
        while len(finished) < size and failure is None:
            rank, ok, payload, records = outbox.get(timeout=timeout)
            if ok:
                finished[rank] = (payload, records)
            else:
                failure = f"rank {rank} failed: {payload}"
    except queue.Empty:
        failure = (
            f"ranks {sorted(set(range(size)) - set(finished))} deadlocked "
            f"or timed out (no rank finished for {timeout:g} s)"
        )
    finally:
        # Ranks blocked on a message wake, report to nobody and exit; a
        # process rank busy (or stuck) elsewhere is not waited for.
        channels.abort.set()
        deadline = time.monotonic() + _GRACE_SECONDS
        for worker in workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
            if processes and worker.is_alive():
                worker.terminate()
                worker.join(timeout=_GRACE_SECONDS)
    if failure is not None:
        raise RuntimeError(failure)
    if traffic is not None:
        for rank in range(size):
            traffic.extend(finished[rank][1])
    return [finished[rank][0] for rank in range(size)]
