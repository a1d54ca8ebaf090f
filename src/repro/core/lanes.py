"""Process lanes: offload GIL-bound codec work from the async executor.

The async executor's thread lanes only recover wall-clock where the
overlapped work releases the GIL — numpy kernels and file I/O do, but
the TSV codec's digit assembly holds it, so a thread encoding shard
``i+1`` steals exactly the cycles the K2 filter needed.  This module
supplies the missing lane kind: a :class:`ProcessLanePool` of
long-lived worker *processes* — the shared pipe-driven, crash-replacing
runtime of :mod:`repro.core.procpool`, configured with the codec op
table — that the :class:`~repro.core.scheduler.TaskGraph` dispatches
``lane="process"`` tasks to.

The contract is deliberately narrow:

* **Tasks are descriptors, not closures.**  A process-lane task's body
  returns a :class:`LaneTask` — an operation name from
  :data:`LANE_OPS` plus a payload dict — because a closure over live
  pipeline state cannot cross into a worker interpreter.  The
  ops themselves are tiny named wrappers over :mod:`repro.edgeio`
  (encode-and-write a shard, read-and-decode a shard), so a lane worker
  produces byte-identical files and arrays to in-process execution.
* **Only ``(op, payload)`` rides the pipe**, and an exception in a
  lane worker surfaces with its original type name
  (:class:`~repro.core.procpool.RemoteOpError`).  A worker that dies
  mid-op raises :class:`~repro.core.procpool.WorkerCrashError` on the
  dispatching thread, failing that one task; the scheduler's normal
  failure path drains the graph.

When offload pays: a lane ships the payload over the pipe (a pickled
label array copy, ~GB/s) to buy back the codec's GIL time (tens of
MB/s even vectorized).  That trade wins exactly when the op's compute
cost per byte exceeds the pipe's transfer cost per byte — true for TSV
encode/decode, false for ``npy`` shards (a raw buffer write), which is
why the async executor only marks TSV codec tasks as process-lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.procpool import ProcessPool, run_op

#: Lane kinds a task can be scheduled on (see TaskSpec.lane).
LANE_KINDS = ("thread", "process")

#: Default lane-worker process count for the async executor.
DEFAULT_LANE_WORKERS = 2


def _op_encode_shard(payload: Mapping[str, object]):
    """Encode one shard's arrays and write the file; returns ShardInfo."""
    from repro.edgeio.dataset import write_shard

    directory = Path(payload["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    return write_shard(
        directory,
        payload["index"],
        payload["u"],
        payload["v"],
        fmt=payload["fmt"],
        vertex_base=payload["vertex_base"],
    )


def _op_decode_shard(payload: Mapping[str, object]):
    """Read, check (against the write's ShardInfo) and decode a shard."""
    from repro.edgeio.dataset import read_shard_file

    return read_shard_file(
        Path(payload["path"]),
        payload["info"],
        fmt=payload["fmt"],
        vertex_base=payload["vertex_base"],
        num_vertices=payload["num_vertices"],
    )


def _op_encode_shard_shm(payload: Mapping[str, object]):
    """Zero-copy :func:`_op_encode_shard`: slice the source arrays out
    of a shared-memory :class:`~repro.core.shmplane.ShardBuffer` named
    in the payload instead of receiving them over the pipe.  Returns
    the same ShardInfo, byte-identical file."""
    from repro.core.shmplane import ShardBuffer
    from repro.edgeio.dataset import write_shard

    directory = Path(payload["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    buffer = ShardBuffer.attach(payload["shm"])
    try:
        u, v = buffer.arrays()
        start, end = payload["start"], payload["end"]
        info = write_shard(
            directory,
            payload["index"],
            u[start:end],
            v[start:end],
            fmt=payload["fmt"],
            vertex_base=payload["vertex_base"],
        )
        del u, v  # drop the views so close() can unmap now, not later
        return info
    finally:
        buffer.close()


def _op_decode_shard_shm(payload: Mapping[str, object]):
    """Zero-copy :func:`_op_decode_shard`: decode into a fresh
    shared-memory segment and return its *name* (ownership transfers
    to the attaching parent via
    :meth:`~repro.core.shmplane.ShardBuffer.export`)."""
    from repro.core.shmplane import ShardBuffer

    return ShardBuffer.create(*_op_decode_shard(payload)).export()


#: Operations a lane worker can execute.  Module-level (not captured
#: closures) so a worker unpickles them by reference.
LANE_OPS: Dict[str, Callable[[Mapping[str, object]], object]] = {
    "encode-shard": _op_encode_shard,
    "decode-shard": _op_decode_shard,
    "encode-shard-shm": _op_encode_shard_shm,
    "decode-shard-shm": _op_decode_shard_shm,
}


@dataclass(frozen=True)
class LaneTask:
    """A process-lane work item: an op name plus its payload.

    Returned by a ``lane="process"`` task's body; the scheduler ships
    it to the lane pool (or runs it in-place via :func:`run_lane_op`
    when no pool is attached, e.g. ``npy`` runs or debugging).

    ``post`` is a **parent-only** hook: the scheduler applies it to the
    op's raw result after dispatch (e.g. attaching a shared-memory
    segment a ``decode-shard-shm`` op created).  It never crosses the
    pipe — only ``op`` and ``payload`` do — so it may close over live
    pipeline state.
    """

    op: str
    payload: Mapping[str, object]
    post: Optional[Callable[[object], object]] = None


def run_lane_op(op: str, payload: Mapping[str, object]) -> object:
    """Execute one lane op in this process (the in-thread fallback)."""
    return run_op(LANE_OPS, op, payload)


class ProcessLanePool(ProcessPool):
    """:class:`~repro.core.procpool.ProcessPool` serving :data:`LANE_OPS`.

    The workers import numpy, the edgeio stack and the shm plane before
    serving, so no op's busy time — which the scheduler attributes to a
    kernel — includes that start-up; the async executor hides it behind
    the K0 generate task with ``prestart(block=False)``.  A worker whose
    parent died without ``shutdown`` reads EOF on its pipe and exits.
    """

    def __init__(self, workers: int = DEFAULT_LANE_WORKERS) -> None:
        super().__init__(
            workers, LANE_OPS, name="lane",
            warm=("repro.core.shmplane", "repro.edgeio.dataset"),
        )

    def run_task(self, task: LaneTask) -> object:
        """Dispatch a :class:`LaneTask` descriptor."""
        return self.run(task.op, task.payload)

    def run_task_timed(self, task: LaneTask) -> Tuple[object, float]:
        """Dispatch a descriptor, returning ``(result, queue_wait)``
        (the scheduler hook — see :meth:`ProcessPool.run_timed`)."""
        return self.run_timed(task.op, task.payload)
