"""The process-worker runtime: one pipe-driven pool of long-lived workers.

Process lanes (:class:`repro.core.lanes.ProcessLanePool`) and service
process workers (:class:`repro.service.pool.ProcessWorkerPool`) are two
configurations of the one :class:`ProcessPool` here; they differ only
in op table, daemon flag, warm imports and name.

* **Protocol.**  The parent sends ``("run", op, payload, want_trace)``,
  ``("ping",)`` or ``("shutdown",)``; the worker (:func:`serve`)
  replies ``("ok", result, span_docs)``, ``("ok", "pong", clock)`` or
  ``("error", type_name, message)``.  Exceptions never cross the pipe
  as pickles — only their type name and message
  (:class:`RemoteOpError`) — so an unpicklable error cannot poison the
  parent and a failure reads the same wherever the op ran.
* **Tokens.**  The idle queue holds one token per slot: a live
  :class:`WorkerHandle`, or ``None`` meaning "spawn lazily on first
  use" (a pool nobody dispatches to never pays for an interpreter).
  Every checkout ends in exactly one checkin, which returns the handle
  or, for a worker whose state is unknown, kills it and returns
  ``None``.
* **Crash means replace.**  A worker that dies mid-op raises
  :class:`WorkerCrashError` on the dispatching thread and its slot
  respawns on next use; one that died idle is found at checkout.
  Either way it is counted once in :meth:`ProcessPool.stats`.
"""

from __future__ import annotations

import importlib
import multiprocessing
import queue
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro._util.heap import keep_heap
from repro.core import trace

#: An op table: name -> ``fn(payload)``.  The functions must be
#: module-level so a ``spawn``-started worker resolves them by name.
OpTable = Mapping[str, Callable[[object], object]]


class WorkerCrashError(RuntimeError):
    """A worker died (or was terminated) mid-job, or could not start."""


class RemoteOpError(RuntimeError):
    """An op raised inside a worker.

    Reads ``"{type}: {message}"`` and carries the original type name,
    so failures are worded the same whether the op ran in-process, in a
    worker process or on a remote agent.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type


def run_op(ops: OpTable, op: str, payload: object) -> object:
    """Look ``op`` up in ``ops`` and run it (worker body and in-thread
    fallback)."""
    try:
        fn = ops[op]
    except KeyError:
        raise ValueError(
            f"unknown op {op!r}; known: {sorted(ops)}"
        ) from None
    return fn(payload)


def serve(conn, ops: OpTable, warm: Sequence[str], name: str) -> None:
    """Worker process loop: serve requests until shutdown or EOF.

    SIGINT is ignored: a terminal ``^C`` signals the whole foreground
    process group, and the *pool* owns shutdown (terminate → EOF →
    :class:`WorkerCrashError`, which the service retries).  A
    KeyboardInterrupt that slips through anyway (or SystemExit) kills
    the worker instead of being marshalled — work interrupted by
    shutdown must never be recorded as if its own code raised.  A dead
    parent reads as EOF, so workers cannot outlive it.

    Before it answers anything the worker imports ``warm``: every module
    its ops load on first use, not only those unpickling ``ops`` loads
    (an op table's module may keep its heavy imports inside the op, so
    that the parent holding it stays light).
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # Lane ops and service jobs allocate like the kernels they run: the
    # same heap policy as run_pipeline, set before any op allocates.
    keep_heap()
    # Warm the ops' import graph before serving: a fresh interpreter
    # would otherwise pay it inside the first op, whose time the caller
    # attributes to that op.  The start-up ping blocks until this is done.
    # Only what ``warm`` names is warmed, so it must cover the ops' lazy
    # imports too.
    for module in warm:
        importlib.import_module(module)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent died or closed the pipe
        if not message or message[0] == "shutdown":
            break
        try:
            if message[0] == "ping":
                # The worker's clock reading lets the parent compute a
                # clock offset (see repro.core.trace.clock_offset).
                reply = ("ok", "pong", time.perf_counter())
            else:
                _, op, payload, want_trace = message
                # Raw-clock spans; the parent re-anchors them.  Without
                # a collector the span below is the shared no-op.
                collector = trace.TraceCollector(
                    label=multiprocessing.current_process().name,
                    raw_clock=True,
                ) if want_trace else None
                with trace.activate(collector), \
                        trace.span(f"{name}-op:{op}", cat=name):
                    result = run_op(ops, op, payload)
                reply = ("ok", result,
                         collector.span_docs() if collector else None)
        except (KeyboardInterrupt, SystemExit):
            raise  # die; the dispatching thread sees a crash
        except BaseException as exc:  # noqa: BLE001 - marshalled to parent
            reply = ("error", type(exc).__name__, str(exc))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    try:
        conn.close()
    except OSError:
        pass


class WorkerHandle:
    """One long-lived worker process plus the parent end of its pipe."""

    def __init__(self, ctx, name: str, index: int, ops: OpTable,
                 warm: Sequence[str], daemon: bool) -> None:
        #: Worker perf_counter → parent perf_counter correction, from
        #: the :meth:`ping` handshake.  On Linux both clocks read the
        #: same CLOCK_MONOTONIC, so this is ~the pipe transit error.
        self.clock_offset = 0.0
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=serve,
            args=(child_conn, ops, warm, name),
            name=f"repro-{name}-{index}",
            daemon=daemon,
        )
        self.process.start()
        child_conn.close()  # the parent keeps only its own end

    def _exchange(self, message: tuple, during: str) -> tuple:
        try:
            self.conn.send(message)
            return self.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(
                f"worker {self.process.name} (pid {self.process.pid}) "
                f"died {during}: {type(exc).__name__}"
            ) from None

    def run(
        self, op: str, payload: object, *, want_trace: bool = False,
    ) -> Tuple[object, Optional[List[Dict[str, object]]]]:
        """Ship one op; returns ``(result, span_docs)`` — the latter is
        the worker-side span list (raw perf_counter starts) when
        ``want_trace`` was set, else ``None``."""
        reply = self._exchange(("run", op, payload, want_trace), "mid-job")
        if reply[0] == "ok":
            return reply[1], reply[2]
        _tag, error_type, message = reply
        raise RemoteOpError(error_type, message)

    def ping(self) -> None:
        """Block until the worker's loop is serving (imports warmed),
        and measure :attr:`clock_offset` for re-anchoring its spans.

        The offset comes from a *second* round trip: the first ping's
        window spans the worker's interpreter start-up (hundreds of
        milliseconds, all before the reply), so its midpoint is a
        terrible clock estimate — only a warm round trip (~µs) is
        symmetric enough to trust.
        """
        for _warm_up in (True, False):
            t_send = time.perf_counter()
            reply = self._exchange(("ping",), "during start-up")
            t_recv = time.perf_counter()
        self.clock_offset = trace.clock_offset(t_send, t_recv, reply[2])

    def stop(self, timeout: float = 5.0) -> None:
        """Polite shutdown; escalates to terminate if the worker hangs."""
        try:
            self.conn.send(("shutdown",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        try:
            self.conn.close()
        except OSError:
            pass

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()


class ProcessPool:
    """A fixed-size pool of reusable worker processes.

    Parameters
    ----------
    workers:
        Worker-process count (one in-flight op per worker; dispatching
        threads block in :meth:`run` until a slot frees up).
    ops:
        The op table the workers serve.
    name:
        Names the processes (``repro-<name>-<n>``) and the trace spans
        (``<name>-dispatch:<op>`` here, ``<name>-op:<op>`` in the worker).
    daemon:
        Daemonic workers are cleaned up even if the parent dies without
        running :meth:`shutdown`, but may not start processes of their
        own.
    warm:
        Modules each worker imports before it answers its first ping.

    Workers start with ``forkserver`` where available, else ``spawn`` —
    never plain ``fork``: every caller runs threads (scheduler, HTTP),
    and forking a threaded process is undefined behaviour waiting to
    happen.  Both methods re-import the caller's ``__main__`` in the
    worker, so embedding scripts need the ``if __name__ == "__main__":``
    guard.  Interpreter start-up is paid once per worker, not per op.
    """

    def __init__(self, workers: int, ops: OpTable, *, name: str,
                 daemon: bool, warm: Sequence[str] = ()) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.name = name
        self._spawn_args = (ops, tuple(warm), daemon)
        try:
            self._ctx = multiprocessing.get_context("forkserver")
        except ValueError:  # platform without forkserver
            self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._handles: List[WorkerHandle] = []
        self._next_index = 0
        self._terminated = False
        self._spawned = 0
        self._crashed = 0
        self._prestart_thread: Optional[threading.Thread] = None
        self._idle: "queue.Queue[Optional[WorkerHandle]]" = queue.Queue()
        for _ in range(workers):
            self._idle.put(None)

    # ------------------------------------------------------------------
    def _cull(self, handle: WorkerHandle) -> None:
        """Forget a dead or suspect worker (lock held); counted once."""
        try:
            self._handles.remove(handle)
        except ValueError:
            pass  # shutdown already took it
        handle.kill()
        self._crashed += 1

    def _checkout(self) -> WorkerHandle:
        handle = self._idle.get()
        with self._lock:
            if self._terminated:
                self._idle.put(handle)
                raise WorkerCrashError("worker pool is terminated")
            if handle is not None:
                if handle.process.is_alive():
                    return handle
                self._cull(handle)  # died idle
            index = self._next_index
            self._next_index += 1
        # Spawn outside the lock: interpreter start-up takes hundreds of
        # milliseconds and must neither serialize concurrent first uses
        # nor block terminate().
        try:
            fresh = WorkerHandle(self._ctx, self.name, index,
                                 *self._spawn_args)
        except Exception as exc:
            # Spawning can fail when the multiprocessing machinery
            # itself is dying (e.g. the forkserver caught the terminal's
            # ^C): a worker-infrastructure death, retryable, not an op
            # failure.
            self._idle.put(None)
            raise WorkerCrashError(
                f"could not start a worker process: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        with self._lock:
            if self._terminated:  # shutdown raced the spawn
                fresh.kill()
                self._idle.put(None)
                raise WorkerCrashError("worker pool is terminated")
            self._handles.append(fresh)
            self._spawned += 1
        # Ping before handing out: the wait for the interpreter and the
        # warm imports then sits inside the checkout window, which
        # run_timed reports as queue wait, not inside the first op.
        try:
            fresh.ping()
        except BaseException:
            self._checkin(fresh, dead=True)
            raise
        return fresh

    def _checkin(self, handle: Optional[WorkerHandle], *,
                 dead: bool = False) -> None:
        if dead:
            with self._lock:
                self._cull(handle)
            handle = None  # respawn lazily on next checkout
        self._idle.put(handle)

    # ------------------------------------------------------------------
    def run(self, op: str, payload: object) -> object:
        """Ship one op to a worker and return its result.

        Blocks the calling thread until a worker is free and the op
        completes; the block is a pipe ``recv``, which releases the GIL.
        """
        return self.run_timed(op, payload)[0]

    def run_timed(self, op: str, payload: object) -> Tuple[object, float]:
        """As :meth:`run`, also returning the seconds spent *waiting*
        for a worker (idle-queue wait plus any lazy spawn) before the
        op was dispatched.

        Callers that account busy time must exclude that wait: it is
        queuing, not compute — counting it would bill one worker's
        compute to every dispatch that queued behind it.
        """
        collector = trace.current()
        waited_from = time.perf_counter()
        handle = self._checkout()
        queue_wait = time.perf_counter() - waited_from
        dispatch = trace.span(
            f"{self.name}-dispatch:{op}", cat=self.name,
            worker=handle.process.name, queue_wait=queue_wait,
        )
        try:
            with dispatch:
                result, span_docs = handle.run(
                    op, payload, want_trace=collector is not None,
                )
        except RemoteOpError:
            self._checkin(handle)  # worker is fine; the op raised
            raise
        except BaseException:
            # Crash or anything unexpected (a malformed reply, an
            # unpickling failure): the worker's state is unknown,
            # discard it.  The slot token MUST return to the idle queue
            # either way, or the pool shrinks by one worker forever and
            # eventually deadlocks checkout.
            self._checkin(handle, dead=True)
            raise
        self._checkin(handle)
        if span_docs:
            # Worker spans arrive on the worker's raw perf_counter; the
            # handshake offset re-anchors them onto this process's
            # clock, nested under the dispatch span just closed.
            collector.merge(
                span_docs,
                offset=handle.clock_offset - collector.t0,
                proc=handle.process.name,
                parent_id=dispatch.span_id,
            )
        return result, queue_wait

    def prestart(self, block: bool = True) -> None:
        """Spawn every worker now, concurrently, instead of on first use.

        Callers that measure should prestart outside their timed region
        — or pass ``block=False`` to warm up on a background thread
        concurrent with their own work.  The background form swallows
        warm-up errors: a failed slot respawns lazily and the next
        dispatch surfaces :class:`WorkerCrashError`.  Blocking calls
        re-raise the first failure.  Either way every slot token
        returns to the idle queue (:meth:`_checkout` culls a worker
        that fails its ping and preserves the token).
        """
        if block:
            self._prestart()
            return
        # Remembered so shutdown() can join it first.
        self._prestart_thread = threading.Thread(
            target=self._prestart_quietly,
            name=f"{self.name}-prestart", daemon=True,
        )
        self._prestart_thread.start()

    def _prestart_quietly(self) -> None:
        try:
            self._prestart()
        except Exception:  # noqa: BLE001 - dispatch path re-surfaces
            pass

    def _prestart(self) -> None:
        with ThreadPoolExecutor(max_workers=self.workers) as spawner:
            futures = [
                spawner.submit(lambda: self._checkin(self._checkout()))
                for _ in range(self.workers)
            ]
        for future in futures:
            future.result()  # re-raises the first warm-up failure

    def stats(self) -> Dict[str, int]:
        """Worker lifecycle counters (spawns include crash respawns)."""
        with self._lock:
            return {
                "workers_spawned": self._spawned,
                "workers_crashed": self._crashed,
            }

    def shutdown(self, wait: bool = True) -> None:
        """Stop workers; ``wait=False`` kills instead of asking.

        A background ``prestart(block=False)`` is joined before a polite
        stop: its pings drive the same pipes ``stop()`` sends the
        shutdown message on, and ``multiprocessing`` connections are not
        thread-safe.  The join is bounded — a hung spawn degrades to
        ``kill()``, which never touches a connection.
        """
        thread = self._prestart_thread
        if wait and thread is not None:
            thread.join(timeout=10.0)
            wait = not thread.is_alive()
        with self._lock:
            self._terminated = True
            handles = list(self._handles)
            self._handles.clear()
        for handle in handles:
            if wait:
                handle.stop()
            else:
                handle.kill()

    def terminate(self) -> None:
        """Kill every worker immediately (the ``^C`` path): threads
        blocked in :meth:`run` wake with :class:`WorkerCrashError`."""
        self.shutdown(wait=False)
