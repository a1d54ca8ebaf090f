"""The server half of the distributed worker plane.

:class:`RemoteWorkerPool` implements the same contract the thread and
process pools do — ``run_spec(spec_doc, cache_dir) -> (payload, None)``
— but dispatches to ``repro worker --connect HOST:PORT`` agent
processes (possibly on other machines) over the length-prefixed JSON
framing of :mod:`repro.service.framing`.

Wire protocol (every message is one frame; ``type`` discriminates)::

    worker -> pool   {"type": "register", "worker_id", "host", "pid"}
    pool -> worker   {"type": "registered", "worker_id",
                      "heartbeat_interval", "heartbeat_timeout"}
    worker -> pool   {"type": "heartbeat", "busy": bool}       (periodic)
    pool -> worker   {"type": "run", "seq", "job_id", "spec",
                      "cache_dir"}
    worker -> pool   {"type": "result", "seq", "ok": true,
                      "payload": {...}}
                   | {"type": "result", "seq", "ok": false,
                      "error_type", "error"}
    pool -> worker   {"type": "shutdown"}                      (polite)

Liveness is heartbeat-driven and *subsumes* EOF detection: a worker is
lost when its socket dies (EOF, reset, torn frame) **or** when its
heartbeat age exceeds ``heartbeat_timeout`` — whichever fires first.
Losing a worker fails its in-flight dispatch with
:class:`~repro.core.procpool.WorkerCrashError`, which the service's
requeue loop (and the job store's replay machinery) already treats as
retryable: at-least-once semantics, same event vocabulary as a crashed
process worker.  A worker that reconnects simply registers again as a
fresh handle; results from its *previous* connection are gone with the
socket, so a slow-but-alive worker that out-lives its heartbeat
deadline can never double-complete a job (its late result has no
channel to arrive on, and per-connection ``seq`` numbers reject
anything stale that somehow could).
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.procpool import RemoteOpError, WorkerCrashError
from repro.service.framing import FrameChannel, FrameError

#: Handshake budget: a connection that does not produce a ``register``
#: frame within this window is dropped (port scanners, half-open TCP).
REGISTER_HANDSHAKE_TIMEOUT = 10.0


class _Dispatch:
    """One in-flight job on one worker; resolved exactly once."""

    def __init__(self, seq: int, job_id: Optional[str]) -> None:
        self.seq = seq
        self.job_id = job_id
        self.dispatched_at = time.time()
        self.done = threading.Event()
        self.payload: Optional[Dict[str, object]] = None
        self.error: Optional[BaseException] = None
        self._lock = threading.Lock()

    def resolve(self, payload: Dict[str, object]) -> bool:
        with self._lock:
            if self.done.is_set():
                return False
            self.payload = payload
            self.done.set()
            return True

    def fail(self, error: BaseException) -> bool:
        with self._lock:
            if self.done.is_set():
                return False
            self.error = error
            self.done.set()
            return True


class _RemoteHandle:
    """One registered worker connection (one session; reconnects make
    a fresh handle)."""

    def __init__(
        self,
        name: str,
        channel: FrameChannel,
        doc: Dict[str, object],
        peer: Tuple[str, int],
    ) -> None:
        self.name = name
        self.channel = channel
        self.host = str(doc.get("host") or peer[0])
        self.pid = doc.get("pid")
        self.peer = peer
        self.registered_at = time.time()
        self.last_heartbeat = time.monotonic()
        self.last_heartbeat_epoch = time.time()
        self.lost = False
        self.lost_reason: Optional[str] = None
        self.current: Optional[_Dispatch] = None
        self._seq = 0

    def beat(self) -> None:
        self.last_heartbeat = time.monotonic()
        self.last_heartbeat_epoch = time.time()

    def heartbeat_age(self) -> float:
        return time.monotonic() - self.last_heartbeat

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq


class RemoteWorkerPool:
    """Dispatch jobs to remote worker agents over TCP.

    Parameters
    ----------
    workers:
        Accepted for pool-factory symmetry; capacity is actually
        however many agents connect (the value is kept only as a
        sizing hint in :meth:`stats`).
    host / port:
        The listen address (``port=0`` binds an ephemeral port; read it
        back from :attr:`address`).  Binding happens in the
        constructor, so the address is known before any agent starts.
    heartbeat_timeout:
        A worker whose heartbeat age exceeds this is lost: its socket
        is closed, its in-flight job fails with
        :class:`WorkerCrashError` (→ requeue), and it may re-register.
    heartbeat_interval:
        Advertised to agents in the ``registered`` reply; defaults to a
        quarter of the timeout so a single dropped beat never kills a
        healthy worker.
    register_timeout:
        How long :meth:`run_spec` waits for *any* worker to be
        available before failing the dispatch with
        :class:`WorkerCrashError` (which the requeue path retries).
    """

    kind = "remote"
    transport = "tcp"

    def __init__(
        self,
        workers: int = 2,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float = 10.0,
        heartbeat_interval: Optional[float] = None,
        register_timeout: float = 60.0,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0, got {heartbeat_timeout}"
            )
        self.workers_hint = int(workers)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.heartbeat_interval = float(
            heartbeat_interval
            if heartbeat_interval is not None
            else max(0.05, heartbeat_timeout / 4.0)
        )
        self.register_timeout = float(register_timeout)
        self._lock = threading.Lock()
        self._handles: List[_RemoteHandle] = []
        self._idle: "queue.Queue[_RemoteHandle]" = queue.Queue()
        self._registrations = 0
        self._lost = 0
        self._rejected = 0
        self._results_dropped = 0
        self._terminated = False
        self._listener = socket.create_server((host, port))
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-remote-accept", daemon=True
        )
        self._accept_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, name="repro-remote-monitor",
            daemon=True,
        )
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown/terminate
            threading.Thread(
                target=self._handshake, args=(sock, peer),
                name="repro-remote-handshake", daemon=True,
            ).start()

    def _handshake(self, sock: socket.socket, peer) -> None:
        channel = FrameChannel(sock)
        sock.settimeout(REGISTER_HANDSHAKE_TIMEOUT)
        try:
            doc = channel.recv()
        except (FrameError, OSError):
            doc = None
        if not isinstance(doc, dict) or doc.get("type") != "register":
            with self._lock:
                self._rejected += 1
            channel.close()
            return
        sock.settimeout(None)
        base = str(doc.get("worker_id") or f"{peer[0]}:{peer[1]}")
        with self._lock:
            if self._terminated:
                channel.close()
                return
            live = {h.name for h in self._handles if not h.lost}
            name, suffix = base, 2
            while name in live:  # two live agents chose the same id
                name = f"{base}~{suffix}"
                suffix += 1
            handle = _RemoteHandle(name, channel, doc, peer[:2])
            self._handles.append(handle)
            self._registrations += 1
        try:
            channel.send({
                "type": "registered",
                "worker_id": name,
                "heartbeat_interval": self.heartbeat_interval,
                "heartbeat_timeout": self.heartbeat_timeout,
            })
        except OSError:
            self._mark_lost(handle, "connection closed during registration")
            return
        threading.Thread(
            target=self._reader_loop, args=(handle,),
            name=f"repro-remote-read-{name}", daemon=True,
        ).start()
        self._idle.put(handle)

    # ------------------------------------------------------------------
    # Per-worker reader + liveness monitor
    # ------------------------------------------------------------------
    def _reader_loop(self, handle: _RemoteHandle) -> None:
        while True:
            try:
                doc = handle.channel.recv()
            except FrameError as exc:
                self._mark_lost(handle, f"torn frame: {exc}")
                return
            except OSError as exc:
                self._mark_lost(
                    handle, f"socket error: {type(exc).__name__}"
                )
                return
            if doc is None:
                self._mark_lost(handle, "connection closed")
                return
            kind = doc.get("type")
            if kind == "heartbeat":
                handle.beat()
            elif kind == "result":
                handle.beat()
                self._settle_result(handle, doc)
            # Unknown message types are ignored: an agent one protocol
            # rev ahead must not kill the session.

    def _settle_result(
        self, handle: _RemoteHandle, doc: Dict[str, object]
    ) -> None:
        with self._lock:
            dispatch = handle.current
            if dispatch is None or doc.get("seq") != dispatch.seq:
                # A stale result (e.g. from before a requeue decision on
                # a different handle, or a protocol bug).  Dropping it
                # here is what makes requeue at-least-once but never
                # double-completing: only the live dispatch can settle.
                self._results_dropped += 1
                return
        if doc.get("ok"):
            payload = doc.get("payload")
            if isinstance(payload, dict):
                dispatch.resolve(payload)
            else:
                dispatch.fail(WorkerCrashError(
                    f"worker {handle.name} returned a malformed result "
                    f"payload"
                ))
        else:
            dispatch.fail(RemoteOpError(
                str(doc.get("error_type") or "RuntimeError"),
                str(doc.get("error") or "remote job failed"),
            ))

    def _monitor_loop(self) -> None:
        interval = max(0.02, min(1.0, self.heartbeat_timeout / 4.0))
        while True:
            time.sleep(interval)
            with self._lock:
                if self._terminated:
                    return
                stale = [
                    h for h in self._handles
                    if not h.lost and h.heartbeat_age() > self.heartbeat_timeout
                ]
            for handle in stale:
                self._mark_lost(
                    handle,
                    f"heartbeat timeout ({handle.heartbeat_age():.1f}s "
                    f"> {self.heartbeat_timeout}s)",
                )

    def _mark_lost(
        self, handle: _RemoteHandle, reason: str, *, count: bool = True
    ) -> None:
        with self._lock:
            if handle.lost:
                return
            handle.lost = True
            handle.lost_reason = reason
            dispatch = handle.current
            handle.current = None
            try:
                self._handles.remove(handle)
            except ValueError:
                pass
            if count:
                self._lost += 1
        # Close outside the lock: shutdown() on a dead peer can block.
        handle.channel.close()
        if dispatch is not None:
            dispatch.fail(WorkerCrashError(
                f"remote worker {handle.name} ({handle.host}) lost "
                f"mid-job: {reason}"
            ))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _checkout(self) -> _RemoteHandle:
        deadline = time.monotonic() + self.register_timeout
        while True:
            with self._lock:
                if self._terminated:
                    raise WorkerCrashError("worker pool is terminated")
                connected = len(self._handles)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerCrashError(
                    f"no remote worker available within "
                    f"{self.register_timeout}s "
                    f"(connected: {connected}; start agents with "
                    f"`repro worker --connect "
                    f"{self.address[0]}:{self.address[1]}`)"
                )
            try:
                handle = self._idle.get(timeout=min(remaining, 0.5))
            except queue.Empty:
                continue
            if handle.lost:
                continue  # dead handle drained from the queue
            return handle

    def run_spec(
        self,
        spec_doc: Dict[str, object],
        cache_dir: Optional[str],
        *,
        job_id: Optional[str] = None,
    ) -> Tuple[Dict[str, object], None]:
        """Ship one spec to a connected agent and await its result.

        ``cache_dir`` is forwarded as advisory only — agents default to
        their *own* per-host cache roots (content-addressed keys make
        them interchangeable); an agent on the service's host may elect
        to share the directory.
        """
        handle = self._checkout()
        with self._lock:
            if handle.lost:  # lost between checkout and dispatch
                pending = None
            else:
                pending = _Dispatch(handle.next_seq(), job_id)
                handle.current = pending
        if pending is None:
            return self.run_spec(spec_doc, cache_dir, job_id=job_id)
        try:
            handle.channel.send({
                "type": "run",
                "seq": pending.seq,
                "job_id": job_id,
                "spec": spec_doc,
                "cache_dir": cache_dir,
            })
        except (OSError, FrameError) as exc:
            self._mark_lost(handle, f"send failed: {type(exc).__name__}")
        pending.done.wait()
        with self._lock:
            if handle.current is pending:
                handle.current = None
            lost = handle.lost
        if not lost:
            self._idle.put(handle)
        if pending.error is not None:
            raise pending.error
        payload = pending.payload
        assert payload is not None
        # Dispatch provenance for /healthz consumers and the service's
        # trace grafting; epochs, so they align with trace epoch0.
        payload["remote"] = {
            "worker_id": handle.name,
            "host": handle.host,
            "pid": handle.pid,
            "transport": self.transport,
            "registered_at": handle.registered_at,
            "last_heartbeat_at": handle.last_heartbeat_epoch,
            "dispatched_at": pending.dispatched_at,
            "completed_at": time.time(),
        }
        return payload, None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Lifecycle counters: registrations map onto the spawn/crash
        vocabulary the local pools already export, plus remote-only
        churn counters."""
        with self._lock:
            return {
                "workers_spawned": self._registrations,
                "workers_crashed": self._lost,
                "workers_connected": len(self._handles),
                "registrations_rejected": self._rejected,
                "results_dropped": self._results_dropped,
            }

    def workers_view(self) -> List[Dict[str, object]]:
        """Per-connected-worker health rows for /healthz and /metrics."""
        with self._lock:
            return [
                {
                    "worker": handle.name,
                    "kind": self.kind,
                    "transport": self.transport,
                    "host": handle.host,
                    "pid": handle.pid,
                    "job_id": (
                        handle.current.job_id if handle.current else None
                    ),
                    "heartbeat_age_s": round(handle.heartbeat_age(), 3),
                }
                for handle in self._handles
            ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Close the listener and release every agent politely.

        Agents receive a ``shutdown`` frame (their ``repro worker``
        process exits 0) and in-flight dispatches fail — with
        ``wait=True`` there should be none left by contract (the
        service joins its scheduler first).
        """
        with self._lock:
            self._terminated = True
            handles = list(self._handles)
        try:
            self._listener.close()
        except OSError:
            pass
        for handle in handles:
            try:
                handle.channel.send({"type": "shutdown"})
            except (OSError, FrameError):
                pass
            self._mark_lost(handle, "pool shutdown", count=False)

    def terminate(self) -> None:
        """Drop every connection immediately (the ``^C`` path); blocked
        dispatchers wake with :class:`WorkerCrashError`."""
        with self._lock:
            self._terminated = True
            handles = list(self._handles)
        try:
            self._listener.close()
        except OSError:
            pass
        for handle in handles:
            self._mark_lost(handle, "pool terminated", count=False)
