"""The worker half of the distributed worker plane.

:class:`WorkerAgent` is the body of ``repro worker --connect
HOST:PORT``: a long-lived process (or, in tests, a thread) that dials
the service's :class:`~repro.service.remote.RemoteWorkerPool` listener,
registers, and serves ``run`` frames with exactly the execution body
local workers use (:func:`~repro.service.worker.run_spec_job`) — so a
remote worker's result document is byte-identical to a thread or
process worker's for the same spec.

Around that shared body the agent owns the *distributed* concerns:

* **Heartbeats** — a sender thread beats every ``heartbeat_interval``
  seconds (the interval is assigned by the pool at registration) so
  the pool can tell a slow worker from a dead one.  A worker that
  stops beating past the pool's deadline is lost server-side: its
  socket closes, its job requeues, and any result it later produces
  has no channel to arrive on — the no-double-completion guarantee.
* **Reconnect** — a lost connection (service restart, network blip,
  server-side deadline) drops the session and re-dials with a delay;
  the pool accepts the re-registration as a fresh worker session.

The wire carries jobs, not files: an agent's cache root (``cache_dir``)
is its host's, and agents on one host can share one (the cache is
flock-safe).  A ``registered`` reply from an older service may still
carry ``artifact_base``; it is ignored.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from repro.core.trace import graft_span
from repro.service.framing import FrameChannel, FrameError
from repro.service.worker import run_spec_job

#: Grafted worker-side span ids (negative: clear of collector ids, and
#: below the service's -1..-9 block).
_SPAN_WORKER_JOB = -20


class WorkerAgent:
    """One remote worker: connect, register, heartbeat, run jobs.

    Parameters
    ----------
    host / port:
        The service's ``--listen-workers`` address.
    cache_dir:
        This host's artifact-cache root (``None`` disables caching for
        this worker).
    worker_id:
        Stable identity in logs//healthz; defaults to ``<hostname>-<pid>``.
    heartbeat_interval:
        Override the pool-assigned interval (tests use this to simulate
        a worker that is alive but not beating).
    reconnect_delay:
        Seconds between redial attempts after a lost connection.
    max_reconnects:
        Give up after this many consecutive failed/lost connections
        (``None``: keep trying until :meth:`stop`).
    job_delay:
        Test/chaos hook: sleep this long before executing each job —
        makes "SIGKILL mid-job" and "slow but alive" scenarios
        deterministic.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        cache_dir: Optional[Path] = None,
        worker_id: Optional[str] = None,
        heartbeat_interval: Optional[float] = None,
        reconnect_delay: float = 1.0,
        max_reconnects: Optional[int] = None,
        job_delay: float = 0.0,
        quiet: bool = False,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.heartbeat_override = heartbeat_interval
        self.reconnect_delay = float(reconnect_delay)
        self.max_reconnects = max_reconnects
        self.job_delay = float(job_delay)
        self.quiet = quiet
        self.jobs_completed = 0
        self.jobs_failed = 0
        self._stop = threading.Event()
        self._channel: Optional[FrameChannel] = None
        self._busy = False

    # ------------------------------------------------------------------
    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[worker {self.worker_id}] {message}", flush=True)

    def stop(self) -> None:
        """Ask the agent loop to exit (thread-embedded agents/tests)."""
        self._stop.set()
        channel = self._channel
        if channel is not None:
            channel.close()

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until a ``shutdown`` frame, :meth:`stop`, or the
        reconnect budget runs out.  Returns a process exit code."""
        failures = 0
        while not self._stop.is_set():
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=10.0
                )
            except OSError as exc:
                failures += 1
                if (
                    self.max_reconnects is not None
                    and failures > self.max_reconnects
                ):
                    self._log(
                        f"giving up after {failures} failed connections "
                        f"({type(exc).__name__})"
                    )
                    return 1
                self._log(
                    f"connect to {self.host}:{self.port} failed "
                    f"({type(exc).__name__}); retrying in "
                    f"{self.reconnect_delay}s"
                )
                if self._stop.wait(self.reconnect_delay):
                    break
                continue
            sock.settimeout(None)
            outcome = self._session(sock)
            if outcome == "shutdown":
                self._log("shutdown received; exiting")
                return 0
            if self._stop.is_set():
                break
            failures += 1
            if (
                self.max_reconnects is not None
                and failures > self.max_reconnects
            ):
                self._log(f"giving up after {failures} lost connections")
                return 1
            self._log(
                f"connection lost ({outcome}); reconnecting in "
                f"{self.reconnect_delay}s"
            )
            if self._stop.wait(self.reconnect_delay):
                break
        self._log("stopped")
        return 0

    # ------------------------------------------------------------------
    def _session(self, sock: socket.socket) -> str:
        """One connection's lifetime; returns why it ended."""
        channel = FrameChannel(sock)
        self._channel = channel
        session_live = threading.Event()
        session_live.set()
        try:
            channel.send({
                "type": "register",
                "worker_id": self.worker_id,
                "host": socket.gethostname(),
                "pid": os.getpid(),
            })
            while True:
                try:
                    doc = channel.recv()
                except FrameError as exc:
                    return f"torn frame: {exc}"
                except OSError as exc:
                    return f"socket error: {type(exc).__name__}"
                if doc is None:
                    return "closed by service"
                kind = doc.get("type")
                if kind == "registered":
                    self._start_heartbeats(channel, session_live, doc)
                    self._log(
                        f"registered as {doc.get('worker_id')} "
                        f"(heartbeat every "
                        f"{self._heartbeat_interval(doc):.2g}s)"
                    )
                elif kind == "run":
                    # Inline on the session thread: one job at a time
                    # per worker (the pool dispatches that way), and
                    # the heartbeat thread keeps liveness flowing while
                    # the job computes.
                    try:
                        self._serve_job(channel, doc)
                    except (OSError, FrameError) as exc:
                        return f"result send failed: {type(exc).__name__}"
                elif kind == "shutdown":
                    return "shutdown"
                # Unknown frames are ignored (forward compatibility).
        except (OSError, FrameError) as exc:
            return f"{type(exc).__name__}: {exc}"
        finally:
            session_live.clear()
            self._channel = None
            channel.close()

    def _heartbeat_interval(self, registered_doc: Dict[str, object]) -> float:
        if self.heartbeat_override is not None:
            return float(self.heartbeat_override)
        interval = registered_doc.get("heartbeat_interval")
        return float(interval) if isinstance(interval, (int, float)) else 2.0

    def _start_heartbeats(
        self,
        channel: FrameChannel,
        session_live: threading.Event,
        registered_doc: Dict[str, object],
    ) -> None:
        interval = self._heartbeat_interval(registered_doc)

        def beat() -> None:
            while session_live.is_set() and not self._stop.is_set():
                time.sleep(interval)
                if not session_live.is_set():
                    return
                try:
                    channel.send({"type": "heartbeat", "busy": self._busy})
                except (OSError, FrameError):
                    return  # session is dying; the recv loop reports it

        threading.Thread(
            target=beat, name="repro-worker-heartbeat", daemon=True
        ).start()

    # ------------------------------------------------------------------
    def _serve_job(
        self, channel: FrameChannel, doc: Dict[str, object]
    ) -> None:
        seq = doc.get("seq")
        job_id = doc.get("job_id")
        spec_doc = doc.get("spec")
        t_received = time.time()
        self._busy = True
        try:
            if self.job_delay:
                time.sleep(self.job_delay)
            payload = run_spec_job(
                spec_doc,
                str(self.cache_dir) if self.cache_dir is not None else None,
            )
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # noqa: BLE001 - marshalled to pool
            self.jobs_failed += 1
            reply: Dict[str, object] = {
                "type": "result", "seq": seq, "ok": False,
                "error_type": type(exc).__name__, "error": str(exc),
            }
        else:
            self.jobs_completed += 1
            self._graft_worker_spans(payload, t_received, job_id)
            reply = {
                "type": "result", "seq": seq, "ok": True,
                "payload": payload,
            }
        finally:
            self._busy = False
        channel.send(reply)

    def _graft_worker_spans(
        self,
        payload: Dict[str, object],
        t_received: float,
        job_id: Optional[str],
    ) -> None:
        """The worker-side job span onto the run trace (when one exists)."""
        trace_doc = payload.get("trace")
        if not isinstance(trace_doc, dict):
            return
        proc = f"worker:{self.worker_id}"
        graft_span(
            trace_doc, name="worker:job", span_id=_SPAN_WORKER_JOB,
            begin_epoch=t_received, end_epoch=time.time(),
            cat="worker", proc=proc, thread="agent",
            args={"job_id": job_id, "worker_id": self.worker_id},
        )


def run_worker(
    connect: str,
    *,
    cache_dir: Optional[Path] = None,
    worker_id: Optional[str] = None,
    heartbeat_interval: Optional[float] = None,
    reconnect_delay: float = 1.0,
    max_reconnects: Optional[int] = None,
    job_delay: float = 0.0,
) -> int:
    """``repro worker`` body: parse HOST:PORT, serve until shutdown.

    SIGTERM takes the same clean-exit path as ``^C`` so container
    runtimes and test harnesses can stop agents without tripping the
    reconnect machinery.
    """
    import signal

    host, _, port_text = connect.rpartition(":")
    if not host:
        host, port_text = "127.0.0.1", connect
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"--connect takes HOST:PORT, got {connect!r}"
        ) from None
    agent = WorkerAgent(
        host, port,
        cache_dir=cache_dir,
        worker_id=worker_id,
        heartbeat_interval=heartbeat_interval,
        reconnect_delay=reconnect_delay,
        max_reconnects=max_reconnects,
        job_delay=job_delay,
    )

    def _sigterm(_signum: int, _frame: object) -> None:
        agent.stop()

    in_main_thread = (
        threading.current_thread() is threading.main_thread()
    )
    previous = None
    if in_main_thread:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        return agent.run()
    except KeyboardInterrupt:
        agent.stop()
        return 0
    finally:
        if in_main_thread:
            signal.signal(signal.SIGTERM, previous)
