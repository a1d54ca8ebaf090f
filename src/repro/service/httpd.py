"""JSON-over-HTTP front end for the benchmark service (stdlib only).

``repro-pipeline serve`` starts a :class:`ThreadingHTTPServer` whose
handler is a thin translation layer over one shared
:class:`~repro.service.BenchmarkService` — many clients submit
concurrently; per-request threads funnel into the service's worker
pool.

Routes::

    GET    /healthz              liveness + job counts + worker kind +
                                 queue depth + per-worker health rows
                                 (kind, transport, host, heartbeat age,
                                 in-flight job id)
    GET    /metrics              Prometheus text exposition (job counts,
                                 queue depth, worker churn + heartbeat
                                 ages, cache hit ratio, artifact-sync
                                 transfers, shm savings, kernel
                                 histograms)
    GET    /artifacts            index of published artifact-cache
                                 entries (the cross-host sync surface)
    GET    /artifacts/<kind>/<key>
                                 one cache entry as an uncompressed tar
                                 (404 on a miss — the worker generates
                                 locally instead)
    PUT    /artifacts/<kind>/<key>
                                 publish one entry tar (workers push
                                 fresh K0/K1 artifacts so later workers
                                 on other hosts hit)
    GET    /scenarios            registered scenario names/descriptions
    GET    /jobs                 all job status snapshots
    POST   /jobs                 submit: {"spec": {...}} or
                                 {"scenario": "name",
                                  "overrides": {...}} or a sweep —
                                 {"sweep": {SweepSpec doc}} or
                                 {"scenario": "name", "overrides": {...},
                                  "sweep": {"scales": [...],
                                            "backends": [...],
                                            "repeats": N}}
                                 -> {"job_id": ...} (sweeps return the
                                 parent job; its status lists per-cell
                                 child jobs and its result is the
                                 assembled sweep table)
    GET    /jobs/<id>            one job's status
    GET    /jobs/<id>/result     terminal payload (records, rank digest;
                                 for sweep parents the sweep table);
                                 409 while the job is still in flight
    GET    /jobs/<id>/trace      Perfetto-loadable Chrome trace of a
                                 terminal traced job (404 when the spec
                                 had trace off; 409 while in flight)
    DELETE /jobs/<id>            cancel (only a PENDING job can be)

Errors are JSON too: ``{"error": "..."}`` with a 4xx status.  A POST
body over 1 MiB or an artifact PUT over 512 MiB is a 413, and a
``Content-Length`` that is not a non-negative integer a 400, both
before any body byte is read.  A submitted spec or sweep base that sets
``data_dir`` is a 400: paths on the server host are the host's.  The
server never imports beyond the stdlib — the paper's "holistic system
benchmark" framing means the harness must not drag in a web stack the
platforms under test would not share.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.api.scenarios import BUILTIN_SCENARIOS, ScenarioRegistry
from repro.api.spec import RunSpec, SweepSpec
from repro.service.service import BenchmarkService, UnknownJobError

#: Keys a ``{"scenario": ..., "sweep": {...}}`` grid object may carry.
_SWEEP_GRID_KEYS = {"scales", "backends", "repeats"}

#: PUT /artifacts body cap — far above any real K0/K1 entry at service
#: scales, small enough that a hostile upload cannot balloon memory.
_MAX_ARTIFACT_BYTES = 512 * 1024 * 1024

#: POST /jobs body cap — ample for any spec or sweep document.
_MAX_BODY_BYTES = 1024 * 1024

logger = logging.getLogger("repro.service.http")


class BenchmarkHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared service + registry."""

    #: Per-request threads must not outlive a shutdown mid-job-poll.
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: BenchmarkService,
        registry: Optional[ScenarioRegistry] = None,
    ) -> None:
        super().__init__(address, BenchmarkRequestHandler)
        self.service = service
        self.registry = registry if registry is not None else BUILTIN_SCENARIOS


class BenchmarkRequestHandler(BaseHTTPRequestHandler):
    """Translate HTTP verbs/paths into service calls."""

    server: BenchmarkHTTPServer
    #: Advertised in responses; bump with the JSON shape.
    server_version = "repro-serve/1.0"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: object) -> None:
        logger.debug("%s - %s", self.address_string(), format % args)

    def _reply(self, status: int, doc: Dict[str, object]) -> None:
        payload = json.dumps(doc, sort_keys=True, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _error(self, status: int, message: str) -> None:
        self._reply(status, {"error": message})

    def _content_length(
        self, limit: int, refused: Callable[[], None] = lambda: None
    ) -> Optional[int]:
        """The declared body length, or ``None`` once refused.

        A missing header reads as 0.  A malformed or negative one is a
        400 and one over ``limit`` a 413, both answered before any body
        byte is read.  ``refused`` runs before the answer, so a client
        that has it also sees what the refusal recorded.
        """
        header = self.headers.get("Content-Length") or "0"
        if not (header.isascii() and header.isdigit()):
            refused()
            self._error(
                400, f"Content-Length must be a non-negative integer, "
                     f"got {header!r}"
            )
            return None
        length = int(header)
        if length > limit:
            refused()
            self._error(
                413, f"body of {length} bytes exceeds the {limit}-byte limit"
            )
            return None
        return length

    def _read_body(self) -> Optional[Dict[str, object]]:
        """The POST body as a JSON object, or ``None`` once refused."""
        length = self._content_length(_MAX_BODY_BYTES)
        if length is None:
            return None
        raw = self.rfile.read(length) if length else b"{}"
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):
            raise ValueError("request body must be a JSON object")
        return doc

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        service = self.server.service
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        try:
            if parts == ["healthz"]:
                by_state = service.jobs_by_state()
                doc = {
                    "status": "ok",
                    "worker_kind": service.worker_kind,
                    "worker_transport": getattr(
                        service._workers, "transport", "inline"
                    ),
                    "jobs": sum(by_state.values()),
                    "in_flight": (
                        by_state.get("pending", 0)
                        + by_state.get("running", 0)
                    ),
                    "queue_depth": service.queue_depth(),
                    "workers": service.workers_health(),
                }
                stats = service._workers.stats()
                if "workers_connected" in stats:
                    doc["workers_connected"] = stats["workers_connected"]
                    address = service.worker_address
                    if address is not None:
                        doc["worker_listen"] = list(address)
                self._reply(200, doc)
            elif parts == ["metrics"]:
                self._reply_text(
                    200, service.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parts and parts[0] == "artifacts":
                self._get_artifacts(parts[1:])
            elif parts == ["scenarios"]:
                self._reply(200, {
                    "scenarios": [
                        {"name": name, "description": description}
                        for name, description in self.server.registry.describe()
                    ]
                })
            elif parts == ["jobs"]:
                self._reply(200, {"jobs": service.jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._reply(200, service.status(parts[1]))
            elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "result":
                status = service.status(parts[1])
                if status["state"] in ("pending", "running"):
                    self._error(
                        409, f"job {parts[1]} is {status['state']}; poll "
                             f"GET /jobs/{parts[1]} until terminal"
                    )
                else:
                    self._reply(200, service.result_doc(parts[1]))
            elif len(parts) == 3 and parts[:1] == ["jobs"] and parts[2] == "trace":
                status = service.status(parts[1])
                if status["state"] in ("pending", "running"):
                    self._error(
                        409, f"job {parts[1]} is {status['state']}; poll "
                             f"GET /jobs/{parts[1]} until terminal"
                    )
                else:
                    trace = service.job_trace(parts[1])
                    if trace is None:
                        self._error(
                            404, f"job {parts[1]} recorded no trace "
                                 f"(submit with \"trace\": true)"
                        )
                    else:
                        self._reply(200, trace)
            else:
                self._error(404, f"no route for GET {self.path}")
        except UnknownJobError as exc:
            self._error(404, str(exc.args[0] if exc.args else exc))

    # -- cross-host artifact sync --------------------------------------
    def _artifact_cache(self):
        """The service's shared cache, or ``None`` (no ``cache_dir``)."""
        from repro.core.artifacts import ArtifactCache

        cache_dir = self.server.service.cache_dir
        if cache_dir is None:
            return None
        return ArtifactCache(cache_dir)

    def _artifact_target(self, parts):
        """Validate ``/artifacts/<kind>/<key>`` path parts."""
        from repro.core.artifacts import ArtifactCache

        if len(parts) != 2:
            raise ValueError(
                "artifact routes are GET /artifacts or "
                "GET|PUT /artifacts/<kind>/<key>"
            )
        kind, key = parts
        if kind not in ArtifactCache.KINDS:
            raise ValueError(
                f"kind must be one of {ArtifactCache.KINDS}, got {kind!r}"
            )
        if not key or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"key must be lowercase hex, got {key!r}")
        return kind, key

    def _get_artifacts(self, parts) -> None:
        service = self.server.service
        cache = self._artifact_cache()
        if cache is None:
            self._error(
                404, "no artifact cache configured (serve with "
                     "--cache-dir to enable cross-host sync)"
            )
            return
        if not parts:
            self._reply(200, {"entries": [
                {"kind": entry.kind, "key": entry.key,
                 "num_bytes": entry.num_bytes}
                for entry in cache.entries()
            ]})
            return
        try:
            kind, key = self._artifact_target(parts)
        except ValueError as exc:
            self._error(400, str(exc))
            return
        data = cache.export_entry(kind, key)
        if data is None:
            service.metrics.record_artifact_sync("get", "miss")
            self._error(404, f"no {kind} entry with key {key}")
            return
        service.metrics.record_artifact_sync("get", "hit")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-tar")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_PUT(self) -> None:  # noqa: N802
        service = self.server.service
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if not parts or parts[0] != "artifacts":
            self._error(404, f"no route for PUT {self.path}")
            return
        cache = self._artifact_cache()
        if cache is None:
            self._error(
                404, "no artifact cache configured (serve with "
                     "--cache-dir to enable cross-host sync)"
            )
            return
        try:
            kind, key = self._artifact_target(parts[1:])
        except ValueError as exc:
            self._error(400, str(exc))
            return
        length = self._content_length(
            _MAX_ARTIFACT_BYTES,
            lambda: service.metrics.record_artifact_sync("put", "rejected"),
        )
        if length is None:
            return
        if length == 0:
            self._error(400, "PUT /artifacts requires a tar body")
            return
        data = self.rfile.read(length)
        if cache.import_entry(kind, key, data):
            service.metrics.record_artifact_sync("put", "stored")
            self._reply(200, {"stored": True, "kind": kind, "key": key})
        else:
            service.metrics.record_artifact_sync("put", "rejected")
            self._error(
                400, "artifact archive was malformed or unsafe "
                     "(must be a tar of regular entry-relative files "
                     "whose cache-entry marker hashes to the key)"
            )

    def do_POST(self) -> None:  # noqa: N802
        if [p for p in self.path.split("?")[0].split("/") if p] != ["jobs"]:
            self._error(404, f"no route for POST {self.path}")
            return
        try:
            body = self._read_body()
        except (ValueError, json.JSONDecodeError) as exc:
            self._error(400, f"bad request body: {exc}")
            return
        if body is None:
            return
        spec = sweep = None
        try:
            if "sweep" in body:
                sweep = self._parse_sweep(body)
            elif "scenario" in body:
                spec = self.server.registry.resolve(
                    str(body["scenario"]), **self._overrides(body)
                )
            elif "spec" in body:
                spec = RunSpec.from_dict(body["spec"])
            else:
                raise ValueError(
                    "body must carry 'spec' (a RunSpec document), "
                    "'scenario' (+ optional 'overrides'), or 'sweep' "
                    "(a SweepSpec document, or a grid object next to "
                    "'scenario')"
                )
            base = sweep.base if sweep is not None else spec
            if base.data_dir is not None:
                raise ValueError(
                    "'data_dir' names a path on the server; a submitted "
                    "spec may not set it"
                )
        except (KeyError, ValueError, TypeError) as exc:
            self._error(400, str(exc.args[0] if exc.args else exc))
            return
        try:
            if sweep is not None:
                job_id = self.server.service.submit_sweep(sweep)
            else:
                job_id = self.server.service.submit(spec)
        except ValueError as exc:  # e.g. no capable backend in the grid
            self._error(400, str(exc.args[0] if exc.args else exc))
            return
        except RuntimeError as exc:  # service closed
            self._error(503, str(exc))
            return
        self._reply(202, {"job_id": job_id, **self.server.service.status(job_id)})

    def _overrides(self, body: Dict[str, object]) -> Dict[str, object]:
        overrides = body.get("overrides") or {}
        if not isinstance(overrides, dict):
            raise ValueError("'overrides' must be an object")
        return overrides

    def _parse_sweep(self, body: Dict[str, object]) -> SweepSpec:
        """Build the SweepSpec from a POST body's ``sweep`` member.

        Two shapes: a full SweepSpec document (strict-parsed), or —
        when ``scenario`` rides along — a grid object
        (``scales``/``backends``/``repeats``) swept over the scenario's
        spec as the base.
        """
        sweep_doc = body["sweep"]
        if not isinstance(sweep_doc, dict):
            raise ValueError("'sweep' must be an object")
        if "scenario" not in body:
            for stray in ("overrides", "spec"):
                if stray in body:
                    raise ValueError(
                        f"'{stray}' does not combine with a full "
                        f"SweepSpec document (it would be silently "
                        f"ignored); put the fields in the sweep's "
                        f"'base', or sweep a 'scenario' instead"
                    )
            return SweepSpec.from_dict(sweep_doc)
        if "spec" in body:
            raise ValueError(
                "'spec' does not combine with 'scenario' + 'sweep' (it "
                "would be silently ignored); sweep either a scenario "
                "or a full SweepSpec document with the spec as 'base'"
            )
        unknown = sorted(set(sweep_doc) - _SWEEP_GRID_KEYS)
        if unknown:
            raise ValueError(
                f"unknown sweep grid field(s) {unknown} (with 'scenario' "
                f"the sweep object takes {sorted(_SWEEP_GRID_KEYS)})"
            )
        overrides = self._overrides(body)
        if "repeats" in overrides:
            raise ValueError(
                "with a sweep grid, put 'repeats' inside 'sweep' — the "
                "sweep owns the repeat axis; an override would be "
                "silently discarded"
            )
        # Same rule for the grid axes themselves: every cell replaces
        # them, so an override there could only mislead.  'backend' is
        # legitimate when the grid omits 'backends' (it then becomes
        # the single swept backend).
        if "scale" in overrides:
            raise ValueError(
                "with a sweep grid, 'scale' is swept — put the values "
                "in sweep['scales']; an override would be silently "
                "discarded"
            )
        if "backend" in overrides and "backends" in sweep_doc:
            raise ValueError(
                "'backend' in overrides conflicts with "
                "sweep['backends'] — the grid replaces it per cell"
            )
        resolved = self.server.registry.resolve(
            str(body["scenario"]), **overrides
        )
        # The sweep owns the repeat axis; a scenario's own repeats
        # (e.g. cache-warm's best-of-3) becomes the grid default so
        # its measurement discipline is preserved, not silently reset.
        base = resolved.with_overrides(repeats=1)
        # Each omitted axis defaults to the scenario's own value, so a
        # grid can sweep one axis and inherit the other.
        return SweepSpec(
            base=base,
            scales=sweep_doc.get("scales", (base.scale,)),
            backends=sweep_doc.get("backends", (base.backend,)),
            repeats=sweep_doc.get("repeats", resolved.repeats),
        )

    def do_DELETE(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) != 2 or parts[0] != "jobs":
            self._error(404, f"no route for DELETE {self.path}")
            return
        try:
            cancelled = self.server.service.cancel(parts[1])
        except UnknownJobError as exc:
            self._error(404, str(exc.args[0] if exc.args else exc))
            return
        self._reply(200 if cancelled else 409, {
            "job_id": parts[1],
            "cancelled": cancelled,
            **self.server.service.status(parts[1]),
        })


def make_server(
    service: BenchmarkService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    registry: Optional[ScenarioRegistry] = None,
) -> BenchmarkHTTPServer:
    """Bind (but do not start) a server; ``port=0`` picks a free port.

    The caller owns the loop: ``server.serve_forever()`` inline, or in a
    thread for tests (see :func:`serve_in_thread`).
    """
    return BenchmarkHTTPServer((host, port), service, registry)


def serve_in_thread(
    service: BenchmarkService, **kwargs: object
) -> Tuple[BenchmarkHTTPServer, threading.Thread]:
    """Start a server on a daemon thread (test/embedding helper)."""
    server = make_server(service, **kwargs)  # type: ignore[arg-type]
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server, thread


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8734,
    workers: int = 2,
    worker_kind: str = "thread",
    cache_dir: Optional[Path] = None,
    store_path: Optional[Path] = None,
    compact: bool = False,
    worker_listen: Optional[Tuple[str, int]] = None,
    heartbeat_timeout: float = 10.0,
) -> int:
    """``repro-pipeline serve`` body: serve until interrupted.

    Prints the bound address (stdout, one line, parse-friendly) so
    scripts using ``--port 0`` can discover the ephemeral port.  With
    ``worker_kind="remote"`` a second line (``workers on HOST:PORT``)
    announces the TCP port ``repro-pipeline worker --connect`` agents
    should dial, and the HTTP address is advertised to them as the
    artifact-sync base.

    With a ``store_path``, startup replays the store (finished jobs
    come back verbatim; interrupted ones re-queue) and ``compact=True``
    compacts it first plus periodically while serving.  On ``^C`` the
    shutdown path terminates ``worker_kind="process"`` children and
    marks their jobs FAILED in the store — never left RUNNING for the
    next replay to resurrect.
    """
    service = BenchmarkService(
        workers=workers,
        worker_kind=worker_kind,
        cache_dir=cache_dir,
        store_path=store_path,
        compact=compact,
        worker_listen=worker_listen,
        heartbeat_timeout=heartbeat_timeout,
    )
    server = make_server(service, host=host, port=port)
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port}", flush=True)
    worker_bind = service.worker_address
    if worker_bind is not None:
        print(f"workers on {worker_bind[0]}:{worker_bind[1]}", flush=True)
        # Registering agents learn the artifact-sync base in their
        # `registered` reply; only useful when a cache_dir exists, but
        # advertising it unconditionally is harmless (agents without a
        # local cache ignore it).
        service.set_artifact_base(f"http://{bound_host}:{bound_port}")
    # SIGTERM (what `kill`, systemd, and container runtimes send) must
    # take the same graceful path as ^C — otherwise worker processes
    # leak and RUNNING jobs are left in the store for the next replay
    # to resurrect as zombies.  Signal handlers can only be installed
    # from the main thread; an embedder running run_server elsewhere
    # just keeps the process's existing SIGTERM disposition.
    import signal
    import threading as _threading

    def _sigterm(_signum: int, _frame: object) -> None:
        raise KeyboardInterrupt

    previous = None
    in_main_thread = (
        _threading.current_thread() is _threading.main_thread()
    )
    if in_main_thread:
        previous = signal.signal(signal.SIGTERM, _sigterm)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if in_main_thread:
            signal.signal(signal.SIGTERM, previous)
        server.server_close()
        service.close(wait=False)
    return 0
