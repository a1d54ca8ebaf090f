"""CI smoke client for `repro-pipeline serve`.

Submits a workload over HTTP, polls the job to completion, and asserts
the result payload is sane.  Usage::

    python tools/http_smoke_client.py PORT [SCENARIO] [TIMEOUT_S]

``SCENARIO`` is a scenario name (default ``smoke``), posted as
``{"scenario": ...}``.  The special name ``sweep`` instead posts a
small sweep grid over the smoke scenario —
``{"scenario": "smoke", "sweep": {"scales": [6, 7],
"backends": ["numpy", "scipy"]}}`` — and polls the *parent* job,
asserting every cell succeeded and the assembled sweep table carries
one record row per (cell, kernel) plus a rank digest per cell.

The special name ``observability`` exercises the trace plane: it
submits the smoke scenario with ``{"trace": true}`` overrides, fetches
``GET /jobs/<id>/trace`` (asserting the Chrome export carries the
pipeline/stage/job lifecycle span names), then scrapes ``GET /metrics``
(asserting the Prometheus families the service promises) and checks
``/healthz`` reports queue depth and per-worker in-flight maps.
Against a ``--worker-kind remote`` service it additionally requires
the remote families (connected-worker gauge, per-worker info/heartbeat
series, requeue counter) and per-worker health rows
carrying kind/transport/heartbeat age.

Exits nonzero (via assertion) if the job fails, is cancelled, or does
not finish in time.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.request

#: The grid the ``sweep`` mode submits (2 backends x 2 scales).
SWEEP_GRID = {"scales": [6, 7], "backends": ["numpy", "scipy"]}

#: Span names the ``observability`` mode requires in a job's trace.
REQUIRED_SPANS = (
    "pipeline",
    "stage:k0-generate",
    "stage:k1-sort",
    "stage:k2-filter",
    "stage:k3-pagerank",
    "job:queue",
    "job:run",
)

#: Metric families the ``observability`` mode requires in /metrics.
REQUIRED_METRICS = (
    "repro_jobs_finished_total",
    "repro_queue_depth",
    "repro_workers_spawned_total",
    "repro_jobs_requeued_total",
    "repro_artifact_cache_probes_total",
    "repro_shm_bytes_saved_total",
    "repro_kernel_seconds_bucket",
)

#: Families additionally required when the service is remote-kind.
REQUIRED_REMOTE_METRICS = (
    "repro_remote_workers_connected",
    "repro_remote_registrations_rejected_total",
    "repro_remote_results_dropped_total",
    "repro_worker_info",
    "repro_worker_heartbeat_age_seconds",
)


def _post_job(base: str, body: dict) -> dict:
    request = urllib.request.Request(
        f"{base}/jobs",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    return json.loads(urllib.request.urlopen(request, timeout=30).read())


def _poll_terminal(base: str, job_id: str, timeout_s: float) -> dict:
    deadline = time.monotonic() + timeout_s
    doc = {}
    while time.monotonic() < deadline:
        doc = json.loads(
            urllib.request.urlopen(f"{base}/jobs/{job_id}", timeout=30).read()
        )
        if doc["state"] not in ("pending", "running"):
            return doc
        time.sleep(0.2)
    raise AssertionError(f"job {job_id} did not finish in {timeout_s}s: {doc}")


def main(argv: list) -> int:
    port = int(argv[1])
    scenario = argv[2] if len(argv) > 2 else "smoke"
    timeout_s = float(argv[3]) if len(argv) > 3 else 300.0
    base = f"http://127.0.0.1:{port}"

    if scenario == "sweep":
        body = {"scenario": "smoke", "sweep": SWEEP_GRID}
    elif scenario == "observability":
        body = {"scenario": "smoke", "overrides": {"trace": True}}
    else:
        body = {"scenario": scenario}
    job = _post_job(base, body)
    job_id = job["job_id"]
    print(f"submitted {body} as {job_id} (kind={job.get('kind', 'run')})")

    doc = _poll_terminal(base, job_id, timeout_s)
    assert doc["state"] == "succeeded", doc

    result = json.loads(
        urllib.request.urlopen(
            f"{base}/jobs/{job_id}/result", timeout=30
        ).read()
    )
    if scenario == "sweep":
        cells = result["cells"]
        expected = len(SWEEP_GRID["scales"]) * len(SWEEP_GRID["backends"])
        assert len(cells) == expected, result
        assert all(c["state"] == "succeeded" for c in cells), cells
        assert all(c["rank_sha256"] for c in cells), cells
        assert len(result["records"]) == expected * 4, result
        digests = {(c["backend"], c["scale"]): c["rank_sha256"][:16]
                   for c in cells}
        print(f"sweep succeeded; per-cell digests {digests}")
    else:
        assert len(result["records"]) == 4, result
        assert result["rank_sha256"], result
        print(f"job succeeded; rank digest {result['rank_sha256'][:16]}…")

    if scenario == "observability":
        trace = json.loads(
            urllib.request.urlopen(
                f"{base}/jobs/{job_id}/trace", timeout=30
            ).read()
        )
        events = trace["traceEvents"]
        names = {e["name"] for e in events if e.get("ph") == "X"}
        missing = [n for n in REQUIRED_SPANS if n not in names]
        assert not missing, f"trace missing spans {missing}; have {sorted(names)}"
        assert all(
            e["ts"] >= 0 and e["dur"] >= 0
            for e in events if e.get("ph") == "X"
        ), "trace has negative timestamps/durations"
        print(f"trace ok: {len(events)} events, {len(names)} span names")

        metrics = urllib.request.urlopen(
            f"{base}/metrics", timeout=30
        ).read().decode("utf-8")
        missing = [m for m in REQUIRED_METRICS if m not in metrics]
        assert not missing, f"/metrics missing families {missing}"
        assert 'repro_jobs_finished_total{state="succeeded"}' in metrics, \
            metrics
        print(f"metrics ok: {len(metrics.splitlines())} lines")

        health = json.loads(
            urllib.request.urlopen(f"{base}/healthz", timeout=30).read()
        )
        assert "queue_depth" in health and "workers" in health, health
        print(f"healthz ok: {health}")

        if health.get("worker_kind") == "remote":
            missing = [m for m in REQUIRED_REMOTE_METRICS
                       if m not in metrics]
            assert not missing, f"/metrics missing remote families {missing}"
            assert health.get("workers_connected", 0) >= 1, health
            assert health.get("worker_listen"), health
            assert health["workers"], "remote service has no worker rows"
            for name, row in health["workers"].items():
                assert row["kind"] == "remote", (name, row)
                assert row["transport"] == "tcp", (name, row)
                assert isinstance(
                    row["heartbeat_age_s"], (int, float)
                ), (name, row)
            print(f"remote observability ok: "
                  f"{health['workers_connected']} workers connected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
