"""HTTP front end: submit over the wire, poll, fetch, cancel."""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.api import RunSpec, execute_spec
from repro.service import BenchmarkService, serve_in_thread


@pytest.fixture()
def served(tmp_path):
    """A live server on an ephemeral port; yields its base URL."""
    service = BenchmarkService(
        workers=2,
        cache_dir=tmp_path / "cache",
        store_path=tmp_path / "jobs.jsonl",
    )
    server, _thread = serve_in_thread(service, port=0)
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    service.close(wait=False)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(url: str, doc):
    request = urllib.request.Request(
        url,
        data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _raw_request(base: str, method: str, path: str, length, body=b""):
    """Send ``body`` (none by default) under a declared
    ``Content-Length: length`` (no header for ``None``); return the
    status and error document.  The short timeout turns a handler that
    waits for body bytes into a failure instead of a hang."""
    url = urllib.parse.urlsplit(base)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        conn.putrequest(method, path)
        conn.putheader("Content-Type", "application/json")
        if length is not None:
            conn.putheader("Content-Length", length)
        conn.endheaders(body or None)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _poll_terminal(base: str, job_id: str, timeout: float = 120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, doc = _get(f"{base}/jobs/{job_id}")
        if doc["state"] not in ("pending", "running"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestHTTPService:
    def test_healthz(self, served):
        status, doc = _get(f"{served}/healthz")
        assert status == 200
        assert doc["status"] == "ok"

    def test_scenarios_listing(self, served):
        status, doc = _get(f"{served}/scenarios")
        assert status == 200
        names = [s["name"] for s in doc["scenarios"]]
        assert "smoke" in names and "paper-s18" in names

    def test_submit_spec_poll_and_fetch_result(self, served):
        spec = RunSpec(scale=6, seed=5, backend="numpy")
        status, doc = _post(f"{served}/jobs", {"spec": spec.to_dict()})
        assert status == 202
        job_id = doc["job_id"]
        final = _poll_terminal(served, job_id)
        assert final["state"] == "succeeded"
        _, result = _get(f"{served}/jobs/{job_id}/result")
        assert len(result["records"]) == 4
        # Wire-level parity: the digest matches a direct in-process run.
        assert result["rank_sha256"] == execute_spec(spec).rank_digest

    def test_submit_scenario_with_overrides(self, served):
        status, doc = _post(
            f"{served}/jobs",
            {"scenario": "smoke", "overrides": {"seed": 11}},
        )
        assert status == 202
        assert doc["spec"]["seed"] == 11
        final = _poll_terminal(served, doc["job_id"])
        assert final["state"] == "succeeded"

    def test_result_of_inflight_job_is_409(self, served):
        _, doc = _post(f"{served}/jobs", {"spec": {"scale": 10}})
        job_id = doc["job_id"]
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{served}/jobs/{job_id}/result", timeout=30
                )
            assert excinfo.value.code == 409
        finally:
            _poll_terminal(served, job_id)

    def test_bad_submissions_are_400(self, served):
        for body in (
            {"spec": {"scale": 6, "bogus": 1}},
            {"scenario": "no-such-scenario"},
            {"neither": True},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{served}/jobs", body)
            assert excinfo.value.code == 400

    def test_mistyped_fields_are_400_and_queue_nothing(self, served):
        # Checked, never coerced: "no" is not a bool, "68" is not the
        # scales 6 and 8.
        for body in (
            {"scenario": "smoke", "overrides": {"sort_by_end_vertex": "no"}},
            {"sweep": {"base": RunSpec(scale=6).to_dict(),
                       "scales": "68", "backends": ["numpy"]}},
            {"scenario": "smoke", "sweep": {"scales": "68"}},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{served}/jobs", body)
            assert excinfo.value.code == 400, body
        assert _get(f"{served}/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("shape", ["spec", "overrides"])
    def test_removed_field_is_400_naming_it_and_queues_nothing(
            self, served, shape):
        field = "external" "_sort"  # split: no leftover use to search for
        body = ({"spec": {"scale": 6, field: True}} if shape == "spec" else
                {"scenario": "smoke", "overrides": {field: False}})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{served}/jobs", body)
        assert excinfo.value.code == 400
        assert field in json.loads(excinfo.value.read())["error"]
        assert _get(f"{served}/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("shape", ["spec", "overrides", "sweep", "grid"])
    def test_data_dir_is_400_and_queues_nothing(self, served, tmp_path, shape):
        # A path on the server host is the host's to choose, through
        # every body shape that builds a spec or a sweep base.
        target = tmp_path / "elsewhere"
        body = {
            "spec": {"spec": {"scale": 6, "data_dir": str(target)}},
            "overrides": {"scenario": "smoke",
                          "overrides": {"data_dir": str(target)}},
            "sweep": {"sweep": {
                "base": RunSpec(scale=6, data_dir=str(target)).to_dict(),
                "scales": [6], "backends": ["numpy"]}},
            "grid": {"scenario": "smoke",
                     "overrides": {"data_dir": str(target)},
                     "sweep": {"scales": [6]}},
        }[shape]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{served}/jobs", body)
        assert excinfo.value.code == 400
        assert "data_dir" in json.loads(excinfo.value.read())["error"]
        assert _get(f"{served}/jobs")[1]["jobs"] == []
        assert not target.exists()

    @pytest.mark.parametrize("shape", ["spec", "overrides", "sweep", "grid"])
    def test_num_files_above_m_is_400_and_queues_nothing(self, served, shape):
        # One shard per edge is the most a run may ask for.  A sweep is
        # refused as a whole when any cell's scale has fewer edges
        # (here scale 4, M = 256) than the base asks files of.
        body = {
            "spec": {"spec": {"scale": 10, "num_files": 100_000_000}},
            "overrides": {"scenario": "smoke",
                          "overrides": {"scale": 4, "num_files": 257}},
            "sweep": {"sweep": {
                "base": RunSpec(scale=10, num_files=300).to_dict(),
                "scales": [10, 4], "backends": ["numpy"]}},
            "grid": {"scenario": "smoke", "overrides": {"num_files": 300},
                     "sweep": {"scales": [4]}},
        }[shape]
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{served}/jobs", body)
        assert excinfo.value.code == 400
        assert "num_files" in json.loads(excinfo.value.read())["error"]
        assert _get(f"{served}/jobs")[1]["jobs"] == []

    def test_null_data_dir_is_accepted(self, served):
        # The refusal is of a path, not of the key: null is the default.
        status, doc = _post(
            f"{served}/jobs", {"spec": {"scale": 6, "data_dir": None}}
        )
        assert status == 202
        assert _poll_terminal(served, doc["job_id"])["state"] == "succeeded"

    def test_in_process_submit_keeps_data_dir(self, tmp_path):
        # Only the HTTP front end refuses the field; a caller in the
        # server's own process chooses its own paths.
        target = tmp_path / "kept"
        service = BenchmarkService(workers=1)
        try:
            job_id = service.submit(RunSpec(scale=6, data_dir=str(target)))
            service.result(job_id, timeout=120)
        finally:
            service.close()
        assert (target / "k0" / "manifest.json").is_file()

    def test_unknown_job_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{served}/jobs/job-99999", timeout=30)
        assert excinfo.value.code == 404

    def test_unknown_route_is_404(self, served):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{served}/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_jobs_listing(self, served):
        _, doc = _post(f"{served}/jobs", {"scenario": "smoke"})
        _poll_terminal(served, doc["job_id"])
        status, listing = _get(f"{served}/jobs")
        assert status == 200
        assert any(j["job_id"] == doc["job_id"] for j in listing["jobs"])


class TestHTTPBodyLength:
    """Every refusal below is answered before the body is sent."""

    def test_negative_post_length_is_400(self, served):
        status, doc = _raw_request(served, "POST", "/jobs", "-1")
        assert status == 400
        assert "Content-Length" in doc["error"]

    def test_oversize_post_length_is_413(self, served):
        status, _ = _raw_request(
            served, "POST", "/jobs", str(1024 * 1024 + 1)
        )
        assert status == 413
        assert _get(f"{served}/jobs")[1]["jobs"] == []

    def test_missing_post_length_reads_as_an_empty_body(self, served):
        status, doc = _raw_request(served, "POST", "/jobs", None)
        assert status == 400
        assert "body must carry" in doc["error"]

    def test_post_of_exactly_the_limit_is_read(self, served):
        # The limit is inclusive: a 1 MiB body is parsed, so the refusal
        # is the empty document's, not the length's.
        body = b"{}".ljust(1024 * 1024)
        status, doc = _raw_request(
            served, "POST", "/jobs", str(len(body)), body
        )
        assert status == 400
        assert "body must carry" in doc["error"]


class TestNoArtifactRoutes:
    """The wire carries jobs, not files: no cache entry is listed,
    served or accepted over HTTP, even with a populated cache root."""

    def test_artifact_routes_answer_nothing_and_store_nothing(
        self, served, tmp_path
    ):
        from repro.core.artifacts import ArtifactCache

        spec = RunSpec(scale=6, seed=2, backend="scipy")
        _, doc = _post(f"{served}/jobs", {"spec": spec.to_dict()})
        assert _poll_terminal(served, doc["job_id"])["state"] == "succeeded"
        cache = ArtifactCache(tmp_path / "cache")
        [k0] = [entry for entry in cache.entries() if entry.kind == "k0"]
        # A well-formed entry archive the service does not hold yet.
        execute_spec(RunSpec(scale=6, seed=3, backend="scipy"),
                     cache_dir=tmp_path / "elsewhere")
        other = ArtifactCache(tmp_path / "elsewhere")
        [foreign] = [e for e in other.entries() if e.kind == "k0"]
        archive = other.export_entry("k0", foreign.key)
        assert archive

        def files():
            return sorted(
                str(path.relative_to(tmp_path / "cache"))
                for path in (tmp_path / "cache").rglob("*")
            )

        def metrics():
            with urllib.request.urlopen(f"{served}/metrics", timeout=30) as r:
                return r.read().decode("utf-8")

        before = (files(), _get(f"{served}/jobs")[1], metrics())
        for path in ("/artifacts", f"/artifacts/k0/{k0.key}"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{served}{path}", timeout=30)
            assert excinfo.value.code == 404, path
        url = urllib.parse.urlsplit(served)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
        try:
            conn.request("PUT", f"/artifacts/k0/{foreign.key}", archive,
                         {"Content-Type": "application/x-tar"})
            status = conn.getresponse().status
        finally:
            conn.close()
        assert status >= 400
        assert not cache.published("k0", foreign.key)
        assert (files(), _get(f"{served}/jobs")[1], metrics()) == before
        assert "artifact_sync" not in before[2]


class TestHTTPSweeps:
    def test_submit_sweepspec_document(self, served):
        sweep = {
            "base": RunSpec(scale=6, backend="numpy").to_dict(),
            "scales": [6, 7],
            "backends": ["numpy"],
        }
        status, doc = _post(f"{served}/jobs", {"sweep": sweep})
        assert status == 202
        assert doc["kind"] == "sweep"
        assert [c["scale"] for c in doc["cells"]] == [6, 7]
        final = _poll_terminal(served, doc["job_id"], timeout=240)
        assert final["state"] == "succeeded"
        _, result = _get(f"{served}/jobs/{doc['job_id']}/result")
        assert len(result["records"]) == 8  # 2 cells x 4 kernels
        assert all(c["rank_sha256"] for c in result["cells"])

    def test_submit_scenario_with_sweep_grid(self, served):
        status, doc = _post(
            f"{served}/jobs",
            {"scenario": "smoke",
             "overrides": {"seed": 3},
             "sweep": {"scales": [6], "backends": ["numpy", "scipy"]}},
        )
        assert status == 202
        assert doc["sweep"]["base"]["seed"] == 3
        final = _poll_terminal(served, doc["job_id"], timeout=240)
        assert final["state"] == "succeeded"
        # An omitted axis inherits the scenario's own value.
        status, doc = _post(
            f"{served}/jobs",
            {"scenario": "smoke", "sweep": {"backends": ["scipy"]}},
        )
        assert status == 202
        assert doc["sweep"]["scales"] == [6]
        _poll_terminal(served, doc["job_id"], timeout=240)

    def test_scenario_repeats_default_into_grid(self, served):
        """A scenario's own repeats (cache-warm: best-of-3) becomes the
        sweep's per-cell repeat count instead of being silently reset."""
        status, doc = _post(
            f"{served}/jobs",
            {"scenario": "cache-warm",
             "sweep": {"scales": [6], "backends": ["numpy"]}},
        )
        assert status == 202
        assert doc["sweep"]["repeats"] == 3
        assert doc["sweep"]["base"]["repeats"] == 1
        final = _poll_terminal(served, doc["job_id"], timeout=240)
        assert final["state"] == "succeeded"

    def test_sweep_result_is_409_in_flight(self, served):
        _, doc = _post(
            f"{served}/jobs",
            {"scenario": "smoke", "sweep": {"scales": [6, 7, 8]}},
        )
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{served}/jobs/{doc['job_id']}/result", timeout=30
                )
            assert excinfo.value.code == 409
        finally:
            _poll_terminal(served, doc["job_id"], timeout=240)

    def test_bad_sweep_bodies_are_400(self, served):
        for body in (
            {"sweep": {"scales": [6]}},  # no base, no scenario
            {"sweep": []},  # not an object
            {"scenario": "smoke", "sweep": {"bogus": 1}},
            {"scenario": "smoke", "sweep": {"scales": []}},
            # repeats must ride in the sweep grid, not in overrides
            {"scenario": "smoke", "overrides": {"repeats": 3},
             "sweep": {"scales": [6]}},
            # overrides/spec next to a full SweepSpec doc would be
            # silently ignored — refused instead
            {"sweep": {"base": RunSpec(scale=6).to_dict(),
                       "scales": [6], "backends": ["numpy"]},
             "overrides": {"seed": 9}},
            {"scenario": "smoke", "sweep": {"scales": [6]},
             "spec": RunSpec(scale=6).to_dict()},
            # swept axes cannot come in as overrides either
            {"scenario": "smoke", "overrides": {"scale": 12},
             "sweep": {"scales": [6, 7]}},
            {"scenario": "smoke", "overrides": {"backend": "scipy"},
             "sweep": {"scales": [6], "backends": ["numpy"]}},
            # no backend in the grid supports the strategy
            {"sweep": {
                "base": RunSpec(
                    scale=6, execution="streaming"
                ).to_dict(),
                "scales": [6], "backends": ["python"],
            }},
        ):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(f"{served}/jobs", body)
            assert excinfo.value.code == 400, body


class TestObservabilityEndpoints:
    """`/metrics`, `/jobs/<id>/trace`, and the extended `/healthz`."""

    def _get_text(self, url: str):
        with urllib.request.urlopen(url, timeout=30) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )

    def test_healthz_reports_queue_and_workers(self, served):
        status, doc = _get(f"{served}/healthz")
        assert status == 200
        assert doc["queue_depth"] == 0
        assert doc["workers"] == {}

    def test_healthz_job_counts_match_job_listing(self, served):
        _, empty = _get(f"{served}/healthz")
        assert empty["jobs"] == 0 and empty["in_flight"] == 0
        _, doc = _post(f"{served}/jobs", {"scenario": "smoke"})
        _poll_terminal(served, doc["job_id"])
        _, health = _get(f"{served}/healthz")
        _, listing = _get(f"{served}/jobs")
        assert health["jobs"] == len(listing["jobs"]) == 1
        assert health["in_flight"] == 0

    def test_metrics_before_any_job(self, served):
        status, content_type, text = self._get_text(f"{served}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "repro_queue_depth 0" in text
        assert "repro_workers_spawned_total 0" in text
        assert "# TYPE repro_kernel_seconds histogram" in text

    def test_metrics_accumulate_after_jobs(self, served):
        _, doc = _post(f"{served}/jobs", {"scenario": "smoke"})
        _poll_terminal(served, doc["job_id"])
        _, _, text = self._get_text(f"{served}/metrics")
        assert 'repro_jobs_finished_total{state="succeeded"} 1' in text
        assert 'repro_jobs{state="succeeded"} 1' in text
        # One smoke run = four kernels, each observed once.
        assert 'repro_kernel_seconds_count{kernel="k3-pagerank"} 1' in text
        assert 'le="+Inf"} 1' in text
        assert "repro_artifact_cache_probes_total" in text

    def test_trace_of_untraced_job_is_404(self, served):
        _, doc = _post(f"{served}/jobs", {"scenario": "smoke"})
        _poll_terminal(served, doc["job_id"])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"{served}/jobs/{doc['job_id']}/trace", timeout=30
            )
        assert excinfo.value.code == 404
        assert "trace" in excinfo.value.read().decode("utf-8")

    def test_trace_of_inflight_job_is_409(self, served):
        _, doc = _post(f"{served}/jobs", {"spec": {"scale": 10}})
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"{served}/jobs/{doc['job_id']}/trace", timeout=30
                )
            assert excinfo.value.code == 409
        finally:
            _poll_terminal(served, doc["job_id"])

    def test_traced_job_serves_a_chrome_trace(self, served):
        _, doc = _post(
            f"{served}/jobs",
            {"scenario": "smoke", "overrides": {"trace": True}},
        )
        final = _poll_terminal(served, doc["job_id"])
        assert final["state"] == "succeeded"
        status, trace_doc = _get(f"{served}/jobs/{doc['job_id']}/trace")
        assert status == 200
        assert trace_doc["displayTimeUnit"] == "ms"
        complete = [
            e for e in trace_doc["traceEvents"] if e.get("ph") == "X"
        ]
        names = {e["name"] for e in complete}
        # Pipeline-side and service-side lifecycle spans on one axis.
        for required in (
            "pipeline", "stage:k0-generate", "stage:k1-sort",
            "stage:k2-filter", "stage:k3-pagerank",
            f"job:{doc['job_id']}", "job:queue", "job:dispatch",
            "job:run", "job:result",
        ):
            assert required in names, (required, sorted(names))
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
        procs = {e["pid"] for e in complete}
        assert len(procs) >= 2  # pipeline "main" + "service" rows
