"""Sweep jobs through the service: fan-out, dedup, parity, recovery.

The acceptance bar for the sweep/worker-pool layer: a SweepSpec
submitted to a ``worker_kind="process"`` service (over HTTP) produces a
sweep table bit-identical — rank digests and per-cell records — to
``execute_sweep`` run directly, with duplicate cells deduplicated by
spec hash across the pool, and a service killed mid-sweep resumes from
its store and completes the remaining cells.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from repro.api import (
    RunSpec,
    SweepSpec,
    execute_spec,
    execute_sweep,
    sweep_cells,
)
from repro.service import (
    BenchmarkService,
    JobFailedError,
    load_events,
    serve_in_thread,
)

BASE = RunSpec(scale=6, backend="numpy", validation="off")
SWEEP = SweepSpec(base=BASE, scales=(6, 7), backends=("numpy", "scipy"))


def _strip_timing(record):
    return {k: v for k, v in record.items()
            if k not in ("seconds", "edges_per_second")}


def _record_dicts(records):
    from dataclasses import asdict

    return [asdict(r) for r in records]


class TestSweepCells:
    def test_grid_order_is_backend_major(self):
        cells = sweep_cells(SWEEP)
        assert [(backend, scale) for backend, scale, _spec in cells] == [
            ("numpy", 6), ("numpy", 7), ("scipy", 6), ("scipy", 7),
        ]
        assert all(spec is not None for _b, _s, spec in cells)

    def test_repeats_move_onto_cells(self):
        sweep = SweepSpec(base=BASE, scales=(6,), backends=("numpy",),
                          repeats=3)
        (_b, _s, spec), = sweep_cells(sweep)
        assert spec.repeats == 3

    def test_uncapable_backend_is_skipped(self):
        sweep = SweepSpec(
            base=BASE.with_overrides(execution="streaming"),
            scales=(6,), backends=("python", "scipy"),
        )
        cells = sweep_cells(sweep)
        assert cells[0][2] is None  # python lacks 'streaming'
        assert cells[1][2] is not None

    def test_no_capable_backend_raises(self):
        sweep = SweepSpec(
            base=BASE.with_overrides(execution="streaming"),
            scales=(6,), backends=("python",),
        )
        with pytest.raises(ValueError, match="streaming"):
            sweep_cells(sweep)


class TestExecuteSweep:
    """``execute_sweep`` is ``execute_spec`` over ``sweep_cells`` — the
    same lowering the service fans out — and nothing else."""

    SKIPPING = SweepSpec(
        base=BASE.with_overrides(execution="streaming"),
        scales=(6, 7), backends=("python", "scipy", "numpy"), repeats=2,
    )

    def test_records_are_the_cells_outcomes_concatenated(self, monkeypatch):
        from repro.api import runner

        outcomes = []

        def spy(spec, **kwargs):
            outcomes.append(runner_execute_spec(spec, **kwargs))
            return outcomes[-1]

        runner_execute_spec = runner.execute_spec
        monkeypatch.setattr(runner, "execute_spec", spy)
        records = execute_sweep(self.SKIPPING)
        runnable = [spec for _b, _s, spec in sweep_cells(self.SKIPPING)
                    if spec is not None]
        assert len(runnable) == 4  # python's two cells are skipped
        assert [o.spec for o in outcomes] == runnable
        assert records == [r for o in outcomes for r in o.records]
        assert {r.backend for r in records} == {"scipy", "numpy"}

    def test_progress_fires_per_cell_per_repeat(self):
        calls = []
        execute_sweep(
            self.SKIPPING,
            progress=lambda cfg, rep: calls.append(
                (cfg.backend, cfg.scale, rep)),
        )
        assert calls == [
            (backend, scale, repeat)
            for backend in ("scipy", "numpy") for scale in (6, 7)
            for repeat in (0, 1)
        ]

    def test_service_sweep_table_has_the_same_cells_in_order(self):
        with BenchmarkService(workers=2) as service:
            doc = service.result(service.submit_sweep(self.SKIPPING),
                                 timeout=240)
        cells = sweep_cells(self.SKIPPING)
        assert [(c["backend"], c["scale"], c["state"] == "skipped")
                for c in doc["cells"]] == \
            [(b, s, spec is None) for b, s, spec in cells]
        direct = _record_dicts(execute_sweep(self.SKIPPING))
        assert [_strip_timing(r) for r in doc["records"]] == \
            [_strip_timing(r) for r in direct]

    def test_no_capable_backend_raises_before_running(self):
        sweep = SweepSpec(
            base=BASE.with_overrides(execution="streaming"),
            scales=(6,), backends=("python",),
        )
        with pytest.raises(ValueError, match="supports execution"):
            execute_sweep(sweep, progress=lambda *_: pytest.fail("ran"))


class TestSweepJobs:
    def test_sweep_table_matches_execute_sweep(self, tmp_path):
        with BenchmarkService(workers=4) as service:
            parent_id = service.submit_sweep(SWEEP)
            doc = service.result(parent_id, timeout=240)
        assert doc["state"] == "succeeded"
        direct = _record_dicts(execute_sweep(SWEEP))
        assert [_strip_timing(r) for r in doc["records"]] == \
            [_strip_timing(r) for r in direct]
        # Per-cell digests match a direct run of each cell spec.
        for cell, (_b, _s, spec) in zip(doc["cells"], sweep_cells(SWEEP)):
            assert cell["state"] == "succeeded"
            assert cell["rank_sha256"] == execute_spec(spec).rank_digest

    def test_parent_view_lists_cells(self):
        with BenchmarkService(workers=2) as service:
            parent_id = service.submit_sweep(SWEEP)
            view = service.status(parent_id)
            assert view["kind"] == "sweep"
            assert view["sweep"]["scales"] == [6, 7]
            assert len(view["cells"]) == 4
            assert all(c["job_id"] for c in view["cells"])
            service.result(parent_id, timeout=240)

    def test_duplicate_cells_dedupe_onto_one_child(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        sweep = SweepSpec(base=BASE, scales=(6, 6), backends=("numpy",))
        with BenchmarkService(workers=1, store_path=store) as service:
            parent_id = service.submit_sweep(sweep)
            doc = service.result(parent_id, timeout=240)
        cells = doc["cells"]
        assert cells[0]["job_id"] == cells[1]["job_id"]
        # The duplicate cell still contributes a row (the harness would
        # have run it twice; the pool ran it once).
        assert len(doc["records"]) == 8
        events = [e["event"] for e in load_events(store)]
        assert events.count("deduplicated") == 1

    def test_duplicate_sweeps_dedupe(self):
        with BenchmarkService(workers=1) as service:
            first = service.submit_sweep(SWEEP)
            second = service.submit_sweep(SWEEP)
            assert first == second
            service.result(first, timeout=240)

    def test_skipped_cells_recorded_not_failed(self):
        sweep = SweepSpec(
            base=BASE.with_overrides(execution="streaming"),
            scales=(6,), backends=("python", "scipy"),
        )
        with BenchmarkService(workers=2) as service:
            doc = service.result(service.submit_sweep(sweep), timeout=240)
        assert doc["state"] == "succeeded"
        by_backend = {c["backend"]: c for c in doc["cells"]}
        assert by_backend["python"]["state"] == "skipped"
        assert by_backend["scipy"]["state"] == "succeeded"
        assert {r["backend"] for r in doc["records"]} == {"scipy"}

    def test_failing_cell_fails_parent_with_roster(self):
        # A diverging configuration: the paper-body formula with heavy
        # damping FAILs the eigenvector cross-check, so the cell fails
        # and the parent must surface the roster of failed cells.
        sweep = SweepSpec(
            base=BASE.with_overrides(
                iterations=2, damping=0.99, formula="paper-body",
                validation="full",
            ),
            scales=(6,), backends=("numpy",),
        )
        with BenchmarkService(workers=1) as service:
            parent_id = service.submit_sweep(sweep)
            with pytest.raises(JobFailedError, match="sweep cells"):
                service.result(parent_id, timeout=240)
            doc = service.result_doc(parent_id)
            assert doc["state"] == "failed"
            assert doc["cells"][0]["state"] == "failed"
            assert "validation" in doc["cells"][0]["error"]


class TestProcessPoolSweepParity:
    def test_http_sweep_on_process_pool_bit_identical(self, tmp_path):
        """The PR's acceptance criterion, end to end: SweepSpec over
        HTTP onto a process pool == execute_sweep run directly."""
        service = BenchmarkService(
            workers=2, worker_kind="process",
            cache_dir=tmp_path / "cache",
            store_path=tmp_path / "jobs.jsonl",
        )
        server, _thread = serve_in_thread(service, port=0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            request = urllib.request.Request(
                f"{base}/jobs",
                data=json.dumps({"sweep": SWEEP.to_dict()}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                submitted = json.loads(response.read())
            assert submitted["kind"] == "sweep"
            parent_id = submitted["job_id"]
            deadline = time.monotonic() + 240
            while time.monotonic() < deadline:
                with urllib.request.urlopen(
                    f"{base}/jobs/{parent_id}", timeout=30
                ) as response:
                    status = json.loads(response.read())
                if status["state"] not in ("pending", "running"):
                    break
                time.sleep(0.1)
            assert status["state"] == "succeeded", status
            with urllib.request.urlopen(
                f"{base}/jobs/{parent_id}/result", timeout=30
            ) as response:
                doc = json.loads(response.read())
        finally:
            server.shutdown()
            server.server_close()
            service.close(wait=False)
        direct = _record_dicts(execute_sweep(SWEEP))
        assert [_strip_timing(r) for r in doc["records"]] == \
            [_strip_timing(r) for r in direct]
        for cell, (_b, _s, spec) in zip(doc["cells"], sweep_cells(SWEEP)):
            assert cell["rank_sha256"] == execute_spec(spec).rank_digest


class TestMidSweepRecovery:
    def test_restart_completes_remaining_cells(self, tmp_path):
        """Kill the service mid-sweep (simulated by erasing the tail of
        the store back to the crash point); a fresh service replays,
        re-runs only the unfinished cells, and completes the parent."""
        store = tmp_path / "jobs.jsonl"
        with BenchmarkService(workers=2, store_path=store) as service:
            parent_id = service.submit_sweep(SWEEP)
            reference = service.result(parent_id, timeout=240)
        events = load_events(store)
        finished = [e for e in events if e["event"] == "succeeded"]
        assert len(finished) == 5  # 4 cells + the parent
        # Crash point: the last two cells and the parent never finished.
        survivors = {e["job_id"] for e in finished[:2]}
        crashed_line = json.dumps(finished[2], sort_keys=True)
        text = store.read_text(encoding="utf-8")
        store.write_text(
            text[: text.index(crashed_line)], encoding="utf-8"
        )
        remaining = load_events(store)
        assert [e for e in remaining if e["event"] == "succeeded"] == \
            finished[:2]
        with BenchmarkService(workers=2, store_path=store) as revived:
            doc = revived.result(parent_id, timeout=240)
            assert doc["state"] == "succeeded"
            # Finished cells were restored, not re-run; the rest were
            # requeued exactly once each.
            events = load_events(store)
            requeued = {e["job_id"] for e in events
                        if e["event"] == "requeued"}
            assert requeued, "expected unfinished cells to requeue"
            assert not (requeued & survivors)
        assert [c["rank_sha256"] for c in doc["cells"]] == \
            [c["rank_sha256"] for c in reference["cells"]]
        assert [_strip_timing(r) for r in doc["records"]] == \
            [_strip_timing(r) for r in reference["records"]]

    def test_graceful_shutdown_mid_sweep_resumes_on_restart(self, tmp_path):
        """^C mid-sweep (process workers): the in-flight cell is FAILED
        in the store (no zombie RUNNING entry), the parent is left open,
        and a restarted service retries the killed cell and completes
        the sweep."""
        import time as _time

        store = tmp_path / "jobs.jsonl"
        sweep = SweepSpec(
            base=RunSpec(scale=11, backend="scipy", validation="off"),
            scales=(11, 12), backends=("numpy", "scipy"),
        )
        service = BenchmarkService(
            workers=1, worker_kind="process", store_path=store
        )
        parent_id = service.submit_sweep(sweep)
        deadline = _time.monotonic() + 120
        while _time.monotonic() < deadline:
            states = {j["job_id"]: j["state"] for j in service.jobs()}
            if "running" in states.values():
                break
            _time.sleep(0.02)
        service.close(wait=False)
        events = load_events(store)
        by_job = {}
        for event in events:
            by_job.setdefault(event.get("job_id"), []).append(event["event"])
        # The parent has no terminal event — the sweep stays resumable.
        assert not set(by_job[parent_id]) & \
            {"succeeded", "failed", "cancelled"}
        # No job is left durably RUNNING without a terminal event
        # unless it never produced a failure record (queued ones), and
        # any in-flight cell at the kill is recorded failed.
        failed = [e for e in events if e["event"] == "failed"]
        for event in failed:
            assert event["error"].startswith("WorkerCrashError")
        with BenchmarkService(workers=2, store_path=store) as revived:
            doc = revived.result(parent_id, timeout=240)
        assert doc["state"] == "succeeded"
        assert all(c["state"] == "succeeded" for c in doc["cells"])
        for cell, (_b, _s, spec) in zip(doc["cells"], sweep_cells(sweep)):
            assert cell["rank_sha256"] == execute_spec(spec).rank_digest

    def test_replayed_sweep_view_keeps_reference_shape(self, tmp_path):
        """A replayed terminal parent's status() lists cell references
        only — the table stays in the result payload, same as live."""
        store = tmp_path / "jobs.jsonl"
        with BenchmarkService(workers=2, store_path=store) as service:
            parent_id = service.submit_sweep(SWEEP)
            service.result(parent_id, timeout=240)
            live_view = service.status(parent_id)
        with BenchmarkService(workers=1, store_path=store) as replayed:
            view = replayed.status(parent_id)
            assert sorted(view["cells"][0]) == sorted(live_view["cells"][0])
            assert "records" not in view["cells"][0]
            doc = replayed.result_doc(parent_id)
            # Records live once, in the flattened grid-ordered table;
            # cell docs carry state + digest references only.
            assert len(doc["records"]) == 16
            assert "records" not in doc["cells"][0]
            assert doc["cells"][0]["rank_sha256"]

    def test_worker_crash_failed_cells_and_parent_reopen(self, tmp_path):
        """Cells durably FAILED by a worker kill (WorkerCrashError) are
        retried on replay, and a parent that failed only because of
        them is reopened and completes."""
        store = tmp_path / "jobs.jsonl"
        with BenchmarkService(workers=2, store_path=store) as service:
            parent_id = service.submit_sweep(SWEEP)
            reference = service.result(parent_id, timeout=240)
        events = load_events(store)
        crashed_cell = next(
            e["job_id"] for e in events
            if e["event"] == "succeeded" and e["job_id"] != parent_id
        )
        rewritten = []
        for event in events:
            if event["event"] == "succeeded" and \
                    event["job_id"] == crashed_cell:
                rewritten.append({
                    "event": "failed", "time": event["time"],
                    "job_id": crashed_cell,
                    "error": "WorkerCrashError: worker repro-worker-0 "
                             "(pid 1) died mid-job: EOFError",
                })
            elif event["event"] == "succeeded" and \
                    event["job_id"] == parent_id:
                rewritten.append({
                    "event": "failed", "time": event["time"],
                    "job_id": parent_id,
                    "error": "1 of 4 sweep cells did not succeed",
                })
            else:
                rewritten.append(event)
        store.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n"
                    for e in rewritten),
            encoding="utf-8",
        )
        with BenchmarkService(workers=2, store_path=store) as revived:
            doc = revived.result(parent_id, timeout=240)
        assert doc["state"] == "succeeded"
        assert [c["rank_sha256"] for c in doc["cells"]] == \
            [c["rank_sha256"] for c in reference["cells"]]
        events = [e["event"] for e in load_events(store)]
        assert events.count("requeued") == 1

    def test_stale_failed_parent_with_succeeded_cells_reopens(
        self, tmp_path
    ):
        """A crash can land after the last cell's succeeded event but
        before the parent's — replay must not trust the stale parent
        failure when every cell in fact succeeded."""
        store = tmp_path / "jobs.jsonl"
        with BenchmarkService(workers=2, store_path=store) as service:
            parent_id = service.submit_sweep(SWEEP)
            reference = service.result(parent_id, timeout=240)
        rewritten = []
        for event in load_events(store):
            if event["event"] == "succeeded" and \
                    event["job_id"] == parent_id:
                rewritten.append({
                    "event": "failed", "time": event["time"],
                    "job_id": parent_id,
                    "error": "1 of 4 sweep cells did not succeed: "
                             "numpy/s6 (failed)",
                })
            else:
                rewritten.append(event)
        store.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n"
                    for e in rewritten),
            encoding="utf-8",
        )
        with BenchmarkService(workers=2, store_path=store) as revived:
            doc = revived.result(parent_id, timeout=240)
        assert doc["state"] == "succeeded"
        assert [c["rank_sha256"] for c in doc["cells"]] == \
            [c["rank_sha256"] for c in reference["cells"]]
        # No cell re-ran: the reopen re-finalized from logged results.
        events = [e["event"] for e in load_events(store)]
        assert "requeued" not in events

    def test_crash_mid_lowering_relowers(self, tmp_path):
        """A store holding sweep-submitted but no sweep-cells (the
        crash hit during fan-out) re-lowers the grid on replay."""
        store = tmp_path / "jobs.jsonl"
        with BenchmarkService(workers=2, store_path=store) as service:
            parent_id = service.submit_sweep(SWEEP)
            service.result(parent_id, timeout=240)
        kept = [
            e for e in load_events(store)
            if e["event"] in ("sweep-submitted",)
            or (e["event"] == "submitted"
                and e["job_id"] != parent_id)
        ]
        # Keep only the submissions; every cell and the parent are
        # mid-flight, and the parent never recorded its cells.
        store.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n"
                    for e in kept),
            encoding="utf-8",
        )
        with BenchmarkService(workers=2, store_path=store) as revived:
            doc = revived.result(parent_id, timeout=240)
            assert doc["state"] == "succeeded"
            assert len(doc["cells"]) == 4
            assert all(c["state"] == "succeeded" for c in doc["cells"])
