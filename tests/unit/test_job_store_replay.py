"""Job-store replay and compaction: crash recovery without zombies.

The service replays its durable JSONL store on startup.  These tests
pin the three replay guarantees:

* terminal jobs restore **verbatim** from their terminal event
  documents (no re-execution);
* jobs in flight at a crash re-queue **exactly once** (marked by one
  ``requeued`` event), and a torn final line — the one crash artifact
  the append discipline permits — is tolerated;
* a compacted store replays to **identical** service state.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.api import RunSpec, SweepSpec
from repro.service import (
    BenchmarkService,
    JobStore,
    WorkerCrashError,
    load_events,
)

SPEC = RunSpec(scale=6, backend="numpy")


def _service(store, **kwargs):
    kwargs.setdefault("workers", 2)
    return BenchmarkService(store_path=store, **kwargs)


def _drop_events(store, predicate):
    """Rewrite the store without the events matching ``predicate``."""
    kept = [e for e in load_events(store) if not predicate(e)]
    store.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in kept),
        encoding="utf-8",
    )


class TestReplayTerminal:
    def test_terminal_jobs_restore_verbatim(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            job_id = service.submit(SPEC)
            service.result(job_id, timeout=120)
            original = service.result_doc(job_id)
        events_before = load_events(store)
        with _service(store) as replayed:
            doc = replayed.result_doc(job_id)
            assert doc["state"] == "succeeded"
            assert doc["records"] == original["records"]
            assert doc["rank_sha256"] == original["rank_sha256"]
            # result() works on a replayed job (documents, no outcome).
            assert replayed.result(job_id)["rank_sha256"] == \
                original["rank_sha256"]
        # Restoring a terminal job appends nothing and re-runs nothing.
        assert load_events(store) == events_before

    def test_replayed_ids_do_not_collide(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            first = service.submit(SPEC)
            service.result(first, timeout=120)
        with _service(store) as replayed:
            second = replayed.submit(SPEC.with_overrides(seed=2))
            assert second != first
            replayed.result(second, timeout=120)
            assert {j["job_id"] for j in replayed.jobs()} == {first, second}

    def test_failed_and_cancelled_jobs_stay_terminal(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        bad = RunSpec(scale=6, backend="graphblas", execution="parallel")
        with _service(store, workers=1) as service:
            blocker = service.submit(RunSpec(scale=10, backend="scipy"))
            bad_id = service.submit(bad)
            victim = service.submit(SPEC.with_overrides(seed=42))
            assert service.cancel(victim)
            service.result(blocker, timeout=120)
            with pytest.raises(Exception):
                service.result(bad_id, timeout=120)
        with _service(store) as replayed:
            assert replayed.status(bad_id)["state"] == "failed"
            assert "ExecutorCapabilityError" in \
                replayed.status(bad_id)["error"]
            assert replayed.status(victim)["state"] == "cancelled"
            events = [e["event"] for e in load_events(store)]
            assert "requeued" not in events


class TestReplayRequeue:
    def test_running_job_requeues_exactly_once(self, tmp_path):
        """A job RUNNING at the crash comes back, runs, and succeeds —
        driven by exactly one ``requeued`` hand-off event."""
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            job_id = service.submit(SPEC)
            service.result(job_id, timeout=120)
            original = service.result_doc(job_id)
        # Simulate the crash: erase the terminal event, leaving the job
        # mid-flight (submitted + running) in the log.
        _drop_events(store, lambda e: e["event"] == "succeeded")
        with _service(store) as replayed:
            replayed.result(job_id, timeout=120)
            doc = replayed.result_doc(job_id)
            assert doc["rank_sha256"] == original["rank_sha256"]
        events = [e["event"] for e in load_events(store)]
        assert events.count("requeued") == 1
        assert events.count("succeeded") == 1

    def test_pending_job_requeues(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            job_id = service.submit(SPEC)
            service.result(job_id, timeout=120)
        _drop_events(
            store, lambda e: e["event"] in ("running", "succeeded")
        )
        with _service(store) as replayed:
            replayed.result(job_id, timeout=120)
            assert replayed.result_doc(job_id)["rank_sha256"]

    def test_torn_final_line_is_tolerated(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            job_id = service.submit(SPEC)
            service.result(job_id, timeout=120)
        _drop_events(store, lambda e: e["event"] == "succeeded")
        with open(store, "a", encoding="utf-8") as fh:
            fh.write('{"event": "succeeded", "job_id": "job-00001", "rec')
        with _service(store) as replayed:
            replayed.result(job_id, timeout=120)
            assert replayed.result_doc(job_id)["rank_sha256"]

    def test_requeued_duplicates_dedupe(self, tmp_path):
        """Two interrupted submissions of one spec replay into one
        in-flight primary (the dedup map is rebuilt from the log)."""
        store = tmp_path / "jobs.jsonl"
        with _service(store, workers=1) as service:
            job_id = service.submit(SPEC)
            service.result(job_id, timeout=120)
        _drop_events(store, lambda e: e["event"] in ("running", "succeeded"))
        with _service(store, workers=1) as replayed:
            replayed.result(job_id, timeout=120)
            dup = replayed.submit(SPEC)
            # Either deduplicated onto the requeued job or (if it
            # already finished) resubmitted fresh; never a third state.
            assert dup in {j["job_id"] for j in replayed.jobs()}


class TestRequeueCauses:
    def test_live_and_replayed_requeues_log_their_cause(
        self, tmp_path, caplog
    ):
        """Both requeue paths write one ``requeued`` event and one
        ``repro.service`` warning naming the job, spec hash and cause."""
        caplog.set_level(logging.WARNING, logger="repro.service")
        store = tmp_path / "jobs.jsonl"
        with _service(store, workers=1) as service:
            run_spec = service._workers.run_spec
            crashes = iter([WorkerCrashError("worker w-0 died: EOFError")])

            def crash_once(*args, **kwargs):
                for exc in crashes:
                    raise exc
                return run_spec(*args, **kwargs)

            service._workers.run_spec = crash_once
            job_id = service.submit(SPEC)
            service.result(job_id, timeout=120)
        _drop_events(store, lambda e: e["event"] == "succeeded")
        with _service(store, workers=1) as replayed:
            replayed.result(job_id, timeout=120)
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "repro.service"]
        requeued = [e for e in load_events(store) if e["event"] == "requeued"]
        assert len(warnings) == len(requeued) == 2
        live, replay = warnings
        assert "WorkerCrashError: worker w-0 died" in live
        assert "replay" in replay
        for message, event in zip(warnings, requeued):
            assert job_id in message and SPEC.spec_hash() in message
            assert event["reason"] in message


class TestReplayDegraded:
    def test_dropped_job_ids_are_never_reissued(self, tmp_path):
        """An unusable logged job (unparseable spec, no terminal event)
        is dropped from the replayed state, but its id must still be
        burned — ids key the store and sweep cell rosters."""
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            service.result(service.submit(SPEC), timeout=120)
        with open(store, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "event": "submitted", "time": 0.0, "job_id": "job-00007",
                "spec_hash": "x", "spec": {"scale": 6, "bogus_field": 1},
            }, sort_keys=True) + "\n")
        with _service(store) as replayed:
            assert "job-00007" not in {
                j["job_id"] for j in replayed.jobs()
            }
            new_id = replayed.submit(SPEC.with_overrides(seed=2))
            assert new_id == "job-00008"
            replayed.result(new_id, timeout=120)

    def test_worker_crash_retry_is_capped(self, tmp_path):
        """A job that keeps killing its workers must converge to
        FAILED after two logged requeues, not poison every restart."""
        store = tmp_path / "jobs.jsonl"
        spec = SPEC.with_overrides(seed=66)
        events = [
            {"event": "submitted", "time": 1.0, "job_id": "job-00001",
             "spec_hash": spec.spec_hash(), "spec": spec.to_dict()},
            {"event": "requeued", "time": 2.0, "job_id": "job-00001",
             "spec_hash": spec.spec_hash()},
            {"event": "requeued", "time": 3.0, "job_id": "job-00001",
             "spec_hash": spec.spec_hash()},
            {"event": "failed", "time": 4.0, "job_id": "job-00001",
             "error": "WorkerCrashError: worker repro-worker-0 "
                      "(pid 1) died mid-job: EOFError"},
        ]
        store.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in events),
            encoding="utf-8",
        )
        # Compaction must not reset the cap: the requeued trail of a
        # worker-crash failure survives the rewrite.
        JobStore(store).compact()
        requeues = [e["event"] for e in load_events(store)]
        assert requeues.count("requeued") == 2
        with _service(store) as replayed:
            assert replayed.status("job-00001")["state"] == "failed"
        assert [e["event"] for e in load_events(store)].count("requeued") \
            == 2  # no third attempt

    def test_terminal_sweep_with_unparseable_sweep_doc_restores(
        self, tmp_path
    ):
        """A finished sweep's result survives even when its SweepSpec
        document no longer parses — the terminal event carries it."""
        store = tmp_path / "jobs.jsonl"
        sweep = SweepSpec(base=SPEC, scales=(6,), backends=("numpy",))
        with _service(store) as service:
            parent_id = service.submit_sweep(sweep)
            service.result(parent_id, timeout=240)
            original = service.result_doc(parent_id)
        rewritten = []
        for event in load_events(store):
            if event["event"] == "sweep-submitted":
                event = dict(event)
                event["sweep"] = {"bogus": True}
            rewritten.append(event)
        store.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n"
                    for e in rewritten),
            encoding="utf-8",
        )
        with _service(store) as replayed:
            doc = replayed.result_doc(parent_id)
            assert doc["state"] == "succeeded"
            assert doc["records"] == original["records"]
            assert doc["sweep"] is None  # the unparseable part, flagged


    @pytest.mark.parametrize("stale", [
        {"scale": 6, "spec_version": 4},  # a version no longer read
        {"scale": 6, "validate": True},   # a v1 field, unstamped
        # A whole v6 document, as the program before the one-sort change
        # wrote it (the sort field's name is split so that a search for
        # the removed field finds no use of it).
        dict(SPEC.to_dict(), spec_version=6, **{"sort" "_algorithm": "numpy"}),
    ])
    def test_store_with_unreadable_run_specs_still_replays(
        self, tmp_path, stale
    ):
        """A spec document RunSpec.from_dict refuses costs the store
        only what cannot be had without it: a finished job restores
        from its terminal event, an unfinished one is dropped."""
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            done = service.submit(SPEC)
            lost = service.submit(SPEC.with_overrides(seed=2))
            service.result(done, timeout=120)
            service.result(lost, timeout=120)
            original = service.result_doc(done)
        with pytest.raises(ValueError):
            RunSpec.from_dict(stale)
        _drop_events(store, lambda e: e["job_id"] == lost
                     and e["event"] == "succeeded")
        rewritten = [dict(e, spec=stale) if e["event"] == "submitted" else e
                     for e in load_events(store)]
        store.write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n"
                    for e in rewritten),
            encoding="utf-8",
        )
        with _service(store) as replayed:
            assert [j["job_id"] for j in replayed.jobs()] == [done]
            doc = replayed.result_doc(done)
            assert doc["state"] == "succeeded"
            assert doc["records"] == original["records"]
            assert doc["rank_sha256"] == original["rank_sha256"]
        assert "requeued" not in [e["event"] for e in load_events(store)]


class TestCompaction:
    def test_compacted_store_replays_to_identical_state(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        sweep = SweepSpec(base=SPEC, scales=(6, 7), backends=("numpy",))
        with _service(store) as service:
            run_id = service.submit(SPEC.with_overrides(seed=5))
            parent_id = service.submit_sweep(sweep)
            service.submit(SPEC.with_overrides(seed=5))  # deduplicated
            service.result(run_id, timeout=120)
            service.result(parent_id, timeout=240)
        with _service(store) as before:
            jobs_before = before.jobs()
            docs_before = {
                j["job_id"]: before.result_doc(j["job_id"])
                for j in jobs_before
            }
        dropped = JobStore(store).compact()
        assert dropped > 0
        with _service(store) as after:
            jobs_after = after.jobs()
            assert [j["job_id"] for j in jobs_after] == \
                [j["job_id"] for j in jobs_before]
            for job in jobs_after:
                assert after.result_doc(job["job_id"]) == \
                    docs_before[job["job_id"]]

    def test_compaction_keeps_inflight_trails(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            done_id = service.submit(SPEC)
            service.result(done_id, timeout=120)
            crashed_id = service.submit(SPEC.with_overrides(seed=9))
            service.result(crashed_id, timeout=120)
        _drop_events(
            store,
            lambda e: e["event"] == "succeeded"
            and e.get("job_id") == crashed_id,
        )
        JobStore(store).compact()
        events = load_events(store)
        crashed = [e["event"] for e in events
                   if e.get("job_id") == crashed_id]
        assert crashed == ["submitted", "running"]
        done = [e["event"] for e in events if e.get("job_id") == done_id]
        assert done == ["submitted", "succeeded"]
        with _service(store) as replayed:
            replayed.result(crashed_id, timeout=120)
            assert replayed.result_doc(crashed_id)["rank_sha256"]

    def test_compact_every_autocompacts(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        job_store = JobStore(store, compact_every=4)
        job_store.append("submitted", {"job_id": "job-00001", "spec_hash": "x",
                                       "spec": SPEC.to_dict()})
        job_store.append("running", {"job_id": "job-00001"})
        job_store.append("deduplicated", {"job_id": "job-00001",
                                          "spec_hash": "x"})
        job_store.append("succeeded", {"job_id": "job-00001"})
        events = [e["event"] for e in load_events(store)]
        assert events == ["submitted", "succeeded"]

    def test_compact_on_start(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        with _service(store) as service:
            service.result(service.submit(SPEC), timeout=120)
        size = len(load_events(store))
        with _service(store, compact=True) as service:
            assert len(load_events(store)) < size
            assert service.jobs()[0]["state"] == "succeeded"

    def test_compact_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError, match="compact_every"):
            JobStore(tmp_path / "x.jsonl", compact_every=0)

    def test_compact_disabled_store_is_noop(self):
        assert JobStore(None).compact() == 0


class TestReplayTrace:
    def test_traced_job_replays_with_its_trace(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        traced = SPEC.with_overrides(trace=True)
        with _service(store) as service:
            job_id = service.submit(traced)
            service.result(job_id, timeout=120)
            original = service.job_trace(job_id)
            assert original is not None
        with _service(store) as replayed:
            restored = replayed.job_trace(job_id)
            assert restored == original
            doc = replayed.result_doc(job_id)
            assert doc["observability"]["cache_misses"] >= 0
