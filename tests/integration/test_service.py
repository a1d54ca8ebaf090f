"""BenchmarkService: concurrent parity, dedup, durability, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunSpec, execute_spec, rank_sha256
from repro.core.config import PipelineConfig
from repro.core.pipeline import run_pipeline
from repro.service import (
    BenchmarkService,
    JobCancelledError,
    JobFailedError,
    JobState,
    UnknownJobError,
    load_events,
)


class TestConcurrentParity:
    def test_eight_concurrent_jobs_bit_identical_to_direct_runs(self):
        """The acceptance bar: N concurrently submitted jobs produce
        rank vectors bit-identical to the same specs run directly."""
        specs = [
            RunSpec(scale=6, seed=seed, backend=backend)
            for seed in (1, 2, 3, 4)
            for backend in ("numpy", "scipy")
        ]
        assert len(specs) == 8
        with BenchmarkService(workers=4) as service:
            job_ids = [service.submit(spec) for spec in specs]
            outcomes = [service.result(job_id, timeout=120)
                        for job_id in job_ids]
        for spec, outcome in zip(specs, outcomes):
            direct = run_pipeline(spec.to_config())
            assert outcome.rank is not None
            assert np.array_equal(outcome.rank, direct.rank), spec
            assert outcome.rank_digest == rank_sha256(direct.rank)
            kernels = [record.kernel for record in outcome.records]
            assert kernels == ["k0-generate", "k1-sort", "k2-filter",
                               "k3-pagerank"]

    def test_service_matches_api_runner(self):
        spec = RunSpec(scale=6, seed=9, backend="numpy")
        with BenchmarkService(workers=2) as service:
            via_service = service.result(service.submit(spec))
        via_api = execute_spec(spec)
        assert via_service.rank_digest == via_api.rank_digest


class TestDeduplication:
    def test_inflight_duplicates_collapse_to_one_job(self, tmp_path):
        cache = tmp_path / "cache"
        store = tmp_path / "jobs.jsonl"
        spec = RunSpec(scale=8, backend="scipy")
        # One worker: the first submit occupies it, so duplicates are
        # deterministically still in flight when submitted.
        with BenchmarkService(
            workers=1, cache_dir=cache, store_path=store
        ) as service:
            first = service.submit(spec)
            dup_a = service.submit(spec)
            dup_b = service.submit(spec.with_overrides())  # equal spec
            assert first == dup_a == dup_b
            service.result(first, timeout=120)
        events = [e["event"] for e in load_events(store)]
        assert events.count("submitted") == 1
        assert events.count("deduplicated") == 2
        assert events.count("succeeded") == 1

    def test_resubmission_after_completion_hits_cache_once(self, tmp_path):
        """Duplicate specs hit the artifact cache exactly once: the
        first job populates it, the rerun reads it back as hits."""
        cache = tmp_path / "cache"
        spec = RunSpec(scale=6, backend="scipy")
        with BenchmarkService(workers=1, cache_dir=cache) as service:
            cold = service.result(service.submit(spec), timeout=120)
            warm = service.result(service.submit(spec), timeout=120)
        cold_by_kernel = {r.kernel: r for r in cold.records}
        assert not cold_by_kernel["k0-generate"].cached
        warm_by_kernel = {r.kernel: r for r in warm.records}
        assert warm_by_kernel["k0-generate"].cached
        assert warm_by_kernel["k1-sort"].cached
        assert warm.rank_digest == cold.rank_digest


class TestLifecycle:
    def test_status_and_jobs_views(self):
        with BenchmarkService(workers=1) as service:
            job_id = service.submit(RunSpec(scale=6, backend="numpy"))
            service.result(job_id, timeout=120)
            view = service.status(job_id)
            assert view["state"] == "succeeded"
            assert view["spec"]["scale"] == 6
            assert view["finished_at"] >= view["submitted_at"]
            assert [j["job_id"] for j in service.jobs()] == [job_id]

    def test_validation_failure_fails_the_job_with_verdict(self):
        # paper-body formula with heavy damping diverges from the
        # principal eigenvector: the pipeline runs, validation FAILs,
        # and the job must surface that — not report a bare success.
        spec = RunSpec(
            scale=6, iterations=2, damping=0.99, formula="paper-body",
            validation="full",
        )
        with BenchmarkService(workers=1) as service:
            job_id = service.submit(spec)
            with pytest.raises(JobFailedError, match="validation failed"):
                service.result(job_id, timeout=120)
            doc = service.result_doc(job_id)
            assert doc["state"] == "failed"
            assert doc["validation"][0]["passed"] is False
            assert doc["rank_sha256"]  # outcome retained for inspection

    def test_passing_validation_rides_along_in_result_doc(self):
        spec = RunSpec(scale=6, backend="numpy", validation="full")
        with BenchmarkService(workers=1) as service:
            service.result(service.submit(spec), timeout=120)
            doc = service.result_doc(service.jobs()[0]["job_id"])
            assert doc["validation"][0]["passed"] is True

    def test_store_event_order_submitted_before_running(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        with BenchmarkService(workers=2, store_path=store) as service:
            ids = [service.submit(RunSpec(scale=6, seed=s, backend="numpy"))
                   for s in range(1, 5)]
            for job_id in ids:
                service.result(job_id, timeout=120)
        seen_submitted = set()
        for event in load_events(store):
            if event["event"] == "submitted":
                seen_submitted.add(event["job_id"])
            else:
                assert event["job_id"] in seen_submitted, event

    def test_failed_job_reports_error(self):
        # graphblas backend cannot run the parallel strategy.
        spec = RunSpec(
            scale=6, backend="graphblas", execution="parallel",
        )
        with BenchmarkService(workers=1) as service:
            job_id = service.submit(spec)
            with pytest.raises(JobFailedError, match="parallel"):
                service.result(job_id, timeout=120)
            assert service.status(job_id)["state"] == "failed"

    def test_cancel_pending_job(self):
        blocker = RunSpec(scale=10, backend="scipy", repeats=2)
        victim = RunSpec(scale=6, seed=77, backend="numpy")
        with BenchmarkService(workers=1) as service:
            first = service.submit(blocker)
            job_id = service.submit(victim)
            assert service.cancel(job_id) is True
            assert service.status(job_id)["state"] == "cancelled"
            with pytest.raises(JobCancelledError):
                service.result(job_id)
            assert service.cancel(job_id) is False  # already terminal
            service.result(first, timeout=120)

    def test_unknown_job_id(self):
        with BenchmarkService(workers=1) as service:
            with pytest.raises(UnknownJobError):
                service.status("job-99999")

    def test_close_without_wait_cancels_queued_jobs(self):
        service = BenchmarkService(workers=1)
        running = service.submit(RunSpec(scale=10, backend="scipy"))
        queued = [service.submit(RunSpec(scale=6, seed=s, backend="numpy"))
                  for s in range(10, 16)]
        service.close(wait=False)
        states = {service.status(j)["state"] for j in queued}
        # Every queued job is either cancelled or slipped in before the
        # shutdown; none may be left pending forever.
        assert states <= {"cancelled", "succeeded", "running"}
        assert "cancelled" in states
        # The in-flight job is never interrupted mid-kernel.
        service.result(running, timeout=120)

    def test_closed_service_refuses_submission(self):
        service = BenchmarkService(workers=1)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(RunSpec(scale=6))

    def test_store_failure_fails_the_job_instead_of_stranding_it(self):
        """A store that starts raising mid-job (disk full, directory
        gone) must fail the job and wake waiters, never leave it
        RUNNING forever with its spec hash pinned in the dedup map."""
        spec = RunSpec(scale=6, seed=88, backend="numpy")
        with BenchmarkService(workers=1) as service:
            original_append = service.store.append

            def broken_append(event, payload):
                if event == "running":
                    raise OSError("no space left on device")
                original_append(event, payload)

            service.store.append = broken_append
            job_id = service.submit(spec)
            with pytest.raises(JobFailedError, match="no space left"):
                service.result(job_id, timeout=120)
            service.store.append = original_append
            # The dedup slot is released: the spec can run again.
            retry = service.submit(spec)
            assert retry != job_id
            service.result(retry, timeout=120)

    def test_submit_accepts_raw_documents(self):
        with BenchmarkService(workers=1) as service:
            job_id = service.submit({"scale": 6, "backend": "numpy"})
            assert service.result(job_id, timeout=120).rank is not None
            with pytest.raises(ValueError, match="unknown RunSpec field"):
                service.submit({"scale": 6, "bogus": 1})

    def test_terminal_states_enum(self):
        assert JobState.SUCCEEDED.terminal
        assert JobState.CANCELLED.terminal
        assert not JobState.RUNNING.terminal


class TestProcessWorkers:
    """worker_kind="process": same service surface, multi-core backing."""

    def test_process_job_digest_matches_thread_job(self, tmp_path):
        spec = RunSpec(scale=6, seed=3, backend="numpy")
        with BenchmarkService(workers=2, worker_kind="process") as service:
            doc = service.result(service.submit(spec), timeout=240)
        # Process workers return the stored result document (the rank
        # vector stays in the worker; its digest crosses the boundary).
        assert isinstance(doc, dict)
        assert doc["rank_sha256"] == execute_spec(spec).rank_digest
        kernels = [r["kernel"] for r in doc["records"]]
        assert kernels == ["k0-generate", "k1-sort", "k2-filter",
                           "k3-pagerank"]

    def test_process_failure_formats_like_thread_failure(self):
        spec = RunSpec(scale=6, backend="graphblas", execution="parallel")
        with BenchmarkService(workers=1, worker_kind="process") as service:
            job_id = service.submit(spec)
            with pytest.raises(JobFailedError, match="parallel"):
                service.result(job_id, timeout=240)
            error = service.status(job_id)["error"]
        assert error.startswith("ExecutorCapabilityError:")

    def test_process_validation_failure_carries_verdict(self):
        spec = RunSpec(
            scale=6, iterations=2, damping=0.99, formula="paper-body",
            validation="full",
        )
        with BenchmarkService(workers=1, worker_kind="process") as service:
            job_id = service.submit(spec)
            with pytest.raises(JobFailedError, match="validation failed"):
                service.result(job_id, timeout=240)
            doc = service.result_doc(job_id)
            assert doc["validation"][0]["passed"] is False
            assert doc["rank_sha256"]

    def test_process_worker_can_nest_mp_rank_processes(self):
        """A spec selecting parallel_executor="mp" spawns rank
        processes *inside* the worker — a worker must be able to start
        processes, or this valid spec fails only on process pools."""
        spec = RunSpec(
            scale=6, backend="numpy", execution="parallel",
            parallel_ranks=2, parallel_executor="mp",
        )
        with BenchmarkService(workers=1, worker_kind="process") as service:
            doc = service.result(service.submit(spec), timeout=240)
        assert doc["rank_sha256"] == execute_spec(spec).rank_digest

    def test_process_jobs_share_the_artifact_cache(self, tmp_path):
        cache = tmp_path / "cache"
        spec = RunSpec(scale=6, backend="scipy")
        with BenchmarkService(
            workers=1, worker_kind="process", cache_dir=cache
        ) as service:
            cold = service.result(service.submit(spec), timeout=240)
            warm = service.result(service.submit(spec), timeout=240)
        cold_by_kernel = {r["kernel"]: r for r in cold["records"]}
        warm_by_kernel = {r["kernel"]: r for r in warm["records"]}
        assert not cold_by_kernel["k0-generate"]["cached"]
        assert warm_by_kernel["k0-generate"]["cached"]
        assert warm["rank_sha256"] == cold["rank_sha256"]

    def test_unknown_worker_kind(self):
        with pytest.raises(ValueError, match="worker_kind"):
            BenchmarkService(workers=1, worker_kind="fiber")


class TestDurableStore:
    def test_success_event_carries_records_and_digest(self, tmp_path):
        store = tmp_path / "jobs.jsonl"
        spec = RunSpec(scale=6, backend="numpy")
        with BenchmarkService(workers=1, store_path=store) as service:
            outcome = service.result(service.submit(spec), timeout=120)
        events = load_events(store)
        succeeded = [e for e in events if e["event"] == "succeeded"]
        assert len(succeeded) == 1
        doc = succeeded[0]
        assert doc["rank_sha256"] == outcome.rank_digest
        assert len(doc["records"]) == 4
        assert {r["kernel"] for r in doc["records"]} == {
            "k0-generate", "k1-sort", "k2-filter", "k3-pagerank"
        }
        assert doc["spec"]["scale"] == 6
