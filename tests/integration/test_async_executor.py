"""Integration tests for the async (overlapped) execution strategy.

Pins the subsystem's three promises: results identical to serial
(bit-identical where the backend's arithmetic path is shared), honest
timing attribution (per-kernel busy time plus a separately reported
``overlap_saved_s``), and contract enforcement equal to the other
executors.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.api import rank_sha256
from repro.core.async_executor import AsyncExecutor
from repro.core.config import KernelName, PipelineConfig
from repro.core.exceptions import KernelContractError
from repro.core.pipeline import run_pipeline
from repro.core.scheduler import SchedulerError
from repro.core.stages import GenerateContract


#: The backends whose Kernel 2 is a build step async schedules.
BUILD_BACKENDS = ["scipy", "numpy", "dataframe", "graphblas"]


def _config(backend: str = "scipy", execution: str = "async", **overrides):
    fields = dict(
        scale=8,
        seed=11,
        backend=backend,
        iterations=10,
        num_files=3,
        execution=execution,
        streaming_batch_edges=512,
    )
    fields.update(overrides)
    return PipelineConfig(**fields)


class TestResultParity:
    @pytest.mark.parametrize("backend", BUILD_BACKENDS)
    def test_bit_identical_to_serial(self, backend):
        serial = run_pipeline(_config(backend, "serial"))
        overlapped = run_pipeline(_config(backend, "async"))
        # Not merely allclose: the same bits.
        np.testing.assert_array_equal(overlapped.rank, serial.rank)

    @pytest.mark.parametrize("backend", BUILD_BACKENDS)
    def test_bit_identical_to_serial_with_cache_dir(self, backend, tmp_path):
        # Coarse stages and the serial Kernel 2, cold and warm.
        serial = run_pipeline(_config(backend, "serial"))
        config = _config(backend, "async", cache_dir=tmp_path / "c")
        for _ in range(2):
            np.testing.assert_array_equal(run_pipeline(config).rank,
                                          serial.rank)

    def test_bit_identical_to_streaming(self):
        streaming = run_pipeline(_config("scipy", "streaming"))
        overlapped = run_pipeline(_config("scipy", "async"))
        np.testing.assert_array_equal(overlapped.rank, streaming.rank)

    @pytest.mark.parametrize("num_files", [1, 2, 5])
    def test_shard_count_does_not_change_result(self, num_files):
        reference = run_pipeline(_config("scipy", "serial", num_files=1))
        overlapped = run_pipeline(
            _config("scipy", "async", num_files=num_files)
        )
        np.testing.assert_array_equal(overlapped.rank, reference.rank)

    def test_single_worker_schedule_identical(self):
        # max_workers=1 serialises the graph; the values must not care.
        config = _config("scipy", "async")
        concurrent = AsyncExecutor().execute(config)
        serialised = AsyncExecutor(max_workers=1).execute(config)
        np.testing.assert_array_equal(concurrent.rank, serialised.rank)

    def test_validation_runs_under_async(self):
        result = run_pipeline(_config("scipy", "async", validation="full"))
        assert result.validation is not None
        assert result.validation["passed"]


class TestTimingAttribution:
    def test_four_kernels_in_order_with_busy_times(self):
        result = run_pipeline(_config("scipy", "async"))
        assert [k.kernel for k in result.kernels] == list(KernelName)
        for kernel in result.kernels:
            assert kernel.details["execution"] == "async"
            assert kernel.seconds == kernel.details["busy_seconds"]
            assert kernel.seconds >= 0.0
        assert result.kernels[0].officially_timed is False

    def test_overlap_summary_in_k3_details(self):
        result = run_pipeline(_config("scipy", "async"))
        details = result.kernel(KernelName.K3_PAGERANK).details
        assert "overlap_saved_s" in details
        assert details["pipeline_wall_seconds"] > 0.0
        # Contract checks count toward pipeline totals, not stages.
        assert details["verification_seconds"] > 0.0
        assert details["pipeline_busy_seconds"] == pytest.approx(
            sum(details["stage_busy_seconds"].values())
            + details["verification_seconds"]
        )
        assert details["overlap_saved_s"] == pytest.approx(
            details["pipeline_busy_seconds"] - details["pipeline_wall_seconds"]
        )

    def test_contract_violation_fails_fast(self, monkeypatch):
        # A violated stage contract must abort the schedule before the
        # terminal stage runs — parity with the serial loop's per-stage
        # checks, not an end-of-run afterthought.
        def stop_here(self, ctx):
            raise KernelContractError("stop here")

        monkeypatch.setattr(GenerateContract, "check", stop_here)
        ran_k3 = []

        class Spy(AsyncExecutor):
            def _run_pagerank(self, ctx):
                ran_k3.append(True)
                return super()._run_pagerank(ctx)

        with pytest.raises(KernelContractError, match="stop here"):
            Spy().execute(_config("scipy", "async"))
        assert ran_k3 == []

    def test_wall_seconds_recorded_on_result(self):
        result = run_pipeline(_config("scipy", "async"))
        assert result.wall_seconds is not None
        assert result.wall_seconds > 0.0
        doc = result.to_dict()
        assert doc["wall_seconds"] == result.wall_seconds

    def test_k0_reports_generate_and_write_phases(self, tmp_path):
        # Same vocabulary as the serial backends' Kernel 0, so a K0 change
        # is attributable on the async path without a profiler.
        serial = run_pipeline(_config("scipy", "serial"))
        k0 = run_pipeline(_config("scipy", "async")).kernel(
            KernelName.K0_GENERATE)
        phases = k0.details["phases"]
        assert set(phases) == set(
            serial.kernel(KernelName.K0_GENERATE).details["phases"])
        assert phases["generate"] > 0.0 and phases["write"] > 0.0
        # The tasks behind the phases are part of the stage's busy time
        # (the rest is the manifest write).
        assert sum(phases.values()) <= k0.seconds + 1e-9
        # A cache hit runs no generate task: nothing to attribute.
        cache = tmp_path / "c"
        run_pipeline(_config("scipy", "async", cache_dir=cache))
        warm = run_pipeline(_config("scipy", "async", cache_dir=cache))
        assert "phases" not in warm.kernel(KernelName.K0_GENERATE).details

    @pytest.mark.parametrize(
        "kernel", [KernelName.K0_GENERATE, KernelName.K1_SORT])
    @pytest.mark.parametrize("backend", ["scipy", "dataframe"])
    def test_k0_k1_details_keys_match_serial(self, backend, kernel):
        # Serial and async build these records from the same helpers, so
        # the only keys async may add are its own attribution.  Its
        # stages overlap, so it counts minor faults for the run, with
        # Kernel 3, and for Kernel 0's generate window, which nothing
        # else overlaps; Kernel 1 has none.
        serial = run_pipeline(_config(backend, "serial")).kernel(kernel)
        overlapped = run_pipeline(_config(backend, "async")).kernel(kernel)
        async_only = {"execution", "busy_seconds"}
        counted = {KernelName.K0_GENERATE: {"minor_faults"},
                   KernelName.K1_SORT: set()}[kernel]
        assert (set(overlapped.details) - async_only
                == set(serial.details) - {"minor_faults"} | counted)
        assert (set(overlapped.details["phases"])
                == set(serial.details["phases"]))

    def test_k1_phases_are_its_step_tasks(self):
        result = run_pipeline(_config("scipy", "async", trace=True))
        phases = result.kernel(KernelName.K1_SORT).details["phases"]
        assert set(phases) == {"read", "sort", "write"}
        # Each phase is the summed busy time of its k1:<phase>[:n] tasks
        # (the publishing k1:dataset task is the stage's remainder).
        busy = {}
        for span in result.trace["spans"]:
            if span["cat"] == "task" and span["name"].startswith("task:k1:"):
                phase = span["name"].split(":")[2]
                busy[phase] = (busy.get(phase, 0.0) + span["dur"]
                               - span["args"].get("queue_wait", 0.0))
        assert busy.pop("dataset") > 0.0
        assert phases == pytest.approx(busy, abs=1e-9)

    @pytest.mark.parametrize("backend", ["scipy", "dataframe"])
    def test_k2_details_keys_match_serial(self, backend):
        # The build step is the serial kernel's after its read; the
        # hand-off says so, because its busy time has no decode in it.
        serial = run_pipeline(_config(backend, "serial")).kernel(
            KernelName.K2_FILTER)
        overlapped = run_pipeline(_config(backend, "async")).kernel(
            KernelName.K2_FILTER)
        async_only = {"execution", "busy_seconds", "ingest_source"}
        assert (set(overlapped.details) - async_only
                == set(serial.details) - {"minor_faults"})
        assert overlapped.details["ingest_source"] == "k1-handoff"
        assert (set(overlapped.details["phases"])
                == set(serial.details["phases"]) - {"read"}
                == {"construct", "filter", "normalize"})
        for key in ("nnz", "pre_filter_entry_total", "eliminated_columns"):
            assert overlapped.details[key] == serial.details[key]
        assert overlapped.edges_processed == serial.edges_processed

    @pytest.mark.parametrize("lanes", ["thread", "process"])
    def test_k3_starts_after_every_other_task(self, lanes):
        # Kernel 3 is timed alone: no shard write or contract overlaps it.
        result = run_pipeline(
            _config("scipy", "async", async_lanes=lanes, trace=True))
        tasks = {s["name"]: s for s in result.trace["spans"]
                 if s["cat"] == "task"}
        k3 = tasks.pop("task:k3-pagerank")
        assert any(name.startswith("task:k1:write:") for name in tasks)
        assert k3["start"] >= max(s["start"] + s["dur"]
                                  for s in tasks.values())

    def test_dispatch_wait_reported(self):
        details = run_pipeline(_config("scipy", "async")).kernel(
            KernelName.K3_PAGERANK).details
        assert (0.0 <= details["dispatch_wait_seconds"]
                <= details["pipeline_busy_seconds"])


class TestContractsAndFailures:
    def test_contracts_enforced(self, monkeypatch):
        def impossible(self, ctx):
            raise KernelContractError("injected violation")

        monkeypatch.setattr(GenerateContract, "check", impossible)
        with pytest.raises(KernelContractError, match="injected"):
            AsyncExecutor().execute(_config("scipy", "async"))
        # validation="off" must skip the same contract.
        result = AsyncExecutor().execute(
            _config("scipy", "async", validation="off")
        )
        assert result.rank is not None

    def test_task_failure_surfaces_as_scheduler_error(self, monkeypatch):
        # The k0:generate task is the backend's own step, so breaking the
        # step breaks the task.
        from repro.backends.scipy_backend import ScipyBackend

        def broken(self, config):
            raise RuntimeError("generator down")

        monkeypatch.setattr(ScipyBackend, "generate_edges", broken)
        with pytest.raises(SchedulerError, match="k0:generate"):
            run_pipeline(_config("scipy", "async"))


def _task_spans(result):
    return {s["name"].split("task:", 1)[1]: s for s in result.trace["spans"]
            if s["cat"] == "task"}


def _cores():
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


#: The bench graph's rank digest: RunSpec(scale=14, seed=1, num_files=4).
SCALE14_DIGEST = "38544e32d943"


class TestKroneckerTasks:
    """From scale 13 the Kronecker block is two or more slices, and
    Kernel 0's generate step runs as slice-range tasks, a permute task
    and one gather per endpoint array; the edge list stays the same."""

    def _run(self, **overrides):
        fields = {"scale": 13, "num_files": 4, "trace": True, **overrides}
        return run_pipeline(_config("scipy", "async", **fields))

    def test_generate_tasks_replace_the_one_task(self):
        result = self._run()
        spans = _task_spans(result)
        blocks = [f"k0:generate:{j}" for j in range(min(2, _cores()))]
        generate = blocks + ["k0:generate:permute", "k0:generate:u",
                             "k0:generate:v"]
        shards = range(4)
        # Every other task is the one-task graph's.
        assert set(spans) == set(generate) | {
            *(f"k0:write:{i}" for i in shards), "k0:dataset",
            *(f"k1:read:{i}" for i in shards), "k1:sort",
            *(f"k1:write:{i}" for i in shards), "k1:dataset",
            "k2-filter", "k3-pagerank",
        }

        def end(name):
            return spans[name]["start"] + spans[name]["dur"]

        permute = spans["k0:generate:permute"]
        assert permute["start"] >= max(end(name) for name in blocks)
        for name in ("k0:generate:u", "k0:generate:v"):
            assert spans[name]["start"] >= end("k0:generate:permute")
        assert spans["k0:write:0"]["start"] >= max(
            end("k0:generate:u"), end("k0:generate:v"))
        # Every generate task is phase "generate", and only they are.
        k0 = result.kernel(KernelName.K0_GENERATE)
        busy = sum(spans[name]["dur"] for name in generate)
        assert k0.details["phases"]["generate"] == pytest.approx(busy)
        assert k0.details["minor_faults"] >= 0
        serial = run_pipeline(_config("scipy", "serial", scale=13,
                                      num_files=4))
        np.testing.assert_array_equal(result.rank, serial.rank)

    def test_replaced_generate_step_runs_as_one_task(self, monkeypatch):
        from repro.backends.base import Backend
        from repro.backends.scipy_backend import ScipyBackend

        def own_step(self, config):
            return Backend.generate_edges(self, config)

        monkeypatch.setattr(ScipyBackend, "generate_edges", own_step)
        result = self._run()
        generate = {name for name in _task_spans(result)
                    if name.startswith("k0:generate")}
        assert generate == {"k0:generate"}
        assert result.kernel(KernelName.K0_GENERATE).details[
            "minor_faults"] >= 0
        np.testing.assert_array_equal(result.rank, self._run().rank)

    @pytest.mark.parametrize("overrides", [
        {"generator": "erdos-renyi"}, {"scale": 12},
    ], ids=["other-generator", "one-slice"])
    def test_other_cases_keep_one_task(self, overrides):
        generate = {name for name in _task_spans(self._run(**overrides))
                    if name.startswith("k0:generate")}
        assert generate == {"k0:generate"}

    @pytest.mark.parametrize("lanes", [
        {}, {"async_lanes": "process"},
        {"async_lanes": "process", "shard_plane": "shm"},
    ], ids=["thread", "process-pipe", "process-shm"])
    @pytest.mark.parametrize("backend", ["scipy", "numpy"])
    def test_bench_digest_on_every_lane(self, backend, lanes, tmp_path):
        from repro.api import RunSpec, execute_spec

        spec = RunSpec(scale=14, seed=1, num_files=4, backend=backend,
                       execution="async", data_dir=str(tmp_path / "async"),
                       **lanes)
        assert execute_spec(spec).rank_digest[:12] == SCALE14_DIGEST
        # Kernel 0's shards are serial's, byte for byte.
        execute_spec(RunSpec(scale=14, seed=1, num_files=4, backend=backend,
                             data_dir=str(tmp_path / "serial")))
        shards = sorted((tmp_path / "serial" / "k0").glob("part-*"))
        assert len(shards) == 4
        for shard in shards:
            assert shard.read_bytes() == (
                tmp_path / "async" / "k0" / shard.name).read_bytes()


class TestBackendOwnsKernels:
    """Async schedules the backend's steps; it never substitutes its own."""

    def test_replaced_kernel_runs_coarse_on_threads(self):
        from repro.backends.scipy_backend import ScipyBackend

        class OwnK0(ScipyBackend):
            def kernel0(self, config, out_dir):
                dataset, details = super().kernel0(config, out_dir)
                return dataset, {**details, "own_kernel0": True}

        result = run_pipeline(
            _config("scipy", "async", async_lanes="process", trace=True),
            backend=OwnK0(),
        )
        tasks = {s["name"] for s in result.trace["spans"] if s["cat"] == "task"}
        assert "task:k0-generate" in tasks
        assert not any(name.startswith(("task:k0:", "task:k1:"))
                       for name in tasks)
        assert result.kernel(KernelName.K0_GENERATE).details["own_kernel0"]
        # No per-shard tasks, so nothing to offload: the lane decision
        # follows the graph's shape.
        k3 = result.kernel(KernelName.K3_PAGERANK).details
        assert k3["codec_lane"] == "thread"
        np.testing.assert_array_equal(
            result.rank, run_pipeline(_config("scipy", "serial")).rank)

    def test_dataframe_sorts_through_its_own_step(self, monkeypatch, tmp_path):
        from repro.backends.dataframe_backend import DataframeBackend

        calls = []
        own_sort = DataframeBackend.sort_edges

        def spy(self, config, u, v):
            calls.append(len(u))
            return own_sort(self, config, u, v)

        monkeypatch.setattr(DataframeBackend, "sort_edges", spy)
        runs = {}
        for execution in ("serial", "async"):
            config = _config("dataframe", execution,
                             data_dir=tmp_path / execution)
            runs[execution] = run_pipeline(config)
        assert calls == [config.num_edges] * 2
        for record in runs.values():
            k1 = record.kernel(KernelName.K1_SORT).details
            assert k1["algorithm"] == "dataframe-sort"
        # The step's output, as published: same sorted dataset either way.
        published = sorted((tmp_path / "serial" / "k1").iterdir())
        assert len(published) == 1 + config.num_files  # manifest + shards
        for path in published:
            assert (path.read_bytes()
                    == (tmp_path / "async" / "k1" / path.name).read_bytes())
        # Kernel 2 is the backend's own build under async too, so the
        # rank matches serial bit for bit.
        assert (rank_sha256(runs["async"].rank)
                == rank_sha256(runs["serial"].rank))


class TestCacheFallback:
    def test_cached_k0_k1_still_work(self, tmp_path):
        cache = tmp_path / "c"
        cold = run_pipeline(_config("scipy", "async", cache_dir=cache))
        warm = run_pipeline(_config("scipy", "async", cache_dir=cache))
        for kernel in (KernelName.K0_GENERATE, KernelName.K1_SORT,
                       KernelName.K2_FILTER):
            assert cold.kernel(kernel).details["artifact_cache"] == "miss"
            assert warm.kernel(kernel).details["artifact_cache"] == "hit"
        np.testing.assert_array_equal(cold.rank, warm.rank)

    def test_cache_shared_with_serial_strategy(self, tmp_path):
        cache = tmp_path / "c"
        serial = run_pipeline(_config("scipy", "serial", cache_dir=cache))
        overlapped = run_pipeline(_config("scipy", "async", cache_dir=cache))
        assert (overlapped.kernel(KernelName.K0_GENERATE)
                .details["artifact_cache"] == "hit")
        np.testing.assert_array_equal(overlapped.rank, serial.rank)

    def test_kernel1_sorts_in_memory_fine_or_coarse(self, tmp_path):
        # Only the streaming strategy sorts out of core.
        for changes in ({}, {"cache_dir": tmp_path / "c"}):
            result = run_pipeline(_config("scipy", "async", **changes))
            k1 = result.kernel(KernelName.K1_SORT)
            assert k1.details["algorithm"] == "numpy"


class TestProcessLanes:
    """``async_lanes="process"``: same bits, lane-attributed timing."""

    @pytest.mark.parametrize("backend", ["scipy", "numpy"])
    def test_bit_identical_to_serial(self, backend):
        serial = run_pipeline(_config(backend, "serial"))
        offloaded = run_pipeline(
            _config(backend, "async", async_lanes="process")
        )
        np.testing.assert_array_equal(offloaded.rank, serial.rank)

    def test_bit_identical_to_thread_lanes(self):
        thread = run_pipeline(_config("scipy", "async"))
        process = run_pipeline(
            _config("scipy", "async", async_lanes="process")
        )
        np.testing.assert_array_equal(process.rank, thread.rank)

    def test_lane_attribution_in_k3_details(self):
        result = run_pipeline(
            _config("scipy", "async", async_lanes="process")
        )
        details = result.kernel(KernelName.K3_PAGERANK).details
        assert details["async_lanes"] == "process"
        assert details["codec_lane"] == "process"
        lane_busy = details["lane_busy_seconds"]
        assert lane_busy["process"] > 0.0
        assert lane_busy["thread"] > 0.0
        # Lane busy and the stage totals sum the same task times.
        assert sum(lane_busy.values()) == pytest.approx(
            details["pipeline_busy_seconds"], abs=1e-6
        )

    def test_thread_lanes_report_no_process_busy(self):
        result = run_pipeline(_config("scipy", "async"))
        details = result.kernel(KernelName.K3_PAGERANK).details
        assert details["async_lanes"] == "thread"
        assert details["codec_lane"] == "thread"
        assert "process" not in details["lane_busy_seconds"]

    def test_npy_format_stays_on_threads(self):
        # Binary shards are raw buffer writes: offload would pay pipe
        # transfer for no GIL relief, so the knob must not apply.
        result = run_pipeline(
            _config("scipy", "async", async_lanes="process",
                    file_format="npy")
        )
        details = result.kernel(KernelName.K3_PAGERANK).details
        assert details["async_lanes"] == "process"
        assert details["codec_lane"] == "thread"
        assert "process" not in details["lane_busy_seconds"]

    def test_cache_coarse_path_stays_on_threads(self, tmp_path):
        # With the artifact cache rerouting K0/K1, stages run coarse —
        # no per-shard tasks exist, so no lane pool is spun up.
        cache = tmp_path / "c"
        result = run_pipeline(
            _config("scipy", "async", async_lanes="process",
                    cache_dir=cache)
        )
        details = result.kernel(KernelName.K3_PAGERANK).details
        assert details["codec_lane"] == "thread"
        serial = run_pipeline(_config("scipy", "serial"))
        np.testing.assert_array_equal(result.rank, serial.rank)

    def test_shard_files_byte_identical_across_lanes(self, tmp_path):
        # The lane workers run the same codec on the same slices; the
        # on-disk artifacts must not depend on where encoding ran.
        thread_dir = tmp_path / "thread"
        process_dir = tmp_path / "process"
        run_pipeline(_config("scipy", "async", data_dir=thread_dir))
        run_pipeline(_config(
            "scipy", "async", async_lanes="process", data_dir=process_dir,
        ))
        for kernel_dir in ("k0", "k1"):
            thread_shards = sorted(
                (thread_dir / kernel_dir).glob("part-*.tsv")
            )
            assert thread_shards, f"no shards under {kernel_dir}"
            for shard in thread_shards:
                other = process_dir / kernel_dir / shard.name
                assert shard.read_bytes() == other.read_bytes()

    def test_validation_runs_with_process_lanes(self):
        result = run_pipeline(
            _config("scipy", "async", async_lanes="process",
                    validation="full")
        )
        assert result.validation is not None
        assert result.validation["passed"]


class TestHandoffSafety:
    """The Kernel 1 shard writes encode the very arrays the Kernel 2
    build reads, concurrently, so the build must not write to them."""

    @pytest.mark.parametrize("backend", BUILD_BACKENDS)
    def test_build_step_leaves_its_input_unchanged(self, backend):
        from repro._util import Timings
        from repro.backends.registry import get_backend
        from repro.generators.registry import get_generator
        from repro.sort.inmemory import sort_edges

        config = _config(backend)
        u, v = sort_edges(*get_generator(config.generator)(
            config.scale, config.edge_factor, seed=config.seed))
        before = (u.tobytes(), v.tobytes())
        u.flags.writeable = v.flags.writeable = False  # a write raises
        get_backend(backend).build_adjacency(
            config, u, v, config.num_vertices, Timings())
        assert (u.tobytes(), v.tobytes()) == before

    @pytest.mark.parametrize(
        "lanes", [{}, {"async_lanes": "process", "shard_plane": "shm"}],
        ids=["thread", "process-shm"])
    @pytest.mark.parametrize("backend", BUILD_BACKENDS)
    def test_k1_shards_byte_identical_to_serial(self, backend, lanes,
                                                tmp_path):
        serial_dir, async_dir = tmp_path / "serial", tmp_path / "async"
        serial = run_pipeline(_config(backend, "serial", data_dir=serial_dir))
        result = run_pipeline(_config(backend, "async", data_dir=async_dir,
                                      **lanes))
        np.testing.assert_array_equal(result.rank, serial.rank)
        shards = sorted((serial_dir / "k1").glob("part-*"))
        assert len(shards) == result.config.num_files
        for shard in shards:
            assert shard.read_bytes() == (async_dir / "k1" / shard.name
                                          ).read_bytes(), shard.name


class TestShardPlane:
    """``shard_plane="shm"``: same bits over shared-memory hand-off."""

    def test_bit_identical_across_planes(self):
        serial = run_pipeline(_config("scipy", "serial"))
        pipe = run_pipeline(
            _config("scipy", "async", async_lanes="process")
        )
        shm = run_pipeline(
            _config("scipy", "async", async_lanes="process",
                    shard_plane="shm")
        )
        np.testing.assert_array_equal(pipe.rank, serial.rank)
        np.testing.assert_array_equal(shm.rank, serial.rank)

    def test_k3_details_report_the_handoff(self):
        from repro.core.shmplane import shm_available

        result = run_pipeline(
            _config("scipy", "async", async_lanes="process",
                    shard_plane="shm")
        )
        details = result.kernel(KernelName.K3_PAGERANK).details
        assert details["shard_plane"] == "shm"
        if shm_available():
            assert details["handoff_mode"] == "shm"
            assert details["shm_bytes_saved"] > 0
        else:  # restricted /dev/shm: negotiation degraded, run still fine
            assert details["handoff_mode"] == "pipe"
            assert details["shm_bytes_saved"] == 0

    def test_pipe_plane_reports_zero_saved(self):
        result = run_pipeline(
            _config("scipy", "async", async_lanes="process")
        )
        details = result.kernel(KernelName.K3_PAGERANK).details
        assert details["shard_plane"] == "pipe"
        assert details["handoff_mode"] == "pipe"
        assert details["shm_bytes_saved"] == 0

    def test_thread_lanes_stay_on_pipe(self):
        # In-process hand-off is already zero-copy; the knob must not
        # spin up segments for nothing.
        result = run_pipeline(_config("scipy", "async", shard_plane="shm"))
        details = result.kernel(KernelName.K3_PAGERANK).details
        assert details["shard_plane"] == "shm"
        assert details["handoff_mode"] == "pipe"
        assert details["shm_bytes_saved"] == 0

    def test_mmap_cache_reads_bit_identical(self, tmp_path):
        # npy entries are read back as memory-mapped views.
        config = _config("scipy", "async", file_format="npy",
                         cache_dir=tmp_path / "c")
        cold = run_pipeline(config)
        warm = run_pipeline(config)
        assert (warm.kernel(KernelName.K0_GENERATE)
                .details["artifact_cache"] == "hit")
        np.testing.assert_array_equal(warm.rank, cold.rank)

    def test_mmap_cache_with_shm_plane(self, tmp_path):
        # Mapped npy reads under the shm plane: a cache dir reroutes
        # K0/K1 coarse, so the lane pool never spins up, and the ranks
        # still match serial — cold and warm.
        serial = run_pipeline(_config("scipy", "serial"))
        config = _config("scipy", "async", async_lanes="process",
                         shard_plane="shm", file_format="npy",
                         cache_dir=tmp_path / "c")
        for _ in range(2):
            np.testing.assert_array_equal(run_pipeline(config).rank,
                                          serial.rank)

    def test_no_leaked_segments_after_shm_runs(self):
        # Must run after the shm cases above (pytest preserves file
        # order): every segment they created is released by now.
        import gc
        import glob
        import os

        gc.collect()
        from repro.core.shmplane import outstanding_segments

        assert outstanding_segments() == ()
        if os.path.isdir("/dev/shm"):
            mine = glob.glob(f"/dev/shm/psm_repro_{os.getpid()}_*")
            assert mine == [], f"leaked segments: {mine}"


@pytest.mark.skipif(
    "REPRO_PERF_TESTS" not in __import__("os").environ,
    reason="perf comparison needs a multi-core runner; set "
           "REPRO_PERF_TESTS=1 (CI async leg does)",
)
class TestShardPlanePerf:
    def test_shm_wall_no_worse_than_pipe_at_scale_16(self):
        from repro.core.shmplane import shm_available

        if not shm_available():
            pytest.skip("host cannot create shared-memory segments")
        spec = dict(
            scale=16, seed=1, backend="scipy", iterations=20,
            num_files=4, execution="async", async_lanes="process",
        )
        pipe = run_pipeline(PipelineConfig(**spec))
        shm = run_pipeline(PipelineConfig(shard_plane="shm", **spec))
        np.testing.assert_array_equal(shm.rank, pipe.rank)
        details = shm.kernel(KernelName.K3_PAGERANK).details
        assert details["handoff_mode"] == "shm"
        assert details["shm_bytes_saved"] > 0
        # The acceptance bar: zero-copy hand-off must not cost wall
        # time (10% headroom for runner jitter on "no worse").
        assert shm.wall_seconds <= pipe.wall_seconds * 1.10


@pytest.mark.skipif(
    "REPRO_PERF_TESTS" not in __import__("os").environ,
    reason="perf comparison needs a multi-core runner; set "
           "REPRO_PERF_TESTS=1 (CI async leg does)",
)
class TestProcessLanePerf:
    def test_process_lanes_raise_overlap_saved_at_scale_16(self):
        spec = dict(
            scale=16, seed=1, backend="scipy", iterations=20,
            num_files=4, execution="async",
        )
        thread = run_pipeline(PipelineConfig(**spec))
        process = run_pipeline(
            PipelineConfig(async_lanes="process", **spec)
        )
        np.testing.assert_array_equal(process.rank, thread.rank)
        thread_details = thread.kernel(KernelName.K3_PAGERANK).details
        process_details = process.kernel(KernelName.K3_PAGERANK).details
        assert (
            process_details["overlap_saved_s"]
            > thread_details["overlap_saved_s"]
        )
        # The other half of the bar: the offload must not buy its
        # overlap with end-to-end wall time (10% headroom for runner
        # jitter on "no worse").
        assert process.wall_seconds <= thread.wall_seconds * 1.10


class TestSweepIntegration:
    def test_sweep_runs_async_and_skips_python(self):
        from repro.api import RunSpec, SweepSpec, execute_sweep

        records = execute_sweep(SweepSpec(
            base=RunSpec(scale=6, execution="async", validation="off"),
            scales=(6,), backends=("python", "scipy"),
        ))
        assert {record.backend for record in records} == {"scipy"}
        assert len(records) == 4


class TestTracedAsyncRun:
    """End-to-end trace plane: one traced async run yields the full
    span tree, and busy times re-derived from spans match the
    schedule's (asserted inside the executor; a mismatch would raise)."""

    def _traced_result(self, **overrides):
        return run_pipeline(_config("numpy", "async", trace=True,
                                    **overrides))

    def test_untraced_run_carries_no_trace(self):
        assert run_pipeline(_config("numpy", "async")).trace is None

    def test_trace_doc_spans_every_layer(self):
        result = self._traced_result(
            async_lanes="process",
            shard_plane="shm" if _shm_ok() else "pipe",
        )
        doc = result.trace
        assert doc is not None and doc["spans"]
        names = {s["name"] for s in doc["spans"]}
        for required in (
            "pipeline",
            "stage:k0-generate", "stage:k1-sort",
            "stage:k2-filter", "stage:k3-pagerank",
            "schedule",
            "task:k2-filter", "task:k3-pagerank",
        ):
            assert required in names, (required, sorted(names))
        # Lane-offloaded codec work: dispatch on the parent, op spans
        # merged back from the worker processes.
        assert any(n.startswith("lane-dispatch:") for n in names)
        assert any(n.startswith("lane-op:") for n in names)
        if _shm_ok():
            assert "shm:create" in names
            assert any(n in names for n in ("shm:attach", "shm:adopt"))
        # Every span closed with sane clock values.
        for span_doc in doc["spans"]:
            assert span_doc["dur"] >= 0.0, span_doc

    def test_task_spans_rederive_group_busy(self):
        # The executor itself asserts span-derived busy equals the
        # ScheduleResult's (raising otherwise); here we recompute the
        # same derivation over the *persisted* trace doc and check it
        # against the stage spans' recorded busy_seconds, then against
        # the kernel records through the arithmetic ``_assemble``
        # applies — identities on the same clock samples, so no
        # wall-clock tolerance is involved.
        from repro.core.trace import task_busy_seconds

        result = self._traced_result()
        derived = task_busy_seconds(result.trace["spans"])
        stage_busy = {
            s["name"].split("stage:", 1)[1]: s["args"]["busy_seconds"]
            for s in result.trace["spans"]
            if s["cat"] == "stage" and "busy_seconds" in s["args"]
        }
        assert set(stage_busy) == set(derived)
        for group, busy in stage_busy.items():
            assert derived[group] == pytest.approx(busy, abs=1e-6)
        for record in result.kernels:
            # seconds = group busy minus the in-task contract check.
            contract = record.details.get("contract_seconds", 0.0)
            assert derived[record.kernel.value] == pytest.approx(
                record.seconds + contract, abs=1e-6
            )

    def test_trace_structure_deterministic_across_runs(self):
        def shape(result):
            return sorted(
                (s["name"], s["cat"]) for s in result.trace["spans"]
            )

        assert shape(self._traced_result()) == shape(self._traced_result())

    def test_chrome_export_is_loadable_and_valid(self):
        import json

        from repro.core.trace import chrome_trace

        result = self._traced_result(async_lanes="process")
        doc = json.loads(json.dumps(chrome_trace(result.trace)))
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete and min(e["ts"] for e in complete) == 0.0
        # Lane workers appear as their own process rows.
        assert len({e["pid"] for e in complete}) >= 2


def _shm_ok():
    from repro.core.shmplane import shm_available

    return shm_available()
