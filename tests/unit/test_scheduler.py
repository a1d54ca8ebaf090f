"""Unit tests for the dependency-aware task scheduler."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import lanes as lanes_module
from repro.core.lanes import LaneTask
from repro.core.scheduler import SchedulerError, TaskGraph


class TestGraphConstruction:
    def test_duplicate_name_rejected(self):
        graph = TaskGraph()
        graph.add("a", lambda r: 1)
        with pytest.raises(ValueError, match="duplicate"):
            graph.add("a", lambda r: 2)

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(ValueError, match="not in the graph"):
            graph.add("b", lambda r: 1, deps=("never",))

    def test_cycles_inexpressible(self):
        # Dependencies must precede their dependents, so a cycle cannot
        # even be written down.
        graph = TaskGraph()
        graph.add("a", lambda r: 1)
        with pytest.raises(ValueError):
            graph.add("a2", lambda r: 1, deps=("a", "a2"))

    def test_empty_graph_runs(self):
        result = TaskGraph().run()
        assert result.results == {}
        assert result.wall_seconds == 0.0


class TestExecution:
    def test_results_flow_to_dependents(self):
        graph = TaskGraph()
        graph.add("a", lambda r: 2)
        graph.add("b", lambda r: 3)
        graph.add("c", lambda r: r["a"] * r["b"], deps=("a", "b"))
        assert graph.run().results["c"] == 6

    def test_dependency_order_respected(self):
        order = []
        lock = threading.Lock()

        def record(name):
            def fn(results):
                with lock:
                    order.append(name)
            return fn

        graph = TaskGraph()
        graph.add("first", record("first"))
        graph.add("second", record("second"), deps=("first",))
        graph.add("third", record("third"), deps=("second",))
        graph.run(max_workers=4)
        assert order == ["first", "second", "third"]

    def test_diamond_joins_both_parents(self):
        graph = TaskGraph()
        graph.add("root", lambda r: 1)
        graph.add("left", lambda r: r["root"] + 1, deps=("root",))
        graph.add("right", lambda r: r["root"] + 2, deps=("root",))
        graph.add(
            "join", lambda r: r["left"] * r["right"], deps=("left", "right")
        )
        assert graph.run().results["join"] == 6

    def test_single_worker_degenerates_to_serial(self):
        active = {"now": 0, "max": 0}
        lock = threading.Lock()

        def fn(results):
            with lock:
                active["now"] += 1
                active["max"] = max(active["max"], active["now"])
            time.sleep(0.01)
            with lock:
                active["now"] -= 1

        graph = TaskGraph()
        for index in range(4):
            graph.add(f"t{index}", fn)
        graph.run(max_workers=1)
        assert active["max"] == 1

    def test_independent_tasks_overlap(self):
        def sleepy(results):
            time.sleep(0.05)

        graph = TaskGraph()
        graph.add("a", sleepy)
        graph.add("b", sleepy)
        result = graph.run(max_workers=2)
        assert result.wall_seconds < 0.095  # genuinely concurrent
        assert result.busy_seconds >= 0.095
        assert result.overlap_saved_seconds > 0.0


class TestFailureHandling:
    def test_failure_raises_with_task_name(self):
        graph = TaskGraph()
        graph.add("ok", lambda r: 1)

        def boom(results):
            raise RuntimeError("kaput")

        graph.add("bad", boom, deps=("ok",))
        with pytest.raises(SchedulerError, match="'bad' failed: kaput"):
            graph.run()

    def test_failure_cause_chained(self):
        graph = TaskGraph()
        graph.add("bad", lambda r: 1 / 0)
        with pytest.raises(SchedulerError) as excinfo:
            graph.run()
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)

    def test_pending_tasks_not_started_after_failure(self):
        ran = []

        def boom(results):
            raise RuntimeError("kaput")

        graph = TaskGraph()
        graph.add("bad", boom)
        graph.add("after", lambda r: ran.append("after"), deps=("bad",))
        with pytest.raises(SchedulerError):
            graph.run()
        assert ran == []


class TestTimingAttribution:
    def test_group_busy_sums_member_tasks(self):
        graph = TaskGraph()
        graph.add("a1", lambda r: time.sleep(0.02), group="alpha")
        graph.add("a2", lambda r: time.sleep(0.02), deps=("a1",), group="alpha")
        graph.add("b1", lambda r: time.sleep(0.01), group="beta")
        result = graph.run(max_workers=2)
        busy = result.group_busy_seconds()
        assert busy["alpha"] >= 0.04
        assert busy["beta"] >= 0.01
        assert result.busy_seconds == pytest.approx(
            busy["alpha"] + busy["beta"]
        )

    def test_ungrouped_task_groups_under_own_name(self):
        graph = TaskGraph()
        graph.add("solo", lambda r: None)
        result = graph.run()
        assert "solo" in result.group_busy_seconds()

    def test_ready_is_the_last_dependency_finish(self):
        graph = TaskGraph()
        graph.add("slow", lambda r: time.sleep(0.02))
        graph.add("fast", lambda r: None)
        graph.add("join", lambda r: None, deps=("slow", "fast"))
        # One thread, roots taken in insertion order: "fast" is ready at
        # once but waits out "slow" for the thread.
        result = graph.run(max_workers=1)
        timings = result.timings
        assert timings["slow"].ready == timings["fast"].ready == 0.0
        assert timings["join"].ready == max(
            timings["slow"].finished, timings["fast"].finished)
        for timing in timings.values():
            assert timing.started >= timing.ready
        assert result.dispatch_wait_seconds == pytest.approx(
            sum(t.started - t.ready for t in timings.values()))
        assert timings["fast"].started - timings["fast"].ready >= 0.02


class TestProcessLaneTasks:
    """Lane marking, dispatch, and busy attribution for lane tasks."""

    @pytest.fixture()
    def sleep_op(self, monkeypatch):
        """A registered lane op that sleeps then echoes its payload."""

        def op(payload):
            time.sleep(payload.get("sleep", 0.0))
            return payload["value"]

        registry = dict(lanes_module.LANE_OPS)
        registry["test-sleep"] = op
        monkeypatch.setattr(lanes_module, "LANE_OPS", registry)
        return "test-sleep"

    def test_unknown_lane_rejected(self):
        with pytest.raises(ValueError, match="lane must be one of"):
            TaskGraph().add("t", lambda r: 1, lane="fiber")

    def test_process_lane_without_pool_runs_op_inline(self, sleep_op):
        graph = TaskGraph()
        graph.add(
            "t",
            lambda r: LaneTask(sleep_op, {"value": 41}),
            lane="process",
        )
        result = graph.run()
        assert result.results["t"] == 41
        assert result.timings["t"].lane == "process"

    def test_process_lane_task_must_return_descriptor(self):
        graph = TaskGraph()
        graph.add("t", lambda r: 41, lane="process")
        with pytest.raises(SchedulerError, match="must return a LaneTask"):
            graph.run()

    def test_lane_result_flows_to_dependents(self, sleep_op):
        graph = TaskGraph()
        graph.add(
            "a", lambda r: LaneTask(sleep_op, {"value": 6}), lane="process"
        )
        graph.add("b", lambda r: r["a"] * 7, deps=("a",))
        assert graph.run().results["b"] == 42

    def test_group_busy_includes_lane_offloaded_work(self, sleep_op):
        # The satellite requirement: a kernel's busy sum must not lose
        # the work that moved onto a lane.
        graph = TaskGraph()
        graph.add(
            "enc",
            lambda r: LaneTask(sleep_op, {"value": 1, "sleep": 0.03}),
            lane="process", group="k0",
        )
        graph.add("gen", lambda r: time.sleep(0.01), group="k0")
        result = graph.run(max_workers=2)
        busy = result.group_busy_seconds()
        assert busy["k0"] >= 0.04  # both tasks, lane-offloaded included
        lane_busy = result.lane_busy_seconds()
        assert lane_busy["process"] >= 0.03
        assert lane_busy["thread"] >= 0.01
        assert result.busy_seconds == pytest.approx(
            lane_busy["process"] + lane_busy["thread"]
        )

    def test_overlap_saved_non_negative_with_lane_work(self, sleep_op):
        # Two independent sleepy lane tasks plus a sleepy thread task:
        # genuine overlap, so busy - wall must come out non-negative.
        graph = TaskGraph()
        for index in range(2):
            graph.add(
                f"lane{index}",
                lambda r: LaneTask(sleep_op, {"value": 0, "sleep": 0.05}),
                lane="process", group="codec",
            )
        graph.add("compute", lambda r: time.sleep(0.05), group="k2")
        result = graph.run(max_workers=3)
        assert result.overlap_saved_seconds >= 0.0
        assert result.wall_seconds < 0.145  # ran concurrently

    def test_queue_wait_excluded_from_busy(self):
        # A dispatch that queues behind a busy lane worker must not
        # count the wait as compute — or one worker's work would be
        # billed to every queued task.
        class StubPool:
            def run_task_timed(self, task):
                time.sleep(0.05)  # 0.01 compute + 0.04 reported wait
                return task.payload["value"], 0.04

        graph = TaskGraph()
        graph.add(
            "t", lambda r: LaneTask("any", {"value": 5}), lane="process"
        )
        result = graph.run(lane_pool=StubPool())
        assert result.results["t"] == 5
        timing = result.timings["t"]
        assert timing.queue_wait == 0.04
        assert timing.seconds == pytest.approx(
            (timing.finished - timing.started) - 0.04
        )
        assert result.lane_busy_seconds()["process"] < 0.04

    def test_lane_op_failure_surfaces_as_scheduler_error(self, monkeypatch):
        def boom(payload):
            raise RuntimeError("lane kaput")

        registry = dict(lanes_module.LANE_OPS)
        registry["test-boom"] = boom
        monkeypatch.setattr(lanes_module, "LANE_OPS", registry)
        graph = TaskGraph()
        graph.add(
            "bad", lambda r: LaneTask("test-boom", {}), lane="process"
        )
        with pytest.raises(SchedulerError, match="lane kaput"):
            graph.run()

    def test_unknown_op_rejected(self):
        graph = TaskGraph()
        graph.add(
            "bad", lambda r: LaneTask("no-such-op", {}), lane="process"
        )
        with pytest.raises(SchedulerError, match="unknown op"):
            graph.run()


class TestResultLifetime:
    def test_intermediate_results_freed_after_last_reader(self):
        graph = TaskGraph()
        graph.add("big", lambda r: list(range(1000)))
        graph.add("mid", lambda r: len(r["big"]), deps=("big",))
        graph.add("sink", lambda r: r["mid"] + 1, deps=("mid",))
        result = graph.run()
        # Intermediates were dropped once nothing could read them...
        assert "big" not in result.results
        assert "mid" not in result.results
        # ...while the sink (no dependents) is kept.
        assert result.results["sink"] == 1001
        # Timings survive freeing.
        assert set(result.timings) == {"big", "mid", "sink"}

    def test_retained_results_survive_their_readers(self):
        graph = TaskGraph()
        graph.add("kept", lambda r: 7, retain=True)
        graph.add("reader", lambda r: r["kept"] * 2, deps=("kept",))
        result = graph.run()
        assert result.results["kept"] == 7
        assert result.results["reader"] == 14

    def test_shared_dependency_freed_only_after_all_readers(self):
        graph = TaskGraph()
        graph.add("root", lambda r: 5)
        graph.add("a", lambda r: r["root"] + 1, deps=("root",))
        graph.add("b", lambda r: r["root"] + 2, deps=("root",))
        result = graph.run(max_workers=2)
        assert "root" not in result.results
        assert result.results["a"] == 6 and result.results["b"] == 7


class TestTracedScheduling:
    """Span emission and span↔timing parity for traced graph runs."""

    def _traced_run(self, graph, **kwargs):
        from repro.core import trace

        collector = trace.TraceCollector()
        with trace.activate(collector):
            result = graph.run(**kwargs)
        return result, collector

    def test_untraced_run_records_nothing(self):
        graph = TaskGraph()
        graph.add("a", lambda r: 1)
        result = graph.run()
        assert result.trace_origin is None

    def test_task_spans_nest_under_the_schedule_span(self):
        graph = TaskGraph()
        graph.add("a", lambda r: 1, group="k0")
        graph.add("b", lambda r: r["a"] + 1, deps=("a",), group="k1")
        result, collector = self._traced_run(graph, max_workers=2)
        assert result.trace_origin is not None
        spans = {s.name: s for s in collector.spans()}
        assert set(spans) == {"schedule", "task:a", "task:b"}
        schedule = spans["schedule"]
        assert schedule.args["tasks"] == 2
        assert schedule.dur == result.wall_seconds
        for name in ("task:a", "task:b"):
            assert spans[name].cat == "task"
            assert spans[name].parent_id == schedule.span_id

    def test_span_durations_match_timings_bitwise(self):
        graph = TaskGraph()
        graph.add("a", lambda r: time.sleep(0.01), group="k0")
        graph.add("b", lambda r: time.sleep(0.01), group="k0")
        graph.add("c", lambda r: time.sleep(0.005), deps=("a", "b"),
                  group="k1")
        result, collector = self._traced_run(graph, max_workers=2)
        spans = {s.name: s for s in collector.spans()}
        for name, timing in result.timings.items():
            span_row = spans[f"task:{name}"]
            # Same perf_counter samples, same float arithmetic: the
            # spans are the timings, not a second measurement.
            assert span_row.dur - span_row.args["queue_wait"] \
                == timing.seconds
            # start parity is up to one float-add rounding (the span is
            # t0-relative, the timing clock0-relative).
            assert span_row.start == pytest.approx(
                result.trace_origin + timing.started, abs=1e-9
            )

    def test_group_busy_rederivable_from_spans(self):
        from repro.core.trace import task_busy_seconds

        graph = TaskGraph()
        graph.add("a", lambda r: time.sleep(0.01), group="k0")
        graph.add("b", lambda r: time.sleep(0.01), deps=("a",), group="k1")
        result, collector = self._traced_run(graph, max_workers=2)
        derived = task_busy_seconds(collector.span_docs())
        busy = result.group_busy_seconds()
        assert set(derived) == set(busy)
        for group, seconds in busy.items():
            assert derived[group] == pytest.approx(seconds, abs=1e-6)

    def test_lane_busy_rederivable_from_spans(self):
        from repro.core.trace import task_busy_seconds

        class StubPool:
            def run_task_timed(self, task):
                time.sleep(0.02)
                return task.payload["value"], 0.015

        graph = TaskGraph()
        graph.add("t", lambda r: LaneTask("any", {"value": 5}),
                  lane="process", group="codec")
        graph.add("u", lambda r: time.sleep(0.005), group="k2")
        result, collector = self._traced_run(
            graph, max_workers=2, lane_pool=StubPool()
        )
        derived = task_busy_seconds(collector.span_docs(), key="lane")
        busy = result.lane_busy_seconds()
        assert set(derived) == set(busy)
        for lane, seconds in busy.items():
            assert derived[lane] == pytest.approx(seconds, abs=1e-6)

    def test_failing_task_span_still_closes_with_error(self):
        graph = TaskGraph()
        graph.add("bad", lambda r: 1 / 0)
        from repro.core import trace

        collector = trace.TraceCollector()
        with trace.activate(collector):
            with pytest.raises(SchedulerError):
                graph.run()
        spans = {s.name: s for s in collector.spans()}
        assert "task:bad" in spans
        assert spans["task:bad"].dur >= 0.0
