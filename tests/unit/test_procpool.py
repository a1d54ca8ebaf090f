"""The process-worker runtime, exercised once against a tiny op table.

Everything here is shared by both configurations of the runtime
(``ProcessLanePool``, ``ProcessWorkerPool``); ``test_lanes.py`` and
``test_worker_pool.py`` keep only what is specific to their op tables.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest
from procpool_ops import TEST_OPS

from repro.core import trace
from repro.core.procpool import (
    ProcessPool,
    RemoteOpError,
    WorkerCrashError,
    WorkerHandle,
    run_op,
)


def make_pool(workers=1):
    return ProcessPool(workers, TEST_OPS, name="test")


@pytest.fixture(scope="module")
def pool():
    shared = make_pool(2)
    yield shared
    shared.shutdown()


def _live_pids(pool):
    return sorted(h.process.pid for h in pool._handles)


class TestDispatch:
    def test_run_op_rejects_unknown(self):
        assert run_op(TEST_OPS, "echo", 7) == 7
        with pytest.raises(ValueError, match="unknown op 'nope'"):
            run_op(TEST_OPS, "nope", None)

    def test_worker_reused_across_ops(self):
        single = make_pool()
        try:
            first = single.run("pid", None)
            assert first != os.getpid()
            assert single.run("echo", {"k": [1, 2]}) == {"k": [1, 2]}
            assert single.run("pid", None) == first
            assert _live_pids(single) == [first]
            # Untraced dispatch ships no span list back.
            assert single._handles[0].run("echo", 1) == (1, None)
            assert single.stats() == {
                "workers_spawned": 1, "workers_crashed": 0,
            }
        finally:
            single.shutdown()

    def test_remote_error_keeps_type_name_and_worker(self, pool):
        pool.prestart()
        before = _live_pids(pool)
        with pytest.raises(RemoteOpError) as excinfo:
            pool.run("boom", "no such shard")
        assert excinfo.value.error_type == "FileNotFoundError"
        assert str(excinfo.value) == "FileNotFoundError: no such shard"
        with pytest.raises(RemoteOpError, match="ValueError: unknown op"):
            pool.run("nope", None)
        # The worker survives an op-level failure and serves on.
        assert pool.run("echo", 3) == 3
        assert _live_pids(pool) == before

    def test_run_timed_reports_queue_wait(self, pool):
        result, queue_wait = pool.run_timed("echo", "x")
        assert result == "x"
        assert queue_wait >= 0.0

    def test_worker_count_validated(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_pool(0)


class TestCrashAndReplace:
    def test_killed_mid_op_raises_crash_and_slot_respawns(self):
        single = make_pool()
        try:
            first = single.run("pid", None)
            with pytest.raises(WorkerCrashError, match="died mid-job"):
                single.run("die", None)
            assert single._handles == []      # corpse culled
            assert single._idle.qsize() == 1  # token back, as lazy None
            second = single.run("pid", None)
            assert second != first
            assert single.stats() == {
                "workers_spawned": 2, "workers_crashed": 1,
            }
        finally:
            single.shutdown()

    def test_worker_that_died_idle_is_counted_and_replaced(self):
        single = make_pool()
        try:
            victim = single.run("pid", None)
            os.kill(victim, signal.SIGKILL)
            single._handles[0].process.wait(timeout=10)
            assert single.run("pid", None) != victim
            assert single.stats() == {
                "workers_spawned": 2, "workers_crashed": 1,
            }
        finally:
            single.shutdown()

    def test_unexpected_run_error_returns_the_slot(self, monkeypatch):
        """Any exception escaping a worker conversation must give the
        slot token back — a leaked token shrinks the pool forever."""
        single = make_pool()
        try:
            first = single.run("pid", None)
            with monkeypatch.context() as patch:
                patch.setattr(
                    WorkerHandle, "run",
                    lambda self, *a, **k: (_ for _ in ()).throw(
                        ValueError("malformed reply")
                    ),
                )
                with pytest.raises(ValueError, match="malformed reply"):
                    single.run("echo", 1)
            assert single._idle.qsize() == 1
            # State unknown, so the worker was discarded, not reused.
            assert single.run("pid", None) != first
        finally:
            single.shutdown()

    def test_tokens_survive_concurrent_crashes(self):
        """More dispatching threads than workers, some ops killing
        their worker: every token must come back and the counters must
        agree with the live handles."""
        shared = make_pool(2)
        outcomes = []
        crashes = sum(
            (index + step) % 8 == 0 for index in range(8) for step in range(6)
        )

        def hammer(index):
            for step in range(6):
                op = "die" if (index + step) % 8 == 0 else "echo"
                try:
                    outcomes.append(shared.run(op, index))
                except WorkerCrashError:
                    outcomes.append("crash")

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(8)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert len(outcomes) == 48
            assert outcomes.count("crash") == crashes > 0
            assert shared._idle.qsize() == 2
            stats = shared.stats()
            assert stats["workers_crashed"] == crashes
            assert (
                stats["workers_spawned"] - stats["workers_crashed"]
                == len(shared._handles)
            )
        finally:
            shared.shutdown()


class TestStartUp:
    def test_fresh_and_respawned_workers_are_pinged_first(self, monkeypatch):
        # A lazily (re)spawned worker must finish its start-up ping
        # before its first op — otherwise interpreter + import time
        # would be billed to that op.
        events = []
        original_ping, original_run = WorkerHandle.ping, WorkerHandle.run

        def ping(self):
            events.append(("ping", self.process.pid))
            return original_ping(self)

        def run(self, *args, **kwargs):
            events.append(("run", self.process.pid))
            return original_run(self, *args, **kwargs)

        monkeypatch.setattr(WorkerHandle, "ping", ping)
        monkeypatch.setattr(WorkerHandle, "run", run)
        single = make_pool()
        try:
            first = single.run("pid", None)
            single.run("echo", 0)  # reuse: no second ping
            assert events == [("ping", first), ("run", first), ("run", first)]
            with pytest.raises(WorkerCrashError):
                single.run("die", None)
            del events[:]
            second = single.run("pid", None)
            assert events == [("ping", second), ("run", second)]
        finally:
            single.shutdown()

    def test_prestart_spawns_and_warms_all_workers(self):
        shared = make_pool(2)
        try:
            shared.prestart()
            pids = _live_pids(shared)
            assert len(pids) == 2
            assert all(h.alive() for h in shared._handles)
            assert shared.run("pid", None) in pids  # reused, not respawned
            assert shared.stats()["workers_spawned"] == 2
        finally:
            shared.shutdown()

    def test_prestart_failure_preserves_slot_tokens(self, monkeypatch):
        # A worker that dies during warm-up must not leak its idle-queue
        # token: the failure is re-raised, every slot survives as a
        # lazy-respawn token, and a later dispatch recovers.
        shared = make_pool(2)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    WorkerHandle, "ping",
                    lambda self: (_ for _ in ()).throw(
                        WorkerCrashError("warm-up died")
                    ),
                )
                with pytest.raises(WorkerCrashError, match="warm-up died"):
                    shared.prestart()
            assert shared._idle.qsize() == 2  # no token leaked
            assert shared._handles == []      # broken workers culled
            assert shared.run("echo", 5) == 5
        finally:
            shared.shutdown()


class TestLifecycle:
    def test_background_prestart_then_immediate_shutdown(self):
        # shutdown() must join the warm-up thread before stopping
        # handles (two threads must never drive one pipe), then leave
        # no live workers behind.
        shared = make_pool(2)
        shared.prestart(block=False)
        thread = shared._prestart_thread
        shared.shutdown()
        assert thread is not None and not thread.is_alive()
        assert shared._handles == []

    def test_terminated_pool_refuses_work(self):
        single = make_pool()
        single.run("echo", 1)
        handles = list(single._handles)
        single.terminate()
        with pytest.raises(WorkerCrashError, match="terminated"):
            single.run("echo", 2)
        assert single._idle.qsize() == 1  # token back even when refused
        for handle in handles:
            handle.process.wait(timeout=10)
            assert not handle.alive()

    def test_shutdown_stops_worker_processes(self):
        shared = make_pool(2)
        shared.prestart()
        handles = list(shared._handles)
        assert len(handles) == 2
        shared.shutdown()
        for handle in handles:
            assert not handle.alive()


class TestTracedDispatch:
    """Worker-side spans ship back and re-anchor onto the parent clock."""

    def test_worker_spans_merge_under_the_dispatch_span(self, pool):
        collector = trace.TraceCollector()
        with trace.activate(collector):
            result, queue_wait = pool.run_timed("traced", "payload")
        assert result == "payload"
        spans = {s.name: s for s in collector.spans()}
        assert set(spans) == {"test-dispatch:traced", "test-op:traced",
                              "inner"}
        dispatch, op = spans["test-dispatch:traced"], spans["test-op:traced"]
        assert dispatch.args["queue_wait"] == queue_wait
        assert dispatch.args["worker"] == op.proc
        assert op.proc.startswith("repro-test-")
        assert op.parent_id == dispatch.span_id
        assert spans["inner"].parent_id == op.span_id
        # Re-anchoring: the worker's op interval must land inside the
        # parent's dispatch interval (5ms slack for handshake skew).
        assert op.start >= dispatch.start - 0.005
        assert op.start + op.dur <= dispatch.start + dispatch.dur + 0.005

    def test_merged_span_ids_stay_unique(self, pool):
        collector = trace.TraceCollector()
        with trace.activate(collector):
            for index in range(3):
                pool.run("traced", index)
        ids = [s.span_id for s in collector.spans()]
        assert len(ids) == 9
        assert len(ids) == len(set(ids))
