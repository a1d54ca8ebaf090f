"""Unit tests for repro._util.timing."""

from __future__ import annotations

import time

import pytest

from repro._util.timing import StopWatch, Timings, timed


class TestStopWatch:
    def test_starts_stopped(self):
        watch = StopWatch()
        assert not watch.running
        assert watch.elapsed == 0.0

    def test_measures_elapsed_time(self):
        watch = StopWatch().start()
        time.sleep(0.01)
        elapsed = watch.stop()
        assert elapsed >= 0.009
        assert not watch.running

    def test_accumulates_across_restarts(self):
        watch = StopWatch()
        watch.start()
        time.sleep(0.005)
        first = watch.stop()
        watch.start()
        time.sleep(0.005)
        total = watch.stop()
        assert total > first

    def test_start_is_idempotent_while_running(self):
        watch = StopWatch().start()
        watch.start()  # should not reset the start point
        time.sleep(0.005)
        assert watch.stop() >= 0.004

    def test_reset_zeroes_state(self):
        watch = StopWatch().start()
        time.sleep(0.002)
        watch.stop()
        watch.reset()
        assert watch.elapsed == 0.0
        assert not watch.running

    def test_elapsed_readable_while_running(self):
        watch = StopWatch().start()
        time.sleep(0.002)
        live = watch.elapsed
        assert live > 0.0
        assert watch.running
        watch.stop()

    def test_stop_when_not_running_returns_accumulated(self):
        watch = StopWatch()
        assert watch.stop() == 0.0


class TestTimings:
    def test_add_and_total(self):
        timings = Timings()
        timings.add("read", 1.0)
        timings.add("write", 2.0)
        timings.add("read", 0.5)
        assert timings.entries["read"] == pytest.approx(1.5)
        assert timings.total == pytest.approx(3.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative duration"):
            Timings().add("x", -1.0)

    def test_measure_context_manager(self):
        timings = Timings()
        with timings.measure("block"):
            time.sleep(0.005)
        assert timings.entries["block"] >= 0.004

    def test_measure_records_on_exception(self):
        timings = Timings()
        with pytest.raises(RuntimeError):
            with timings.measure("failing"):
                raise RuntimeError("boom")
        assert "failing" in timings.entries

    def test_as_dict_is_a_copy(self):
        timings = Timings({"x": 1.0})
        copy = timings.as_dict()
        copy["x"] = 99.0
        assert timings.entries["x"] == 1.0


def test_timed_context_manager():
    with timed() as watch:
        time.sleep(0.005)
    assert watch.elapsed >= 0.004
    assert not watch.running
