"""Property tests for job-store replay: the crash and compaction
invariants, over generated event logs.

A log is a random interleaving of per-job lifecycles, shaped like the
ones the service writes: run jobs (``submitted`` then any of
``running``/``requeued``/``deduplicated``, then zero or more terminal
events — worker-crash failures included) and sweep parents
(``sweep-submitted``, an optional ``sweep-cells`` roster over the run
jobs, an optional terminal event with or without its roster).
:func:`~repro.service.jobs.replay` is pure, so every property runs on
plain event lists — no service, pool or thread.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.api import RunSpec, SweepSpec
from repro.service.jobs import (
    JobStore,
    compact_events,
    load_events,
    replay,
)

SPECS = [RunSpec(scale=6, backend="numpy", seed=seed).to_dict()
         for seed in (1, 2, 3)] + [{"scale": 6, "bogus_field": 1},
                                   {"scale": "six"}]
SWEEPS = [
    SweepSpec(base=RunSpec(scale=6, backend="numpy"), scales=(6,),
              backends=("numpy",)).to_dict(),
    {"bogus": True},
]
CRASH = "WorkerCrashError: worker repro-worker-0 (pid 1) died mid-job"
SUCCEEDED = {"event": "succeeded", "rank_sha256": "ab" * 32,
             "records": [], "started_at": 1.0, "finished_at": 2.0}
RUN_TERMINALS = st.sampled_from([
    SUCCEEDED,
    dict(SUCCEEDED, duplicate_submissions=2),
    {"event": "failed", "error": CRASH},
    {"event": "failed", "error": "ValueError: boom"},
    {"event": "cancelled"},
])


@st.composite
def run_lifecycle(draw, job_id):
    spec = draw(st.sampled_from(SPECS))
    events = [{"event": "submitted", "job_id": job_id,
               "spec_hash": f"h{SPECS.index(spec)}", "spec": spec}]
    for _ in range(draw(st.integers(0, 3))):
        step = draw(st.sampled_from(["running", "requeued", "deduplicated"]))
        events.append({"event": step, "job_id": job_id})
        if draw(st.booleans()):
            events.append(dict(draw(RUN_TERMINALS), job_id=job_id))
    return events


@st.composite
def sweep_lifecycle(draw, job_id, run_ids):
    events = [{"event": "sweep-submitted", "job_id": job_id,
               "spec_hash": f"s{job_id}",
               "sweep": draw(st.sampled_from(SWEEPS))}]
    cells = [
        {"backend": "numpy", "scale": 6, "job_id": child,
         "skipped": child is None}
        for child in draw(st.lists(
            st.sampled_from(run_ids + [None, "job-00999"]), max_size=4))
    ] if run_ids else []
    if draw(st.booleans()):
        events.append({"event": "sweep-cells", "job_id": job_id,
                       "cells": cells})
    terminal = draw(st.sampled_from([None, "succeeded", "failed", "bare"]))
    if terminal == "bare":  # a failure that carries no cell roster
        events.append({"event": "failed", "job_id": job_id,
                       "error": "no backend supports this execution"})
    elif terminal is not None:
        events.append({
            "event": terminal, "job_id": job_id, "records": [],
            "cells": [dict(cell, state=terminal) for cell in cells],
            "error": None if terminal == "succeeded"
            else "1 of 1 sweep cells did not succeed",
        })
    return events


@st.composite
def event_logs(draw):
    """One interleaved log; ``time`` is each event's position."""
    numbers = draw(st.lists(st.integers(1, 300), min_size=1, max_size=8,
                            unique=True))
    ids = [f"job-{number:05d}" for number in numbers]
    split = draw(st.integers(0, len(ids)))
    lifecycles = [draw(run_lifecycle(job_id)) for job_id in ids[:split]]
    lifecycles += [draw(sweep_lifecycle(job_id, ids[:split]))
                   for job_id in ids[split:]]
    events = []
    while lifecycles:
        lifecycle = lifecycles[draw(st.integers(0, len(lifecycles) - 1))]
        events.append(dict(lifecycle.pop(0), time=float(len(events))))
        lifecycles = [rest for rest in lifecycles if rest]
    return events


def _replayed(events):
    state = replay(events)
    return state, {job_id: job.done.is_set()
                   for job_id, job in state.jobs.items()}


def _write(path, events, tail=""):
    path.write_text(
        "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)
        + tail,
        encoding="utf-8",
    )


@settings(max_examples=300)
@given(events=event_logs())
def test_compacted_log_replays_like_the_log(events):
    assert _replayed(compact_events(events)) == _replayed(events)


@settings(max_examples=150)
@given(events=event_logs(), data=st.data())
def test_torn_final_line_replays_like_the_log_without_it(events, data):
    line = json.dumps(data.draw(st.sampled_from(events)), sort_keys=True)
    torn = line[:data.draw(st.integers(1, len(line) - 1))]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "jobs.jsonl"
        _write(path, events, tail=torn)
        assert _replayed(load_events(path)) == _replayed(events)
        # The next process appends after the fragment without losing
        # its first event to it.
        JobStore(path).append("requeued", {"job_id": events[0]["job_id"]})
        after = load_events(path)
        assert after[:-1] == events
        assert after[-1]["event"] == "requeued"


@settings(max_examples=200)
@given(events=event_logs())
def test_next_id_is_above_every_id_in_the_log(events):
    state = replay(events)
    named = {event["job_id"] for event in events}
    named |= {cell["job_id"] for event in events
              for cell in event.get("cells") or () if cell["job_id"]}
    assert all(state.next_id > int(job_id[4:]) for job_id in named)
    assert set(state.jobs) <= named


@settings(max_examples=200)
@given(events=event_logs())
def test_every_unfinished_job_has_exactly_one_way_forward(events):
    state = replay(events)
    unfinished = {job_id for job_id, job in state.jobs.items()
                  if not job.state.terminal}
    ways = [*state.requeue, *state.rearm, *state.relower]
    assert sorted(ways) == sorted(unfinished)
    for job_id in state.requeue:
        assert state.jobs[job_id].kind == "run"
        assert state.jobs[job_id].spec is not None
