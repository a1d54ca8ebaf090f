"""The process heap policy (:mod:`repro._util.heap`).

``mallopt`` settings belong to the process and stay for its life, so
every check that depends on them runs in a fresh interpreter: one made
in the test runner's own process would measure whatever earlier tests
left in its heap.  The children import the same ``repro`` this runner
did — the source tree or the installed package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro._util import heap
from tests.integration.test_rank_digests import DIGESTS

#: Minor faults a second scale-12 serial run may take.  The parent of the
#: policy took ~4 200 on that run (2-core x86-64 guest, glibc 2.36);
#: with it, 0-3.
SECOND_RUN_FAULTS = 100

#: The bench graph's rank digest (scale 14, seed 1, 4 TSV shards, scipy).
SCALE14_DIGEST = DIGESTS[14, "serial"]


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


needs_glibc = pytest.mark.skipif(not _glibc(), reason="needs glibc")


def _child(body: str, *args: str):
    """Run ``body`` in a fresh interpreter (``args`` in its ``sys.argv``);
    its last stdout line is JSON."""
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body), *args], env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_keep_heap_is_idempotent_and_reports_what_it_applied():
    report = _child("""
        import json
        from repro._util.heap import keep_heap
        first = keep_heap()
        print(json.dumps({"policy": first, "same": keep_heap() is first}))
    """)
    assert report["same"]
    policy = report["policy"]
    if not _glibc():
        assert policy == heap.UNAVAILABLE
        return
    mmap = {key: policy.pop(key) for key in ("mmap_threshold", "mmap_max")
            if key in policy}
    assert mmap in ({"mmap_threshold": heap.MMAP_THRESHOLD}, {"mmap_max": 0})
    assert policy == {"trim_threshold": heap.TRIM_THRESHOLD,
                      "arena_max": heap.ARENA_MAX}


class TestApply:
    """The decision table, against a stand-in ``mallopt`` (no process
    state changes, so these run in the runner's process)."""

    def test_refused_threshold_falls_back_to_no_mmap(self):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return int(param != heap._M_MMAP_THRESHOLD)

        assert heap._apply(mallopt) == {
            "mmap_max": 0, "trim_threshold": heap.TRIM_THRESHOLD,
            "arena_max": heap.ARENA_MAX}
        assert (heap._M_MMAP_MAX, 0) in calls

    def test_accepted_threshold_leaves_mmap_max_alone(self):
        calls = []

        def mallopt(param, value):
            calls.append(param)
            return 1

        assert heap._apply(mallopt)["mmap_threshold"] == heap.MMAP_THRESHOLD
        assert heap._M_MMAP_MAX not in calls

    def test_nothing_accepted_or_no_mallopt_is_unavailable(self):
        assert heap._apply(lambda param, value: 0) == heap.UNAVAILABLE
        assert heap._apply(None) == heap.UNAVAILABLE


@needs_glibc
def test_second_run_takes_almost_no_minor_faults():
    report = _child("""
        import json
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import run_pipeline
        config = PipelineConfig(scale=12, seed=1)
        run_pipeline(config)  # warm-up: the heap grows to the run's peak
        second = run_pipeline(config)
        print(json.dumps({
            "faults": [k.details["minor_faults"] for k in second.kernels],
            "policy": second.kernels[-1].details["heap_policy"],
        }))
    """)
    assert report["policy"] != heap.UNAVAILABLE
    assert all(count >= 0 for count in report["faults"])
    assert sum(report["faults"]) < SECOND_RUN_FAULTS, report


def test_digest_holds_on_every_strategy_and_a_warm_hit(tmp_path):
    report = _child("""
        import json, sys
        from repro.api import RunSpec, execute_spec
        digests, k3 = {}, {}

        def run(name, **fields):
            spec = RunSpec(scale=14, seed=1, edge_factor=16, num_files=4,
                           file_format="tsv", backend="scipy",
                           validation="off", **fields)
            outcome = execute_spec(spec, cache_dir=sys.argv[1])
            digests[name] = outcome.rank_digest[:12]
            k3[name] = outcome.results[-1].kernels[-1].details
            return outcome

        for execution in ("serial", "async", "streaming"):
            run(execution, execution=execution, cache_policy="off")
        run("cold", cache_policy="shared")
        warm = run("warm", cache_policy="shared")
        print(json.dumps({
            "digests": digests,
            "warm_states": [k.details.get("artifact_cache")
                            for k in warm.results[-1].kernels[:3]],
            "heap_policy": {n: "heap_policy" in d for n, d in k3.items()},
            "async_faults": k3["async"].get("minor_faults"),
        }))
    """, str(tmp_path))
    assert report["digests"] == dict.fromkeys(
        ("serial", "async", "streaming", "cold", "warm"), SCALE14_DIGEST)
    assert report["warm_states"] == ["hit", "hit", "hit"]
    assert all(report["heap_policy"].values())
    assert isinstance(report["async_faults"], int)
