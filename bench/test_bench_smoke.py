"""Tier-1 smoke test: the benchmark still produces every metric it
declares, with digests agreeing and no failed operation.  No timing is
asserted — smoke sizes measure nothing."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def test_smoke_reports_every_declared_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke",
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    manifest = json.loads(
        (BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    document = json.loads((tmp_path / "smoke.json").read_text(encoding="utf-8"))

    assert document["pipeline_digests_agree"]
    assert set(document["workloads"]) == {w["name"] for w in manifest["workloads"]}
    for name, workload in document["workloads"].items():
        assert workload["digest_ok"] == 1, name
        assert workload["ops_failed_share"] == 0, name
        for kind in ("end_to_end", "per_layer"):
            for metric in manifest[kind]:
                reported = workload[kind][metric["name"]]
                assert reported["unit"] == metric["unit"], (name, metric)
        trace = json.loads(
            (tmp_path / f"trace-{name}.json").read_text(encoding="utf-8"))
        assert trace["traceEvents"], name
    # Every child's scratch root is gone, whether its run passed or not.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["smoke.json"] + [f"trace-{name}.json" for name in document["workloads"]])
    for key in ("git_commit", "nproc", "cpu_model", "python", "numpy",
                "scipy", "scratch_dir", "scratch_fstype",
                "machine.copy_gb_per_s"):
        assert key in document["env"], key
