"""The repository's benchmark: four workloads, end-to-end metrics with
tracing off and per-layer metrics from a separate layer pass.

One run of one workload (what ``BENCHMARK.json``'s ``command`` is
called with)::

    python3 bench/run.py --workload cold-serial --seed 1 --seconds 12 --trace 0

prints every metric by name and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A whole result document (every workload, both passes, ``--repeats``
seeds each) and the comparison of two of them::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--repeats R] [--out DIR]
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --metrics

Each workload runs in its own fresh interpreter (``child.py``), so
``setup_s`` includes imports and ``peak_rss_mb`` is per workload; the
program receives only generated specs, never a workload name.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR, FULL, OUT, PIPELINE_WORKLOADS, ROOT, SMOKE, SRC, WORKLOADS,
    fast_decile, load_manifest, process_table, summary,
)

CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """A child failed to produce a result."""


# ----------------------------------------------------------------------
# One child interpreter
# ----------------------------------------------------------------------
def _kill_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group (serve workers,
    forkservers, lane workers) and wait until every member has ended; a
    zombie waiting for init to reap it has."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        if not any(group == pgid and state != "Z"
                   for state, _, group in process_table().values()):
            return
        time.sleep(0.01)


def run_child(workload: str, seed: int, seconds: float, scratch: Path, *,
              trace_out: Optional[Path] = None, full_check: bool = True,
              smoke: bool = False) -> Tuple[float, Dict[str, object]]:
    """Start ``child.py``; returns (seconds from spawn to its ``ready``
    line, its result document)."""
    scratch.mkdir(parents=True)
    (scratch / "tmp").mkdir()
    argv = [sys.executable, str(BENCH_DIR / "child.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--scratch", str(scratch)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    if smoke:
        argv.append("--smoke")
    if full_check:
        argv.append("--full-check")
    # The program's own scratch files (tempfile) must stay inside the
    # checkout too.  Its forkserver pools bind an AF_UNIX socket under
    # TMPDIR, whose path may be at most 108 bytes however deep the
    # checkout lies: so the child's working directory is the scratch
    # root and TMPDIR names it through /proc/self/cwd, which every
    # process the child starts inherits (the program never chdirs).
    env = {**os.environ, "TMPDIR": "/proc/self/cwd/tmp",
           "PYTHONPATH": str(SRC)}
    spawned = time.perf_counter()
    child = subprocess.Popen(
        argv, env=env, cwd=scratch, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill_group, [child.pid])
    watchdog.start()
    setup_s = None
    result = None
    stderr: List[bytes] = []
    drain = threading.Thread(
        target=lambda: stderr.append(child.stderr.read()), daemon=True)
    drain.start()
    try:
        for raw in child.stdout:
            try:
                doc = json.loads(raw)
            except ValueError:
                continue  # stray program output, not an event line
            if doc.get("event") == "ready":
                setup_s = time.perf_counter() - spawned
            elif doc.get("event") == "result":
                result = doc
        code = child.wait()
    finally:
        watchdog.cancel()
        _kill_group(child.pid)
        child.wait()
        drain.join(timeout=5)
        child.stdout.close()
        child.stderr.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0 or setup_s is None or result is None:
        tail = b"".join(stderr).decode("utf-8", "replace")[-2000:]
        raise BenchmarkError(
            f"{workload} child exited {code} without a result:\n{tail}")
    return setup_s, result


# ----------------------------------------------------------------------
# One run of one workload (the BENCHMARK.json command)
# ----------------------------------------------------------------------
def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 out: Path, smoke: bool = False) -> Dict[str, object]:
    """One run.  Returns the contract's four keys plus ``detail`` (the
    digest, notes and sample statistics), which the result document
    keeps and the last stdout line leaves out.  Scratch files and, for
    a layer pass, ``trace-<workload>.json`` go under ``out``."""
    from registry import home_metrics, units

    unit = units()
    manifest = load_manifest()
    sizes = SMOKE if smoke else FULL
    # A smoke run works in a directory whose path alone is longer than a
    # socket address may be, so that tier-1 keeps proving run_child's
    # TMPDIR does not depend on where the checkout lies.
    scratch = out / (f"scratch-{os.getpid()}-{workload}"
                     + "-long-path" * 12 * smoke)
    setups: List[float] = []
    try:
        if trace:
            _, result = run_child(
                workload, seed, seconds, scratch / "layers",
                trace_out=out / f"trace-{workload}.json", smoke=smoke)
            results = [result]
        else:
            # Run-to-run differences here are mostly between processes,
            # not within one (bench/README.md, "Steadiness"), so one run
            # is several fresh interpreters that each set up and measure
            # for their share of the time; their samples are pooled.
            results = []
            for index in range(sizes.processes):
                setup_s, result = run_child(
                    workload, seed, seconds / sizes.processes,
                    scratch / f"process-{index}", smoke=smoke,
                    full_check=index == sizes.processes - 1)
                setups.append(setup_s)
                results.append(result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        pooled = {"run_wall_s": [result["metrics"]["bench.traced_run_wall_s"]]}
        missing = set(home_metrics(workload)) - set(result["metrics"])
        if missing:
            raise BenchmarkError(
                f"{workload} layer pass did not measure {sorted(missing)}")
        values = {m["name"]: result["metrics"].get(m["name"], 0)
                  for m in manifest["per_layer"]}
    else:
        # Timings and rates: the fast decile of the processes' pooled
        # samples (common.fast_decile says why); set-up: the median of
        # the processes' set-ups; memory: the largest.
        pooled = {name: [v for r in results for v in r["samples"][name]]
                  for name in results[0]["samples"]}
        better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
        values = {name: fast_decile(samples, better[name])
                  for name, samples in pooled.items()}
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
        values = {name: values[name] for name in better}
    digests = {r["digest"] for r in results}
    return {
        "correct": all(r["correct"] for r in results) and len(digests) == 1,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in values.items()},
        "detail": {
            "seed": seed, "trace": int(trace), "digest": results[0]["digest"],
            "notes": [note for r in results for note in r["notes"]],
            "stats": {name: summary(v) for name, v in pooled.items()},
            "setup_samples": setups,
            "self_seconds": results[0].get("self_seconds"),
        },
    }


def print_metrics(workload: str, run: Dict[str, object]) -> None:
    print(f"# {workload}: correct={run['correct']} "
          f"attempted={run['attempted']} failed={run['failed']}")
    for name, metric in run["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, stats in run["detail"]["stats"].items():
        print(f"# {name}: " + " ".join(
            f"{key}={value:.6g}" for key, value in stats.items()))
    for note in run["detail"]["notes"]:
        print(f"# note: {note}", file=sys.stderr)


# ----------------------------------------------------------------------
# A whole result document
# ----------------------------------------------------------------------
def environment(scratch: Path) -> Dict[str, object]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "unknown"

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    fstype, best = "unknown", -1
    for line in Path("/proc/mounts").read_text().splitlines():
        _, mount, kind = line.split()[:3]
        if str(scratch).startswith(mount) and len(mount) > best:
            fstype, best = kind, len(mount)
    return {
        "git_commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "platform": platform.platform(),
        "scratch_dir": str(scratch), "scratch_fstype": fstype,
    }


def run_suite(workloads: List[str], seed: int, seconds: float,
              repeats: int, smoke: bool, out: Path) -> Dict[str, object]:
    """Every workload: ``repeats`` end-to-end runs (seeds ``seed``,
    ``seed+1``, ...) and one layer pass; one document."""
    manifest = load_manifest()
    bounds = {m["name"]: m for m in manifest["end_to_end"]}
    document: Dict[str, object] = {
        "schema": 1, "sizes": "smoke" if smoke else "full",
        "seed": seed, "repeats": repeats, "run_seconds": seconds,
        "env": environment(out), "workloads": {},
    }
    for workload in workloads:
        runs = []
        for index in range(repeats):
            run = run_workload(
                workload, seed + index, seconds, False, out, smoke)
            print_metrics(workload, run)
            runs.append(run)
        layer = run_workload(workload, seed, seconds, True, out, smoke)
        print_metrics(workload, layer)
        end_to_end = {}
        for name, declared in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summary(values)
            end_to_end[name] = {
                "unit": declared["unit"], "values": values, **stats,
                "spread": (stats["q3"] - stats["q1"]) / stats["median"],
            }
        attempted = sum(r["attempted"] for r in runs + [layer])
        failed = sum(r["failed"] for r in runs + [layer])
        # like with like: the layer pass reports the median of its runs
        timed_wall = statistics.median(
            r["detail"]["stats"]["run_wall_s"]["median"] for r in runs)
        traced_wall = layer["metrics"]["bench.traced_run_wall_s"]["value"]
        document["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": layer["metrics"],
            "digest_ok": int(all(r["correct"] for r in runs + [layer])),
            "ops_failed_share": failed / attempted,
            "span_overhead_share": (traced_wall - timed_wall) / timed_wall,
            "digests": {str(r["detail"]["seed"]): r["detail"]["digest"]
                        for r in runs},
            "runs": [r["detail"] for r in runs + [layer]],
        }
    # The three pipeline workloads run one graph per seed: one digest.
    pipeline = [document["workloads"][w]["digests"]
                for w in PIPELINE_WORKLOADS if w in document["workloads"]]
    document["pipeline_digests_agree"] = all(
        d == pipeline[0] for d in pipeline)
    serial = document["workloads"].get("cold-serial")
    if serial is not None:
        document["env"]["machine.copy_gb_per_s"] = (
            serial["per_layer"]["machine.copy_gb_per_s"]["value"])
    return document


def suite_ok(document: Dict[str, object]) -> bool:
    return document["pipeline_digests_agree"] and all(
        w["digest_ok"] == 1 and w["ops_failed_share"] == 0
        for w in document["workloads"].values())


# ----------------------------------------------------------------------
# Comparing two result documents
# ----------------------------------------------------------------------
def compare(path_a: Path, path_b: Path) -> int:
    """One row per (end-to-end metric, workload): is B within the
    benchmark's bound of A?  ``unresolved`` = either side's own
    run-to-run spread (interquartile range over median) is wider than
    the bound, so "within" cannot be told from "worse"; ``missing`` =
    one document lacks the pair.  Exit 1 on any ``worse`` or
    ``missing``."""
    first = json.loads(path_a.read_text(encoding="utf-8"))["workloads"]
    second = json.loads(path_b.read_text(encoding="utf-8"))["workloads"]
    counts = {"within": 0, "worse": 0, "unresolved": 0, "missing": 0}
    print(f"{'workload':<13} {'metric':<15} {'A median':>12} "
          f"{'B median':>12} {'B worse by':>10} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for declared in load_manifest()["end_to_end"]:
        name, bound = declared["name"], declared["bound"]
        for workload in WORKLOADS:
            a = first.get(workload, {}).get("end_to_end", {}).get(name)
            b = second.get(workload, {}).get("end_to_end", {}).get(name)
            if a is None or b is None:
                counts["missing"] += 1
                print(f"{workload:<13} {name:<15} "
                      f"{'-' if a is None else 'present':>12} "
                      f"{'-' if b is None else 'present':>12} "
                      f"{'':>10} {'':>7} {bound:>6.0%}  missing")
                continue
            change = (b["median"] - a["median"]) / a["median"]
            worse_by = change if declared["better"] == "lower" else -change
            spread = max(a["spread"], b["spread"])
            if worse_by > bound:
                verdict = "worse"
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "within"
            counts[verdict] += 1
            print(f"{workload:<13} {name:<15} {a['median']:>12.6g} "
                  f"{b['median']:>12.6g} {worse_by:>+10.1%} {spread:>7.1%} "
                  f"{bound:>6.0%}  {verdict}")
    print(" ".join(f"{key}={value}" for key, value in counts.items()))
    return 1 if counts["worse"] or counts["missing"] else 0


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=None, metavar="NAME")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run of one workload: 0 = end-to-end "
                             "metrics, 1 = per-layer metrics")
    parser.add_argument("--repeats", type=int, default=3,
                        help="result document: end-to-end runs per "
                             "workload, one seed each")
    parser.add_argument("--out", default=str(OUT),
                        help="where scratch files, traces and result "
                             "documents go (default: bench/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one run each: proves every "
                             "metric is produced, measures nothing")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--metrics", action="store_true",
                        help="list every declared metric, where it is "
                             "measured and what it should move")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    if args.metrics:
        from registry import print_table

        print_table()
        return 0
    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else load_manifest()["run_seconds"]
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    # A terminated run still takes its children down (run_child's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.trace is not None:
            if args.workload is None or len(args.workload) != 1:
                parser.error("--trace measures exactly one --workload")
            workload = args.workload[0]
            run = run_workload(workload, args.seed, seconds,
                               bool(args.trace), out, args.smoke)
            print_metrics(workload, run)
            del run["detail"]
            print(json.dumps(run))
            return 0
        document = run_suite(
            list(args.workload or WORKLOADS), args.seed, seconds,
            1 if args.smoke else args.repeats, args.smoke, out)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    target = out / ("smoke.json" if args.smoke
                    else time.strftime("result-%Y%m%dT%H%M%S.json"))
    target.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    ok = suite_ok(document)
    print(f"result document: {target} ({'ok' if ok else 'FAILED checks'})")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
