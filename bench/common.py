"""Shared constants and helpers for the benchmark's processes."""

from __future__ import annotations

import json
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MANIFEST = ROOT / "BENCHMARK.json"

PIPELINE_WORKLOADS = ("cold-serial", "cold-async", "warm-cache")
WORKLOADS = PIPELINE_WORKLOADS + ("service-jobs",)


@dataclass(frozen=True)
class Sizes:
    """Everything that scales a run.  FULL is the benchmark; SMOKE only
    proves that every metric is still produced (no number from it is
    comparable with anything)."""

    scale: int                      # pipeline workloads' graph scale
    check_scale: int                # validation="full" pre-check scale
    min_runs: int                   # timed pipeline runs per process
    warm_runs: int                  # warm-cache: timed runs per process
    layer_runs: int                 # timed runs inside a layer pass
    lane_scale: int                 # cold-async lane/plane either/or probes
    job_scales: Tuple[int, ...]     # service-jobs cycles these
    warmup_jobs: int
    min_jobs: int                   # timed jobs per process, at least
    layer_jobs: int                 # jobs in the traced closed loop
    digest_every: int               # check every n-th job's digest
    sweep_scales: Tuple[int, ...]
    copy_mib: int                   # machine.copy_gb_per_s array size
    null_spans: int                 # disabled trace.span() calls
    noop_tasks: int                 # scheduler overhead graph size
    store_events: int               # JobStore.append probe
    probe_repeats: int              # small in-process probes
    processes: int                  # fresh interpreters per end-to-end run
    enforce_budget: bool            # fail when spans do not add up


FULL = Sizes(
    scale=14, check_scale=10, min_runs=3, warm_runs=10, layer_runs=5,
    lane_scale=18,
    job_scales=(8, 10, 12), warmup_jobs=20, min_jobs=60,
    layer_jobs=200, digest_every=25, sweep_scales=(8, 10, 12),
    copy_mib=256, null_spans=1_000_000, noop_tasks=2000,
    store_events=5000, probe_repeats=5, processes=5, enforce_budget=True,
)
SMOKE = Sizes(
    scale=10, check_scale=8, min_runs=2, warm_runs=2, layer_runs=2,
    lane_scale=10,
    job_scales=(8, 10), warmup_jobs=2, min_jobs=24,
    layer_jobs=10, digest_every=5, sweep_scales=(8,),
    copy_mib=16, null_spans=50_000, noop_tasks=200,
    store_events=200, probe_repeats=2, processes=1, enforce_budget=False,
)


class Workload:
    """What ``child.py`` drives: set up, then one of the two passes.
    Counts operations and collects the notes that explain a failure."""

    def __init__(self, seed: int, seconds: float, sizes: Sizes,
                 scratch: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes
        self.scratch = scratch
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0

    def teardown(self) -> None:
        """Stop what set-up started (the scratch root is the parent's)."""

    def report(self, correct: bool, digest: Optional[str] = None,
               **extra: object) -> Dict[str, object]:
        return {
            "correct": bool(correct) and self.failed == 0,
            "attempted": self.attempted, "failed": self.failed,
            "digest": digest, "notes": self.notes, **extra,
        }


def summary(values: Iterable[float]) -> Dict[str, float]:
    """n, min, quartiles, max of a sample (quartiles as
    ``statistics.quantiles(values, n=4)`` gives them)."""
    data: List[float] = sorted(float(v) for v in values)
    if len(data) >= 2:
        q1, _, q3 = statistics.quantiles(data, n=4)
    else:
        q1 = q3 = data[0]
    return {
        "n": len(data), "min": data[0], "q1": q1,
        "median": statistics.median(data), "q3": q3, "max": data[-1],
    }


def fast_decile(values: Iterable[float], better: str) -> float:
    """The level the fast tenth of a sample reaches: its 10th percentile
    when lower is better, its 90th when higher is (nearest rank; the
    best of fewer than ten values).  What delays a run on this host —
    other tenants, seconds at a time — only ever adds time, so the fast
    end is where the program's own speed shows (README, "Steadiness")."""
    data = sorted(values, reverse=better == "higher")
    return data[len(data) // 10]


def percentile(values: Iterable[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    data = sorted(values)
    return data[min(len(data) - 1, int(share * len(data)))]


def process_table() -> Dict[int, Tuple[str, int, int]]:
    """pid -> (state, parent pid, process group) of every process."""
    table: Dict[int, Tuple[str, int, int]] = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process ended while we were listing
        table[int(stat.parent.name)] = (
            fields[0], int(fields[1]), int(fields[2]))
    return table


def peak_rss_mib() -> float:
    """Memory the workload needed: the summed resident-set high-water
    marks (``VmHWM``) of this process and every descendant alive now —
    for service-jobs that is the client, ``serve`` and its workers.
    Call it before tearing the workload down."""
    table = process_table()
    tree = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, (_, parent, _) in table.items():
            if parent in tree and pid not in tree:
                tree.add(pid)
                grew = True
    total_kib = 0
    for pid in tree:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def load_manifest() -> Dict[str, object]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def emit(doc: Dict[str, object]) -> None:
    """One JSON document per line on stdout (the child → parent pipe)."""
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    sys.stdout.flush()
