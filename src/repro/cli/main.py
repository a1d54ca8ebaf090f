"""``repro-pipeline`` entry point: argument parsing and dispatch."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import List, Optional

from repro.cli import commands
from repro.core.artifacts import ArtifactCache
from repro.core.config import FIELD_CHOICES, WORKER_KINDS
from repro.core.exceptions import ExecutorCapabilityError, PipelineError

#: ``report``'s default grid: small enough for a laptop, wide enough to
#: show each figure's slope (the paper swept scales 16-22 on a server).
DEFAULT_REPORT_SCALES = [10, 12]
DEFAULT_REPORT_BACKENDS = ["python", "numpy", "scipy", "dataframe", "graphblas"]


def _csv_ints(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one int")
    return values


def _csv_strs(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}


def _size_bytes(text: str) -> int:
    """Parse a byte budget like ``500M``, ``2G``, ``1048576``, or ``0``."""
    raw = text.strip().lower().rstrip("b")
    multiplier = 1
    if raw and raw[-1] in _SIZE_SUFFIXES:
        multiplier = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a size like 500M, 2G, or a byte count; got {text!r}"
        )
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(
            f"size must be a finite value >= 0, got {text!r}"
        )
    return int(value * multiplier)


def _spec_flag(run: argparse.ArgumentParser, flag: str,
               dest: Optional[str] = None, **kwargs) -> None:
    """Register a ``run`` flag that sets one :class:`RunSpec` field.

    ``dest`` is the field's name, an enum field's ``choices`` come from
    the config's table, and no default is stored: the parsed namespace
    holds only what the user typed, and defaults live on RunSpec alone.
    """
    dest = dest or flag[2:].replace("-", "_")
    if dest in FIELD_CHOICES:
        kwargs["choices"] = FIELD_CHOICES[dest]
    run.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """Construct the full argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-pipeline",
        description=(
            "PageRank Pipeline Benchmark (Dreher et al. 2016) — run the "
            "four-kernel pipeline and report the paper's tables/figures."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the pipeline once and report")
    run.add_argument("--scenario", default=None,
                     help="named workload from the scenario registry "
                          "(see `repro-pipeline info`); any other flag "
                          "given overrides the scenario's field")
    spec_flag = functools.partial(_spec_flag, run)
    spec_flag("--scale", type=int,
              help=f"Graph500 scale S (default {commands.DEFAULT_RUN_SCALE})")
    spec_flag("--edge-factor", type=int)
    spec_flag("--backend")
    spec_flag("--generator")
    spec_flag("--seed", type=int)
    spec_flag("--num-files", type=int,
              help="shard count for kernel 0/1 output files")
    spec_flag("--iterations", type=int)
    spec_flag("--damping", type=float)
    spec_flag("--file-format")
    spec_flag("--formula",
              help="kernel 3 update form (paper-body documents the body "
                   "text's typo)")
    spec_flag("--data-dir",
              help="keep kernel files here instead of a temp dir")
    spec_flag("--execution",
              help="execution strategy: serial (in-memory), streaming "
                   "(out-of-core kernels 1 and 2), parallel (sharded "
                   "kernels 2+3), or async (overlap stage I/O with compute; "
                   "per-kernel times report busy time and the recovered "
                   "wall-clock is reported as overlap_saved_s)")
    spec_flag("--ranks", dest="parallel_ranks", type=int,
              help="rank count for --execution parallel")
    spec_flag("--parallel-executor",
              help="ranks for --execution parallel run as threads (sim) "
                   "or OS processes (mp); same digest and traffic log")
    spec_flag("--batch-edges", dest="streaming_batch_edges", type=int,
              help="edges per sorted run (kernel 1) and per batch "
                   "(kernel 2) for --execution streaming")
    spec_flag("--async-lanes",
              help="for --execution async: run the GIL-bound TSV codec "
                   "tasks on scheduler threads (thread) or offload them "
                   "to lane worker processes (process); results are "
                   "bit-identical, K3 details report per-lane busy time")
    spec_flag("--shard-plane",
              help="for --async-lanes process: hand edge arrays to lane "
                   "workers over their pipes (pipe) or through "
                   "shared-memory ShardBuffer segments (shm, zero-copy; "
                   "falls back to pipe with a warning where /dev/shm is "
                   "unavailable); results are bit-identical, K3 details "
                   "report handoff_mode and shm_bytes_saved")
    spec_flag("--repeats", type=int,
              help="repeat the run; per-kernel records keep the best time")
    spec_flag("--validation",
              help="correctness checks: off, contracts (the four "
                   "inter-kernel contracts, the default), full (contracts "
                   "plus the eigenvector cross-check after kernel 3; exit "
                   "1 on FAIL)")
    run.add_argument("--cache-dir", default=None,
                     help="reuse kernel 0/1 outputs from this artifact "
                          "cache (created on first use); the cached "
                          "kernel files then live under the cache, not "
                          "--data-dir")
    run.add_argument("--trace", dest="trace_path", metavar="PATH",
                     default=None,
                     help="record a span trace of the run (executor "
                          "stages, scheduler tasks, lane ops, shm "
                          "segments) and write it here as a Chrome/"
                          "Perfetto trace.json")
    run.add_argument("--json", action="store_true",
                     help="emit the JSON result on stdout (diagnostics "
                          "go to stderr)")
    run.set_defaults(func=commands.cmd_run)

    golden = sub.add_parser(
        "golden",
        help="produce or check a golden correctness record "
             "(the paper's 'what outputs should be recorded?' answer)",
    )
    golden.add_argument("--scale", type=int, default=8)
    golden.add_argument("--backend", default="scipy")
    golden.add_argument("--seed", type=int, default=1)
    golden.add_argument("--save", default=None,
                        help="write the record to this JSON file")
    golden.add_argument("--check", default=None,
                        help="compare against a previously saved record")
    golden.set_defaults(func=commands.cmd_golden)

    report = sub.add_parser(
        "report",
        help="run a (backend x scale) grid and print the paper-vs-measured "
             "markdown report: Tables I-II, Figures 4-7 with slopes and "
             "shape checks, K1+K2+K3 totals, and with --ranks the "
             "Section IV.D K2+K3 ranks table",
    )
    report.add_argument("--scales", type=_csv_ints,
                        default=DEFAULT_REPORT_SCALES)
    report.add_argument("--backends", type=_csv_strs,
                        default=DEFAULT_REPORT_BACKENDS)
    report.add_argument("--repeats", type=int, default=1)
    report.add_argument("--execution", default="serial",
                        choices=FIELD_CHOICES["execution"])
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--cache-dir", default=None,
                        help="reuse kernel 0/1/2 outputs across cells and "
                             "repeats")
    report.add_argument("--ranks", type=_csv_ints, default=None,
                        help="also run each parallel-capable cell at these "
                             "rank counts (1, the speedup baseline, is "
                             "always added) and append the K2+K3 ranks "
                             "table")
    report.add_argument("--parallel-executor", default="sim",
                        choices=FIELD_CHOICES["parallel_executor"],
                        help="with --ranks: ranks run as threads (sim) or "
                             "OS processes (mp)")
    report.add_argument("--records", default=None,
                        help="also write the grid's measurement records to "
                             "this .json/.csv file (the report renders "
                             "from them)")
    report.add_argument("--output", default=None,
                        help="write the markdown report here (stdout otherwise)")
    report.set_defaults(func=commands.cmd_report)

    cache = sub.add_parser(
        "cache",
        help="inspect and prune the kernel artifact cache "
             "(size-budgeted LRU over k0/k1 datasets and k2 matrices)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    cache_ls = cache_sub.add_parser(
        "ls", help="list cache entries, least recently used first"
    )
    cache_ls.add_argument("--cache-dir", required=True,
                          help="artifact cache root to inspect")
    cache_ls.set_defaults(func=commands.cmd_cache_ls)

    cache_rm = cache_sub.add_parser("rm", help="remove entries by key")
    cache_rm.add_argument("key", help="entry key (see `cache ls`)")
    cache_rm.add_argument("--cache-dir", required=True)
    cache_rm.add_argument("--kind", default=None,
                          choices=list(ArtifactCache.KINDS),
                          help="only remove the entry of this kind "
                               "(default: all kinds with that key)")
    cache_rm.set_defaults(func=commands.cmd_cache_rm)

    cache_prune = cache_sub.add_parser(
        "prune",
        help="evict least-recently-used entries until the cache fits "
             "a byte budget (0 empties it)",
    )
    cache_prune.add_argument("--cache-dir", required=True)
    cache_prune.add_argument("--max-bytes", type=_size_bytes, required=True,
                             help="size budget, e.g. 500M, 2G, or 0")
    cache_prune.set_defaults(func=commands.cmd_cache_prune)

    serve = sub.add_parser(
        "serve",
        help="start the benchmark job service's JSON-over-HTTP front "
             "end (submit RunSpecs or scenarios; many concurrent "
             "clients share one worker pool and artifact cache)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734,
                       help="TCP port (0 picks a free one; the bound "
                            "address is printed on stdout)")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent benchmark jobs")
    serve.add_argument("--worker-kind", default="thread",
                       choices=list(WORKER_KINDS),
                       help="where jobs execute: thread (in-process "
                            "worker threads), process (a pool of "
                            "long-lived worker processes), or remote "
                            "(TCP agents started with `repro-pipeline "
                            "worker --connect`); specs ship as JSON, "
                            "results return as the job store's "
                            "record/rank-digest documents either way")
    serve.add_argument("--cache-dir", default=None,
                       help="artifact cache shared by all jobs whose "
                            "spec allows it")
    serve.add_argument("--store", default=None,
                       help="durable JSONL job store (lifecycle events "
                            "+ per-kernel records); an existing store "
                            "is replayed on startup — finished jobs "
                            "restore verbatim, interrupted jobs "
                            "re-queue")
    serve.add_argument("--compact", action="store_true",
                       help="compact the job store on startup and "
                            "periodically while serving (drops "
                            "superseded lifecycle events, keeps "
                            "terminal results)")
    serve.add_argument("--listen-workers", default=None,
                       metavar="HOST:PORT",
                       help="with --worker-kind remote: TCP address to "
                            "accept worker registrations on (port 0 "
                            "picks a free one; the bound address is "
                            "printed as a `workers on HOST:PORT` line)")
    serve.add_argument("--heartbeat-timeout", type=float, default=10.0,
                       help="with --worker-kind remote: seconds without "
                            "a heartbeat before a worker is declared "
                            "lost and its in-flight job requeued")
    serve.set_defaults(func=commands.cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="run a remote worker agent: connect to a `serve "
             "--worker-kind remote --listen-workers` service over TCP, "
             "execute dispatched jobs, stream results back, and "
             "heartbeat for liveness",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the service's worker-listen address (a "
                             "bare port means 127.0.0.1)")
    worker.add_argument("--cache-dir", default=None,
                        help="this host's artifact cache; warm K0/K1 "
                             "entries sync to/from the service over "
                             "GET/PUT /artifacts so hits survive host "
                             "boundaries")
    worker.add_argument("--worker-id", default=None,
                        help="name announced at registration (default: "
                             "hostname-pid)")
    worker.add_argument("--heartbeat-interval", type=float, default=None,
                        help="seconds between heartbeats (default: the "
                             "service-advertised interval)")
    worker.add_argument("--reconnect-delay", type=float, default=1.0,
                        help="seconds to wait before redialing a lost "
                             "connection")
    worker.add_argument("--max-reconnects", type=int, default=None,
                        help="give up after this many consecutive "
                             "failed dials (default: retry forever)")
    worker.add_argument("--no-artifact-sync", action="store_true",
                        help="skip the cross-host artifact sync even "
                             "when --cache-dir is set")
    worker.add_argument("--job-delay", type=float, default=0.0,
                        help="sleep this long before executing each "
                             "job (fault-injection/testing aid)")
    worker.set_defaults(func=commands.cmd_worker)

    info = sub.add_parser("info", help="list backends/generators/scenarios")
    info.set_defaults(func=commands.cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExecutorCapabilityError as exc:
        # Strategy/backend mismatch is a usage error (also a ValueError,
        # but listed first so it never falls into the benchmark-failure
        # branch below).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        # Kernel contract violations and their kin: the benchmark ran
        # and produced provably wrong output — exit 1, diagnose on
        # stderr (any --json payload already went to stdout).
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into something that closed early (e.g.
        # `repro-pipeline info | head`); exit quietly like other CLIs.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
