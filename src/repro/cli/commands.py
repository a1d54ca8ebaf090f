"""CLI subcommand implementations: thin clients over :mod:`repro.api`.

Every benchmark-executing command builds a declarative
:class:`~repro.api.spec.RunSpec`/:class:`~repro.api.spec.SweepSpec`
(possibly from a ``--scenario`` name) and hands it to the API layer —
no command plumbs config fields into the executors directly.  Output
discipline: requested payloads (``--json``, tables, reports) go to
**stdout**; progress and diagnostics go to **stderr**; exit codes are
0 success, 1 benchmark-level failure (contract violation, validation
mismatch), 2 usage error.  Commands that run the pipeline import the
engine (numpy, scipy) in their bodies, so the parser and ``--help``
load neither.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List

from repro.api import (
    RunSpec,
    SweepSpec,
    get_scenario,
    sweep_cells,
    BUILTIN_SCENARIOS,
)
from repro.backends.registry import available_backends
from repro.harness.tables import render_table


def _diag(message: str) -> None:
    """Print a diagnostic line (never the requested payload) to stderr."""
    print(message, file=sys.stderr, flush=True)


def _print_kernel_report(result) -> None:
    rows = []
    for kernel in result.kernels:
        cached = kernel.details.get("artifact_cache") == "hit"
        rows.append(
            [
                kernel.kernel.value + (" (cache hit)" if cached else ""),
                f"{kernel.seconds:.4f}",
                # A cache read's speed is not the kernel's throughput.
                "-" if cached else f"{kernel.edges_per_second:,.0f}",
                "yes" if kernel.officially_timed else "no (fig. 4 only)",
            ]
        )
    print(
        render_table(
            ["kernel", "seconds", "edges/s", "officially timed"],
            rows,
            title=(
                f"scale={result.config.scale} backend={result.config.backend} "
                f"N={result.config.num_vertices:,} M={result.config.num_edges:,}"
            ),
        )
    )
    if result.kernels:
        traffic = result.kernels[-1].details.get("traffic")
        if traffic is not None:
            # Parallel strategy: what the communicator moved, and how
            # K2 split the matrix across ranks.
            nnz = result.kernels[-2].details["local_nnz"]
            print(f"parallel: {len(nnz)} ranks, per-rank nnz "
                  f"(load balance) {nnz}")
            print(f"  traffic: {traffic['total_bytes']:,} bytes "
                  f"in {traffic['total_messages']:,} messages")
            for op, nbytes in sorted(traffic["bytes_by_op"].items()):
                print(f"    {op:10s} {nbytes:,} bytes")
        overlap = result.kernels[-1].details.get("overlap_saved_s")
        if overlap is not None:
            # Async strategy: kernel seconds above are busy time; the
            # overlap's saving shows up in the end-to-end wall-clock.
            wall = result.kernels[-1].details.get("pipeline_wall_seconds")
            lanes = result.kernels[-1].details.get("lane_busy_seconds") or {}
            lane_note = "".join(
                f"; codec on {kind} lanes ({busy:.4f}s busy)"
                for kind, busy in sorted(lanes.items())
            )
            shm_saved = result.kernels[-1].details.get("shm_bytes_saved")
            shm_note = (
                f"; shm saved {_human_bytes(int(shm_saved))} of pipe traffic"
                if shm_saved else ""
            )
            print(
                f"async overlap: wall {wall:.4f}s for "
                f"{result.total_seconds:.4f}s of kernel busy time "
                f"(overlap saved {overlap:.4f}s){lane_note}{shm_note}"
            )


#: ``run`` without ``--scale`` or ``--scenario`` runs this scale (the
#: one field :class:`RunSpec` has no default for).
DEFAULT_RUN_SCALE = 12


def run_spec_from_args(args: argparse.Namespace) -> RunSpec:
    """Build the job spec the ``run`` command submits.

    The spec-shaping flags are registered without defaults under their
    :class:`RunSpec` field names (``cli.main._spec_flag``), so the
    namespace keys that are RunSpec fields are exactly what the user
    typed.  They overlay the ``--scenario``'s fields (``repro run
    --scenario paper-s18 --seed 9`` reseeds the scenario without
    disturbing its shape) or, without one, RunSpec's own defaults.
    """
    typed = {
        name: value for name, value in vars(args).items()
        if name in RunSpec.__dataclass_fields__
    }
    # --trace takes a *path* but the spec field is a bool; the path
    # itself stays CLI-side (cmd_run writes the export there).
    if args.trace_path is not None:
        typed["trace"] = True
    if args.scenario is None:
        return RunSpec(**{"scale": DEFAULT_RUN_SCALE, **typed})
    return get_scenario(args.scenario, **typed)


def cmd_run(args: argparse.Namespace) -> int:
    """One pipeline job, declaratively specified, run via the API."""
    from repro.api.runner import execute_spec

    spec = run_spec_from_args(args)
    if spec.repeats > 1 and spec.cache_policy == "shared" \
            and not args.cache_dir:
        # cache-warm-style workloads are pointless without a cache root.
        _diag(
            "note: this spec repeats with cache_policy='shared' but no "
            "--cache-dir is set; repeats will regenerate everything "
            "instead of recording cache hits"
        )
    outcome = execute_spec(
        spec,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
    )
    result = outcome.result
    if args.trace_path and result.trace is not None:
        from repro.core.trace import chrome_trace

        Path(args.trace_path).write_text(
            json.dumps(chrome_trace(result.trace), sort_keys=True)
        )
        _diag(f"trace written to {args.trace_path} (open in Perfetto / "
              f"chrome://tracing)")
    failed = result.validation is not None and not result.validation["passed"]
    if args.json:
        doc = result.to_dict()
        if spec.repeats > 1:
            # The per-kernel best across repeats (what the sweep
            # harness reports); `kernels` above is the last repeat.
            from dataclasses import asdict

            doc["best_records"] = [asdict(r) for r in outcome.records]
        print(json.dumps(doc, indent=2, sort_keys=True))
        if failed:
            _diag(
                "error: validation failed "
                f"(l1={result.validation['l1_distance']:.4f}, "
                f"cosine={result.validation['cosine_similarity']:.6f})"
            )
        return 1 if failed else 0
    _print_kernel_report(result)
    if spec.repeats > 1:
        rows = [
            [r.kernel, f"{r.seconds:.4f}",
             "-" if r.cached else f"{r.edges_per_second:,.0f}"]
            for r in outcome.records
        ]
        print(render_table(
            ["kernel", "seconds", "edges/s"], rows,
            title=f"best of {spec.repeats} repeats",
        ))
    if result.validation is not None:
        status = "PASS" if result.validation["passed"] else "FAIL"
        print(
            f"validation: {status} "
            f"(l1={result.validation['l1_distance']:.4f}, "
            f"cosine={result.validation['cosine_similarity']:.6f}, "
            f"eigenvalue={result.validation['eigenvalue']:.6f}, "
            f"tolerance={result.validation['tolerance']})"
        )
    return 1 if failed else 0


def sweep_spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """Build the grid spec behind ``report``.

    Measurement sweeps run with contracts off (their extra file reads
    would perturb I/O caching between kernels).
    """
    base = RunSpec(
        scale=args.scales[0],
        seed=args.seed,
        execution=args.execution,
        validation="off",
        cache_policy="shared" if args.cache_dir else "off",
    )
    return SweepSpec(
        base=base,
        scales=tuple(args.scales),
        backends=tuple(args.backends),
        repeats=args.repeats,
    )


def _sweep_progress(config, repeat) -> None:
    _diag(f"... backend={config.backend} scale={config.scale} repeat={repeat}")


def rank_cells(sweep: SweepSpec, ranks: List[int],
               parallel_executor: str) -> List[List[RunSpec]]:
    """The Section IV.D strong-scaling runs for ``sweep``'s grid: each
    parallel-capable (backend, scale) cell once per rank count, in
    ascending order, 1 (the speedup baseline) included.

    Raises
    ------
    ValueError
        For a rank count below 1, or a grid with no parallel-capable
        backend — before anything runs.
    """
    parallel = dataclasses.replace(sweep, base=sweep.base.with_overrides(
        execution="parallel", parallel_executor=parallel_executor))
    counts = sorted(set(ranks) | {1})
    return [
        [spec.with_overrides(parallel_ranks=count) for count in counts]
        for _, _, spec in sweep_cells(parallel)
        if spec is not None  # backend without the parallel capability
    ]


def cmd_golden(args: argparse.Namespace) -> int:
    """Produce or verify a golden correctness record."""
    from repro.harness.goldens import GoldenRecord, golden_for_config

    spec = RunSpec(scale=args.scale, seed=args.seed, backend=args.backend)
    record = golden_for_config(spec.to_config(None))
    if args.save:
        record.save(Path(args.save))
        print(f"golden record written to {args.save}")
    if args.check:
        reference = GoldenRecord.load(Path(args.check))
        differences = reference.differences(record)
        if differences:
            print("GOLDEN MISMATCH:")
            for diff in differences:
                print(f"  {diff}")
            return 1
        print("golden record matches")
        return 0
    if not args.save:
        print(record.to_json())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run the grid (and the ranks runs) and emit the paper-vs-measured
    markdown report."""
    from repro.api.runner import execute_spec, execute_sweep
    from repro.harness.figures import render_ranks
    from repro.harness.records import save_records
    from repro.harness.report import build_report

    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    sweep = sweep_spec_from_args(args)
    cells = rank_cells(sweep, args.ranks, args.parallel_executor) \
        if args.ranks else []
    records = execute_sweep(sweep, cache_dir=cache_dir,
                            progress=_sweep_progress)
    document = build_report(records)
    if cells:
        tables = []
        for specs in cells:
            outcomes = []
            for spec in specs:
                _diag(f"... backend={spec.backend} scale={spec.scale} "
                      f"ranks={spec.parallel_ranks}")
                outcomes.append(execute_spec(spec, cache_dir=cache_dir))
            tables.append(render_ranks(outcomes))
        document += "\n".join([
            "", "## Section IV.D — K2+K3 over ranks", "",
            "\n\n".join(tables), "",
        ])
    if args.records:
        save_records(records, Path(args.records))
        _diag(f"records written to {args.records}")
    if args.output:
        Path(args.output).write_text(document, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(document)
    return 0


def _human_bytes(num_bytes: float) -> str:
    """Render a byte count with a binary-unit suffix."""
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:,.0f}{unit}" if unit == "B" else f"{value:,.1f}{unit}"
        value /= 1024
    return f"{value:,.1f}GiB"  # pragma: no cover - unreachable


def cmd_cache_ls(args: argparse.Namespace) -> int:
    """List artifact-cache entries, least recently used first."""
    import datetime

    from repro.core.artifacts import ArtifactCache

    cache = ArtifactCache(Path(args.cache_dir))
    entries = cache.entries()
    rows = [
        [
            entry.kind,
            entry.key,
            _human_bytes(entry.num_bytes),
            datetime.datetime.fromtimestamp(entry.mtime).strftime(
                "%Y-%m-%d %H:%M:%S"
            ),
        ]
        for entry in entries
    ]
    print(render_table(["kind", "key", "size", "last used"], rows,
                       title=f"artifact cache at {args.cache_dir}"))
    total = sum(entry.num_bytes for entry in entries)
    print(f"{len(entries)} entries, {_human_bytes(total)} total")
    return 0


def cmd_cache_rm(args: argparse.Namespace) -> int:
    """Remove cache entries by key (optionally limited to one kind)."""
    from repro.core.artifacts import ArtifactCache

    cache = ArtifactCache(Path(args.cache_dir))
    removed = cache.remove(args.key, kind=args.kind)
    for entry in removed:
        print(f"removed {entry.kind}/{entry.key} ({_human_bytes(entry.num_bytes)})")
    if not removed:
        # remove() skips entries whose shared lock a reader holds; an
        # entry still published now means "in use", not "absent".
        kinds = [args.kind] if args.kind else list(ArtifactCache.KINDS)
        if any(cache.published(kind, args.key) for kind in kinds):
            print(
                f"error: cache entry {args.key!r} is in use by a "
                f"concurrent reader; retry once its run finishes",
                file=sys.stderr,
            )
        else:
            print(f"error: no cache entry with key {args.key!r}",
                  file=sys.stderr)
        return 1
    return 0


def cmd_cache_prune(args: argparse.Namespace) -> int:
    """Evict least-recently-used entries until the cache fits the budget."""
    from repro.core.artifacts import ArtifactCache

    cache = ArtifactCache(Path(args.cache_dir))
    evicted = cache.prune(args.max_bytes)
    freed = sum(entry.num_bytes for entry in evicted)
    for entry in evicted:
        print(f"evicted {entry.kind}/{entry.key} ({_human_bytes(entry.num_bytes)})")
    print(
        f"evicted {len(evicted)} entries, freed {_human_bytes(freed)}; "
        f"cache now {_human_bytes(cache.total_bytes())} "
        f"(budget {_human_bytes(args.max_bytes)})"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the benchmark job service's HTTP front end until ^C."""
    from repro.service.httpd import run_server

    worker_listen = None
    if args.listen_workers is not None:
        host, _, port = str(args.listen_workers).rpartition(":")
        if not host:  # a bare port listens on loopback
            host = "127.0.0.1"
        try:
            worker_listen = (host, int(port))
        except ValueError:
            raise ValueError(
                f"--listen-workers takes HOST:PORT, got "
                f"{args.listen_workers!r}"
            )
    return run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        worker_kind=args.worker_kind,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        store_path=Path(args.store) if args.store else None,
        compact=args.compact,
        worker_listen=worker_listen,
        heartbeat_timeout=args.heartbeat_timeout,
    )


def cmd_worker(args: argparse.Namespace) -> int:
    """Run a remote worker agent until the service shuts it down."""
    from repro.service.agent import run_worker

    return run_worker(
        args.connect,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        worker_id=args.worker_id,
        heartbeat_interval=args.heartbeat_interval,
        reconnect_delay=args.reconnect_delay,
        max_reconnects=args.max_reconnects,
        artifact_sync=not args.no_artifact_sync,
        job_delay=args.job_delay,
    )


def cmd_info(args: argparse.Namespace) -> int:
    """List registered backends, generators and scenarios."""
    from repro.generators.registry import available_generators

    del args
    print("backends:")
    for name in available_backends():
        print(f"  {name}")
    print("generators:")
    for name, description in available_generators().items():
        print(f"  {name:12s} {description}")
    print("scenarios:")
    for name, description in BUILTIN_SCENARIOS.describe():
        print(f"  {name:18s} {description}")
    return 0
