"""Measurement records: one row per (backend, scale, kernel).

The harness's unit of data, flat enough to dump as CSV/JSON and
re-aggregate into the paper's tables and figure series.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List

from repro.core.results import PipelineResult


@dataclass(frozen=True)
class MeasurementRecord:
    """One kernel measurement from one pipeline run.

    Attributes
    ----------
    backend:
        Backend name.
    scale:
        Graph500 scale factor.
    num_edges:
        ``M`` for the run.
    kernel:
        Kernel id (``k0-generate`` …).
    seconds:
        Measured wall-clock time.
    edges_per_second:
        The benchmark metric (``M/t`` or ``20M/t``).
    officially_timed:
        False for Kernel 0.
    cached:
        True when the kernel's output came from the artifact cache
        (``details["artifact_cache"] == "hit"``) — ``seconds`` then
        measures a cache read, not the kernel's real work, and must not
        be presented as generate/sort throughput.
    """

    backend: str
    scale: int
    num_edges: int
    kernel: str
    seconds: float
    edges_per_second: float
    officially_timed: bool
    cached: bool = False

    @classmethod
    def from_result(cls, result: PipelineResult) -> List["MeasurementRecord"]:
        """Explode a pipeline result into per-kernel records."""
        records = []
        for kernel_result in result.kernels:
            records.append(
                cls(
                    backend=result.config.backend,
                    scale=result.config.scale,
                    num_edges=result.config.num_edges,
                    kernel=kernel_result.kernel.value,
                    seconds=kernel_result.seconds,
                    edges_per_second=kernel_result.edges_per_second,
                    officially_timed=kernel_result.officially_timed,
                    cached=(
                        kernel_result.details.get("artifact_cache") == "hit"
                    ),
                )
            )
        return records


def best_records(
    runs: Iterable[List[MeasurementRecord]],
) -> List[MeasurementRecord]:
    """Best record per kernel across repeated runs of one config.

    The record kept for each kernel is the one with the smallest
    measured time — except that an artifact-cache *hit* never displaces
    a real measurement: a cache read times the manifest load, not the
    kernel's work.  Hit timings survive only when every run hit; such
    records carry ``cached=True`` (:func:`repro.api.execute_sweep` logs
    a warning for each).

    :func:`repro.api.execute_spec` is the one caller: every run and
    every sweep cell gets its repeat discipline from here.
    """
    best: Dict[str, MeasurementRecord] = {}
    for records in runs:
        for record in records:
            current = best.get(record.kernel)
            if (
                current is None
                or (current.cached and not record.cached)
                or (current.cached == record.cached
                    and record.seconds < current.seconds)
            ):
                best[record.kernel] = record
    return [best[kernel] for kernel in sorted(best)]


def save_records(records: List[MeasurementRecord], path: Path) -> None:
    """Write records as JSON (``.json``) or CSV (anything else)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        path.write_text(
            json.dumps([asdict(r) for r in records], indent=2, sort_keys=True),
            encoding="utf-8",
        )
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "backend", "scale", "num_edges", "kernel", "seconds",
                "edges_per_second", "officially_timed", "cached",
            ],
        )
        writer.writeheader()
        for record in records:
            writer.writerow(asdict(record))


def load_records(path: Path) -> List[MeasurementRecord]:
    """Inverse of :func:`save_records` for both formats."""
    path = Path(path)
    if path.suffix == ".json":
        rows = json.loads(path.read_text(encoding="utf-8"))
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    records = []
    for row in rows:
        records.append(
            MeasurementRecord(
                backend=str(row["backend"]),
                scale=int(row["scale"]),
                num_edges=int(row["num_edges"]),
                kernel=str(row["kernel"]),
                seconds=float(row["seconds"]),
                edges_per_second=float(row["edges_per_second"]),
                officially_timed=(
                    row["officially_timed"] in (True, "True", "true", "1")
                ),
                cached=(
                    row.get("cached", False) in (True, "True", "true", "1")
                ),
            )
        )
    return records

