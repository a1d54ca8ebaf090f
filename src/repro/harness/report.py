"""Markdown report generation: measured results vs the paper's claims.

``build_report`` turns sweep records into the paper-vs-measured
document ``repro-pipeline report`` prints.  It reads nothing but the
records, so the same document renders from a live grid or from a
records file saved with ``report --records``:

* Tables I and II verbatim;
* one section per figure with the measured series and automatic *shape
  checks* (the qualitative claims of the paper, evaluated against the
  data at hand);
* the officially timed K1+K2+K3 totals;
* a machine summary header.
"""

from __future__ import annotations

import platform
import sys
from typing import Dict, List, Optional, Sequence

from repro.harness.figures import FIGURE_KERNELS, build_figure_series, render_figure
from repro.harness.records import MeasurementRecord
from repro.harness.tables import render_run_sizes, render_sloc

#: The paper's qualitative claims per figure, as (description, checker).
#: Checkers receive {backend: [(M, eps), ...]} and return True/False/None
#: (None = not decidable from the data present).


def _spread_within(series: Dict[str, list], factor: float) -> Optional[bool]:
    rates = [eps for pts in series.values() for _, eps in pts if eps > 0]
    if len(rates) < 2:
        return None
    return max(rates) <= factor * min(rates)


def _python_slowest(series: Dict[str, list]) -> Optional[bool]:
    if "python" not in series or len(series) < 2:
        return None
    def mean_eps(pts):
        rates = [eps for _, eps in pts if eps > 0]
        return sum(rates) / len(rates) if rates else float("inf")

    python_rate = mean_eps(series["python"])
    others = [mean_eps(pts) for name, pts in series.items() if name != "python"]
    return all(python_rate <= o for o in others)


def _array_cluster(series: Dict[str, list], names=("numpy", "scipy", "graphblas")) -> Optional[bool]:
    present = [n for n in names if n in series]
    if len(present) < 2:
        return None
    def mean_eps(pts):
        rates = [eps for _, eps in pts if eps > 0]
        return sum(rates) / len(rates) if rates else 0.0

    rates = [mean_eps(series[n]) for n in present]
    return max(rates) <= 5.0 * min(rates)


_FIGURE_CLAIMS = {
    "fig4": [
        ("all implementations within ~2 decades (I/O-bound kernel)",
         lambda s: _spread_within(s, 100.0)),
        ("interpreted implementation at the bottom of the band",
         _python_slowest),
    ],
    "fig5": [
        ("tight clustering (sort cost dominated by read/parse/write)",
         lambda s: _spread_within(s, 30.0)),
    ],
    "fig6": [
        ("widest interpreted-vs-array separation of the pipeline",
         _python_slowest),
    ],
    "fig7": [
        ("minimal dispersion among array implementations",
         _array_cluster),
        ("interpreted implementation 1-2 decades below",
         _python_slowest),
    ],
}


def _figure_section(figure_id: str, records: Sequence[MeasurementRecord]) -> str:
    figure = build_figure_series(figure_id, records)
    lines = [render_figure(figure), ""]
    claims = _FIGURE_CLAIMS.get(figure_id, [])
    if claims and figure.series:
        lines.append("Paper-shape checks:")
        for description, checker in claims:
            verdict = checker(figure.series)
            mark = {True: "PASS", False: "FAIL", None: "n/a "}[verdict]
            lines.append(f"- [{mark}] {description}")
    return "\n".join(lines)


def build_report(
    records: Sequence[MeasurementRecord],
    *,
    title: str = "PageRank Pipeline Benchmark — measured report",
    include_tables: bool = True,
) -> str:
    """Render a full markdown report from sweep records.

    Parameters
    ----------
    records:
        Output of :func:`repro.api.execute_sweep` (any grid).
    title:
        Document heading.
    include_tables:
        Also embed Tables I and II (static artifacts).

    Returns
    -------
    A markdown document as a string.
    """
    lines: List[str] = [f"# {title}", ""]
    lines.append(
        f"Environment: Python {sys.version.split()[0]} on "
        f"{platform.system()} {platform.machine()}"
    )
    scales = sorted({r.scale for r in records})
    backends = sorted({r.backend for r in records})
    lines.append(f"Grid: scales {scales} x backends {backends}")
    lines.append("")

    if include_tables:
        lines.append("## Table I — source lines of code")
        lines.append("")
        lines.append(render_sloc())
        lines.append("")
        lines.append("## Table II — run sizes")
        lines.append("")
        lines.append(render_run_sizes())
        lines.append("")

    titles = {
        "fig4": "## Figure 4 — Kernel 0 (generate + write)",
        "fig5": "## Figure 5 — Kernel 1 (sort)",
        "fig6": "## Figure 6 — Kernel 2 (filter)",
        "fig7": "## Figure 7 — Kernel 3 (PageRank)",
    }
    for figure_id in FIGURE_KERNELS:
        lines.append(titles[figure_id])
        lines.append("")
        lines.append("```")
        lines.append(_figure_section(figure_id, records))
        lines.append("```")
        lines.append("")

    # Benchmark-total summary: officially timed kernels only.  Cached
    # records measure a cache read, not the kernel, so they are left out
    # of the sum and the row is marked incomplete.
    lines.append("## Officially timed totals (K1 + K2 + K3)")
    lines.append("")
    lines.append("| backend | scale | total seconds |")
    lines.append("|---|---|---|")
    totals: Dict[tuple, float] = {}
    incomplete: set = set()
    for record in records:
        if not record.officially_timed:
            continue
        key = (record.backend, record.scale)
        if record.cached:
            totals.setdefault(key, 0.0)
            incomplete.add(key)
            continue
        totals[key] = totals.get(key, 0.0) + record.seconds
    for (backend, scale), seconds in sorted(totals.items()):
        marker = " *" if (backend, scale) in incomplete else ""
        lines.append(f"| {backend} | {scale} | {seconds:.4f}{marker} |")
    lines.append("")
    if incomplete:
        lines.append("\\* total omits kernels served from the artifact "
                     "cache (cache-read time is not kernel time); rerun "
                     "without --cache-dir for a full total.")
        lines.append("")
    return "\n".join(lines)
