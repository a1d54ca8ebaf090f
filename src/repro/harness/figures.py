"""Figure series and ASCII rendering (the paper's Figures 4–7).

Each figure plots *edges per second* against *number of edges* on
log-log axes, one series per implementation.  ``build_figure_series``
reshapes sweep records into that form; ``render_figure`` draws an ASCII
log-log chart plus the underlying numbers and each series' log-log
slope (the numbers are the real deliverable — the chart is for quick
reading in a terminal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.core.config import KernelName

if TYPE_CHECKING:
    from repro.harness.records import MeasurementRecord

#: Paper figure id -> kernel measured in it.
FIGURE_KERNELS = {
    "fig4": KernelName.K0_GENERATE,
    "fig5": KernelName.K1_SORT,
    "fig6": KernelName.K2_FILTER,
    "fig7": KernelName.K3_PAGERANK,
}


@dataclass
class FigureSeries:
    """One figure's data: per-backend (num_edges, edges_per_second) points.

    Attributes
    ----------
    figure_id:
        ``fig4`` … ``fig7``.
    kernel:
        The kernel the figure measures.
    series:
        Mapping backend -> list of (M, edges/s) points, ascending in M.
    """

    figure_id: str
    kernel: KernelName
    series: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)

    def backends(self) -> List[str]:
        """Series names in insertion order."""
        return list(self.series)


def build_figure_series(
    figure_id: str, records: Sequence[MeasurementRecord]
) -> FigureSeries:
    """Reshape sweep records into one paper figure's series.

    Artifact-cache hits (``record.cached``) are excluded: their
    edges/second measures a manifest read, not the kernel, and must not
    appear as generate/sort throughput in the paper figures.

    Raises
    ------
    KeyError
        For unknown figure ids.
    """
    try:
        kernel = FIGURE_KERNELS[figure_id]
    except KeyError:
        valid = ", ".join(sorted(FIGURE_KERNELS))
        raise KeyError(f"unknown figure {figure_id!r}; available: {valid}") from None
    figure = FigureSeries(figure_id=figure_id, kernel=kernel)
    for record in records:
        if record.kernel != kernel.value or record.cached:
            continue
        figure.series.setdefault(record.backend, []).append(
            (record.num_edges, record.edges_per_second)
        )
    for points in figure.series.values():
        points.sort(key=lambda p: p[0])
    return figure


_MARKERS = "ox+*#@%&"


def render_figure(
    figure: FigureSeries,
    *,
    width: int = 64,
    height: int = 18,
) -> str:
    """ASCII log-log chart plus the data table for one figure.

    Each backend gets a marker; points landing on the same cell show the
    later backend's marker.  Below the chart the exact numbers are
    tabulated (the chart is a sanity view, the table is the record).
    """
    lines: List[str] = []
    title = {
        "fig4": "Figure 4 — Kernel 0 (generate+write) edges/s vs M",
        "fig5": "Figure 5 — Kernel 1 (sort) edges/s vs M",
        "fig6": "Figure 6 — Kernel 2 (filter) edges/s vs M",
        "fig7": "Figure 7 — Kernel 3 (PageRank) edges/s vs M",
    }.get(figure.figure_id, figure.figure_id)
    lines.append(title)

    all_points = [p for pts in figure.series.values() for p in pts]
    if not all_points:
        lines.append("(no data)")
        return "\n".join(lines)

    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points if p[1] > 0 and math.isfinite(p[1])]
    if not ys:
        lines.append("(all throughputs zero/non-finite)")
        return "\n".join(lines)
    lx0, lx1 = math.log10(min(xs)), math.log10(max(xs))
    ly0, ly1 = math.log10(min(ys)), math.log10(max(ys))
    lx1 = lx1 if lx1 > lx0 else lx0 + 1.0
    ly1 = ly1 if ly1 > ly0 else ly0 + 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (backend, points) in enumerate(figure.series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        for m, eps in points:
            if eps <= 0 or not math.isfinite(eps):
                continue
            col = int((math.log10(m) - lx0) / (lx1 - lx0) * (width - 1))
            row = int((math.log10(eps) - ly0) / (ly1 - ly0) * (height - 1))
            grid[height - 1 - row][col] = marker

    lines.append(f"  edges/s (log) range [1e{ly0:.1f}, 1e{ly1:.1f}]")
    for row in grid:
        lines.append("  |" + "".join(row))
    lines.append("  +" + "-" * width)
    lines.append(f"   edges M (log) range [1e{lx0:.1f}, 1e{lx1:.1f}]")
    legend = "   legend: " + "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={name}"
        for i, name in enumerate(figure.series)
    )
    lines.append(legend)

    lines.append("")
    edge_counts = sorted({p[0] for p in all_points})
    header = ["backend"] + [f"M={m}" for m in edge_counts] + ["slope"]
    lines.append(" | ".join(header))
    for backend, points in figure.series.items():
        by_m = dict(points)
        slope = "-"  # d log10(edges/s) / d log10 M; ~0 is a flat curve
        if len(points) >= 2:
            import numpy as np

            xs, ys = np.log10(np.maximum(points, 1e-12)).T
            slope = f"{np.polyfit(xs, ys, 1)[0]:+.3f}"
        cells = [backend] + [
            f"{by_m[m]:.3g}" if m in by_m else "-" for m in edge_counts
        ] + [slope]
        lines.append(" | ".join(cells))
    return "\n".join(lines)


def allreduce_closed_form(ranks: int, num_vertices: int, iterations: int) -> int:
    """Allreduce bytes the parallel K2+K3 must move on ``ranks`` ranks.

    Kernel 2 allreduces the 8N-byte in-degree vector and one 8-byte
    scalar, Kernel 3 one 8N-byte rank vector per iteration; the star
    allreduce moves ``2·(p−1)·payload``.

    Examples
    --------
    >>> allreduce_closed_form(2, 4096, 20)
    1376272
    """
    return 2 * (ranks - 1) * ((iterations + 1) * 8 * num_vertices + 8)


def render_ranks(outcomes: Sequence) -> str:
    """Strong-scaling table for one (backend, scale): one row per rank
    count, from the :class:`~repro.api.runner.RunOutcome` of one
    ``execution="parallel"`` spec per count (paper Section IV.D).

    Seconds are the best-of-repeats K2/K3 records; speedup and
    efficiency compare K2+K3 against the first (1-rank) outcome.  The
    allreduce bytes are what the communicator logged, beside the
    closed form; ``local nnz`` is K2's per-rank share of the matrix.
    """
    from repro.harness.tables import render_table

    rows = []
    baseline = None
    for outcome in outcomes:
        seconds = {r.kernel: r.seconds for r in outcome.records}
        k2 = seconds[KernelName.K2_FILTER.value]
        k3 = seconds[KernelName.K3_PAGERANK.value]
        if baseline is None:
            baseline = k2 + k3
        speedup = baseline / (k2 + k3)
        result = outcome.result
        ranks = result.config.parallel_ranks
        nnz = result.kernel(KernelName.K2_FILTER).details["local_nnz"]
        traffic = result.kernel(KernelName.K3_PAGERANK).details["traffic"]
        expected = allreduce_closed_form(
            ranks, result.config.num_vertices, result.config.iterations
        )
        rows.append([
            ranks, f"{k2:.4f}", f"{k3:.4f}",
            f"{speedup:.2f}", f"{speedup / ranks:.2f}",
            f"{traffic['bytes_by_op'].get('allreduce', 0):,}",
            f"{expected:,}",
            str(nnz), f"{max(nnz) * len(nnz) / sum(nnz):.2f}",
        ])
    config = outcomes[0].result.config
    return render_table(
        ["ranks", "K2 s", "K3 s", "speedup", "efficiency",
         "allreduce bytes", "closed form", "local nnz", "max/mean"],
        rows,
        title=(f"K2+K3 over ranks: scale={config.scale} "
               f"backend={config.backend} "
               f"executor={config.parallel_executor} "
               f"iterations={config.iterations}"),
    )
