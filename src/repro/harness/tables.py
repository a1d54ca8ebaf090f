"""Table rendering: the paper's Tables I and II plus generic grids.

Rendering is plain monospace text (also valid Markdown) so tables print
cleanly from the CLI and paste into a markdown report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import run_sizes_table
from repro.harness.sloc import backend_sloc_table

#: The paper's Table I, for side-by-side comparison in reports.
PAPER_TABLE1 = {
    "C++": 494,
    "Python": 162,
    "Python w/Pandas": 162,
    "Matlab": 102,
    "Octave": 102,
    "Julia": 162,
}


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: Optional[str] = None,
) -> str:
    """Render a monospace/Markdown table.

    Examples
    --------
    >>> print(render_table(["a", "b"], [[1, 2]]))
    | a | b |
    |---|---|
    | 1 | 2 |
    """
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "| " + " | ".join(
        h.ljust(w) for h, w in zip(headers, widths)
    ) + " |"
    separator = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    lines.append(header_line)
    lines.append(separator)
    for row in str_rows:
        lines.append(
            "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
        )
    return "\n".join(lines)


def _human_bytes(num_bytes: int) -> str:
    """Format bytes like the paper's Table II memory column (25MB, 1.6GB)."""
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1000.0 or unit == "TB":
            if value >= 100 or value == int(value):
                return f"{value:.0f}{unit}"
            return f"{value:.1f}{unit}"
        value /= 1000.0
    raise AssertionError("unreachable")


def _human_count(value: int) -> str:
    """Format counts like the paper's Table II (65K, 1M, 67M): floor to
    the nearest decimal K/M."""
    if value >= 1_000_000:
        return f"{value // 1_000_000}M"
    if value >= 1_000:
        return f"{value // 1_000}K"
    return str(value)


def run_sizes_rows(scales: Optional[List[int]] = None) -> List[List[object]]:
    """Table II rows: scale, max vertices, max edges, ~memory."""
    rows = []
    for entry in run_sizes_table(scales):
        rows.append(
            [
                entry.scale,
                _human_count(entry.max_vertices),
                _human_count(entry.max_edges),
                _human_bytes(entry.memory_bytes),
            ]
        )
    return rows


def render_run_sizes(scales: Optional[List[int]] = None) -> str:
    """Render Table II (benchmark run sizes)."""
    return render_table(
        ["Scale", "Max Vertices", "Max Edges", "~Memory"],
        run_sizes_rows(scales),
        title="Table II — benchmark run sizes",
    )


def sloc_rows(backends: Optional[List[str]] = None) -> List[List[object]]:
    """Table I rows for this repository's backends."""
    return [[name, sloc] for name, sloc in backend_sloc_table(backends).items()]


def render_sloc(backends: Optional[List[str]] = None) -> str:
    """Render Table I (source lines of code per backend), with the
    paper's per-language numbers appended for comparison."""
    ours = render_table(
        ["Backend", "Source Lines of Code"],
        sloc_rows(backends),
        title="Table I — source lines of code (this repository's backends)",
    )
    paper = render_table(
        ["Language", "Source Lines of Code"],
        [[k, v] for k, v in PAPER_TABLE1.items()],
        title="Paper Table I — for comparison",
    )
    return ours + "\n\n" + paper
