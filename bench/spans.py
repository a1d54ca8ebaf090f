"""Benchmark-owned span recorder (imports nothing from the program).

Layer passes wrap each call into a layer's public functions in
``recorder.span(name)``; spans carry ``name, id, parent, start, end``
plus free-form ``args``, stay in memory, and are written out as Chrome
Trace Events when the workload ends.  One recorder serves one thread.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List


@dataclass
class Span:
    name: str
    id: int
    parent: int  # 0 = root
    start: float
    end: float = 0.0
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []

    @contextmanager
    def span(self, name: str, **args: object) -> Iterator[Span]:
        parent = self._open[-1].id if self._open else 0
        span = Span(name, len(self.spans) + 1, parent, 0.0, args=dict(args))
        self.spans.append(span)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> List[float]:
        """Durations of every closed span called ``name``, in order."""
        return [s.seconds for s in self.spans if s.name == name and s.end]

    def median(self, name: str) -> float:
        return statistics.median(self.seconds(name))

    def self_seconds(self) -> Dict[str, float]:
        """Per name: span time minus the time its child spans cover."""
        children: Dict[int, float] = {}
        for span in self.spans:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
        out: Dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - children.get(span.id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def write_chrome_trace(self, path: Path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name, "ph": "X", "pid": 1, "tid": 1,
                "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
                "args": {"id": s.id, "parent": s.parent, **s.args},
            }
            for s in self.spans if s.end
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
