"""Spans recorded in memory around the benchmark's calls into kces.

A span has a name, a start, an end, the span that contains it, and the
iteration it belongs to.  A layer's self time is its span's duration
minus the time of the spans directly inside it; the benchmark runs one
call at a time, so child spans never overlap.
"""

from __future__ import annotations

import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    iteration: int
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Times every span; keeps them only while ``enabled`` is true.

    A disabled tracer still measures each span's duration, so the caller
    reads wall times the same way whether or not the run is traced.
    """

    def __init__(self):
        self.enabled = False
        self.iteration = 0
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(next(self._ids), name, parent, self.iteration, time.perf_counter())
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if self.enabled:
                self.spans.append(s)

    def self_times(self, iteration: int) -> dict[str, float]:
        """Summed self time per span name within one iteration."""
        spans = [s for s in self.spans if s.iteration == iteration]
        inside = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                inside[s.parent] += s.duration
        totals = defaultdict(float)
        for s in spans:
            totals[s.name] += s.duration - inside[s.id]
        return dict(totals)

    def export(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
