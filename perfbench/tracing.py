"""In-memory spans around the benchmark's calls into qedc.

A span records its name, start, end, the span that was open when it began,
and the pass it belongs to.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; when disabled `span` does nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.pass_id = 0
        self._open: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.pass_id))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = perf_counter()

    def of_pass(self, pass_id: int) -> list[Span]:
        return [s for s in self.spans if s.pass_id == pass_id]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def layer_self_times(tracer: Tracer, scales: dict[int, float]) -> dict[str, float]:
    """Median over the passes in `scales` of each layer's summed self time,
    each pass's times multiplied by its scale.

    A span's self time is its duration minus that of its direct children,
    which never overlap because the calls are sequential.  The layer of a
    span is the part of its name before the first dot."""
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    per_pass: dict[str, list[float]] = {}
    for pid, scale in scales.items():
        spans = tracer.of_pass(pid)
        own = {index[id(s)]: s.duration for s in spans}
        for s in spans:
            if s.parent in own:
                own[s.parent] -= s.duration
        totals: dict[str, float] = {}
        for s in spans:
            layer = s.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own[index[id(s)]] * scale
        for layer, t in totals.items():
            per_pass.setdefault(layer, []).append(t)
    return {layer: statistics.median(ts) for layer, ts in per_pass.items()}


def span_durations(tracer: Tracer, scales: dict[int, float]) -> dict[str, float]:
    """Median over the passes in `scales` of the summed duration of each
    span name, each pass's times multiplied by its scale."""
    per_pass: dict[str, list[float]] = {}
    for pid, scale in scales.items():
        totals: dict[str, float] = {}
        for s in tracer.of_pass(pid):
            totals[s.name] = totals.get(s.name, 0.0) + s.duration * scale
        for name, t in totals.items():
            per_pass.setdefault(name, []).append(t)
    return {name: statistics.median(ts) for name, ts in per_pass.items()}
