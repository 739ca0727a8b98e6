"""In-memory span recorder and the self-time arithmetic over its span tree.

A span is (name, start, end, parent, counts).  Spans are opened and closed
by wrappers that the benchmark installs around the callables other modules
resolve (module attributes and rate-family methods); the package itself is
never edited.  Everything stays in memory until ``Tracer.dump`` writes the
spans out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1  # index into Tracer.spans, -1 for a root
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread with ``time.perf_counter``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def traced(self, fn, name: str, count=None):
        """``fn`` wrapped in a span; ``count(args, result)`` returns the span's counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx].counts = count(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``unpatch``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, count))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.counts]) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            children[s.parent].append((max(s.start, p.start), min(s.end, p.end)))
    return [s.duration - covered(kids) for s, kids in zip(spans, children)]


@dataclass
class LayerTotals:
    """Per-name sums over a span list."""

    calls: int = 0
    total: float = 0.0
    self: float = 0.0
    counts: dict = field(default_factory=dict)


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    out: dict[str, LayerTotals] = {}
    for s, own in zip(spans, self_times(spans)):
        t = out.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.total += s.duration
        t.self += own
        for k, v in s.counts.items():
            t.counts[k] = t.counts.get(k, 0) + v
    return out
