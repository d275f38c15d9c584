"""Spans recorded around calls into agentsynth, from outside the package.

A traced pass replaces selected functions, at the name their caller binds
(``pipeline.write_pool_csv``, ``vae.loss_and_grads``, ...), with wrappers
that record one span per call: name, start, end, parent, a work count and
whether the call raised. Nothing under ``src/`` is edited; the originals
are put back when the pass ends, even when it fails.

A span's self time is its duration minus the durations of its direct
children. A layer's busy time is the sum of the self times of its spans,
so busy times of all layers add up to the traced time the spans cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    items: int = 1
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def start(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def finish(self, index: int, items: int = 1, failed: bool = False) -> None:
        span = self.spans[index]
        span.end = self.clock()
        span.items = items
        span.failed = failed
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.start(name)
        try:
            yield
        except BaseException:
            self.finish(index, failed=True)
            raise
        self.finish(index)


def wrap(tracer: Tracer, name: str, fn, items=None):
    """``fn`` recording a span per call; ``items(args, result)`` gives the
    call's work count (default 1)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.start(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.finish(index, failed=True)
            raise
        tracer.finish(index, items(args, result) if items else 1)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer, bindings):
    """Replace each ``(module, attribute, span_name, items)`` binding with a
    traced wrapper for the duration of the block."""
    targets = [(module, attr) for module, attr, _, _ in bindings]
    if len(set(targets)) != len(targets):
        raise ValueError("a binding is listed twice")
    saved = []
    try:
        for module, attr, name, items in bindings:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(tracer, name, original, items))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [span.duration - covered for span, covered in zip(spans, child_time)]


@dataclass
class NameTotals:
    calls: int = 0
    items: int = 0
    failed: int = 0
    self_s: float = 0.0
    total_s: float = 0.0  # durations of spans not nested in a span of the same name


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    own = self_times(spans)
    out: dict[str, NameTotals] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(span.name, NameTotals())
        entry.calls += 1
        entry.failed += span.failed
        entry.self_s += own[index]
        if not _nested_in_same_name(spans, index):
            entry.items += span.items
            entry.total_s += span.duration
    return out


def _nested_in_same_name(spans: list[Span], index: int) -> bool:
    name = spans[index].name
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def totals_by_layer(spans: list[Span]) -> dict[str, NameTotals]:
    out: dict[str, NameTotals] = {}
    for name, entry in totals_by_name(spans).items():
        layer = out.setdefault(layer_of(name), NameTotals())
        layer.calls += entry.calls
        layer.failed += entry.failed
        layer.self_s += entry.self_s
    return out
