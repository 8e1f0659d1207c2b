"""In-memory span recording around functions of the mecoff modules.

A `Target` names a module attribute as the caller looks it up (for example
`mecoff.methods.optimize_user`, the binding `run_method` calls) and the span
name its calls are recorded under. `Tracer.install` replaces each target with
a wrapper that records one `Span` per call: name, start, end, the index of the
enclosing span and the id of the solve it belongs to. `Tracer.uninstall`
puts every original back. A target whose attribute no longer exists is listed
in `Tracer.absent` and skipped, unless it is marked required.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

Hook = Callable[["Tracer", tuple, dict, Any], None]


class MissingProbe(RuntimeError):
    """A required target does not exist in the program under test."""


@dataclass(frozen=True)
class Target:
    path: str  # "package.module.attribute"
    span: str
    enter: Callable[["Tracer", tuple, dict], None] | None = None
    leave: Hook | None = None
    required: bool = False


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve")

    def __init__(self, name: str, start: float, end: float, parent: int, solve):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, -1 for a root
        self.solve = solve


class Tracer:
    """Records spans for the calls of its targets while installed.

    `solve` holds the id given to new spans and `cell` the current sweep cell;
    both are set by target hooks. `counts` and `records` are free for hooks
    to fill with counters and per-call facts.
    """

    def __init__(self, targets: list[Target]):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.counts: dict[str, float] = {}
        self.records: list = []
        self.cell = None
        self.solve = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self) -> "Tracer":
        for target in self.targets:
            module_name, attr = target.path.rsplit(".", 1)
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                if target.required:
                    self.uninstall()
                    raise MissingProbe(f"{target.path} does not exist; the benchmark cannot time solves")
                self.absent.append(target.path)
                continue
            setattr(module, attr, self._wrap(original, target))
            self._saved.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, target: Target):
        spans = self.spans
        stack = self._stack
        name, enter, leave = target.span, target.enter, target.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(self, args, kwargs)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.solve)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if leave is not None:
                leave(self, args, kwargs, result)
            return result

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous, so children never overlap each other and lie
    inside their parent; their summed durations are the covered part.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def totals_by_name(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, total seconds, self seconds)."""
    out: dict[str, tuple[int, float, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total, self_s = out.get(span.name, (0, 0.0, 0.0))
        out[span.name] = (calls + 1, total + (span.end - span.start), self_s + own)
    return out
