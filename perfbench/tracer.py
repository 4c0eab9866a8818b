"""Outside-in call tracer for the benchmark's traced pass.

The tracer replaces chosen functions at the module bindings their callers
look them up through, records one span per call (name, start, end, parent,
solve id) and reads per-call counts from the arguments and the result. It
touches no program file: uninstalling puts every original function object
back, and `assert_restored` proves it before any timed pass runs.

Counting happens after a call returns, so it never lands inside the span's
own duration. Each span also remembers where its counting ended
(`cover_end`); a parent's self time subtracts its children up to that
point, so the tracer's own work is charged to no layer. It shows only in
the traced-over-untraced overhead ratio.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

# Counter(args, kwargs, result, before) -> {count name: number}
Counter = Callable[[tuple, dict, Any, Any], dict]
# Before(args, kwargs) -> anything the counter needs from before the call
Before = Callable[[tuple, dict], Any]


@dataclass
class Span:
    name: str
    parent: int | None
    solve: int | None  # index of the enclosing solve's span, if any
    start: float
    end: float = 0.0
    cover_end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap: `attr` on `module`, recorded as `name`."""

    module: Any
    attr: str
    name: str
    counter: Counter | None = None
    before: Before | None = None
    starts_solve: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            original = getattr(target.module, target.attr, None)
            if original is None:
                # a later program version may drop or rename a layer; its
                # metrics then read 0 and the rest of the pass still runs
                self.missing.append(f"{target.module.__name__}.{target.attr}")
                continue
            self._originals.append((target.module, target.attr, original))
            setattr(target.module, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def assert_restored(self) -> None:
        for module, attr, original in self._originals:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is still wrapped")

    def _open(self, name: str, starts_solve: bool) -> Span:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        if starts_solve:
            solve = index
        else:
            solve = self.spans[parent].solve if parent is not None else None
        span = Span(name, parent, solve, 0.0)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        return span

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = target.before(args, kwargs) if target.before else None
            span = self._open(target.name, target.starts_solve)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.cover_end = time.perf_counter()
                self._stack.pop()
            if target.counter is not None:
                span.counts = target.counter(args, kwargs, result, before)
            span.cover_end = time.perf_counter()
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code that is not a program function."""
        span = self._open(name, False)
        try:
            yield span
        finally:
            span.end = span.cover_end = time.perf_counter()
            self._stack.pop()

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                kids[span.parent].append(index)
        return kids

    def self_seconds(self, kids: list[list[int]], index: int) -> float:
        """Duration minus the part of it that child spans cover (children
        run one after another on one thread, so their covers never overlap)."""
        span = self.spans[index]
        covered = sum(
            min(self.spans[c].cover_end, span.end) - self.spans[c].start for c in kids[index]
        )
        return span.seconds - covered

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "solve": s.solve,
                "start": s.start,
                "end": s.end,
                "counts": s.counts,
            }
            for s in self.spans
        ]
