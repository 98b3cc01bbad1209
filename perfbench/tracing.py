"""Spans recorded by wrappers around the program's public functions.

The benchmark never adds timers inside the program. Instead a
:class:`Tracer` replaces selected functions and methods with wrappers
that record one span per call: name, start, end, parent span and a
request id. Spans stay in memory until the run ends. Self time is a
span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped calls, per thread, in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        #: Bytes or items counted by ``wrap(..., count=...)``, per name.
        self.counts: Dict[str, float] = defaultdict(float)
        #: Wrap targets that do not exist in this version of the program.
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_request(self) -> int:
        """Start a request in this thread; later spans here carry its id."""
        self._local.request = next(self._requests)
        return self._local.request

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append(
                Span(
                    span_id, name, start, end, parent,
                    getattr(self._local, "request", None),
                )
            )

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        count: Optional[Callable[..., float]] = None,
        starts_request: bool = False,
    ) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``count(*args, **kwargs)`` adds to ``counts[name]`` per call;
        ``starts_request`` gives each call a fresh request id. A target
        missing from the program is noted in :attr:`missing` and skipped,
        so the benchmark outlives refactors of the code it wraps.
        """
        original = (
            owner.__dict__.get(attr)
            if isinstance(owner, type)
            else getattr(owner, attr, None)
        )
        if original is None or not callable(original):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if starts_request:
                tracer.new_request()
            if count is not None:
                tracer.counts[name] += count(*args, **kwargs)
            with tracer.span(name):
                return original(*args, **kwargs)

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_function(self, module_name: str, attr: str, name: str) -> None:
        """Wrap a module-level function at every ``repro`` module that
        imported it by name, so calls through any of them are seen."""
        module = sys.modules.get(module_name)
        original = getattr(module, attr, None) if module else None
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
                self.wrap(mod, attr, name)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the union of the
    intervals its direct children cover (clipped to the span)."""
    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = span.duration - covered
    return result


def within(spans: List[Span], root: str) -> List[Span]:
    """The spans that have an ancestor (or are a span) named ``root``."""
    index = {span.id: span for span in spans}
    memo: Dict[int, bool] = {}

    def under(span_id: Optional[int]) -> bool:
        path = []
        found = False
        while span_id is not None:
            if span_id in memo:
                found = memo[span_id]
                break
            span = index.get(span_id)
            if span is None:
                break
            path.append(span_id)
            if span.name == root:
                found = True
                break
            span_id = span.parent
        for visited in path:
            memo[visited] = found
        return found

    return [span for span in spans if under(span.id)]


def to_payload(tracer: Tracer) -> dict:
    """JSON-safe dump of a tracer, written once when a traced run ends."""
    return {
        "spans": [list(span) for span in tracer.spans],
        "counts": dict(tracer.counts),
        "missing": list(tracer.missing),
    }


def from_payload(payload: dict) -> Tracer:
    tracer = Tracer()
    tracer.spans = [Span(*row) for row in payload["spans"]]
    tracer.counts.update(payload["counts"])
    tracer.missing = list(payload["missing"])
    return tracer
