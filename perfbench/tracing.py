"""In-memory spans recorded around calls into the program's layers.

A span is ``(name, start, end, parent, request)``: ``parent`` indexes
the span that caused it (None at the top), ``request`` is the batch or
session id every span of one request shares.  Spans stay in memory and
are written once, when the run ends.  Only the benchmark's own files
record spans; the program is wrapped from outside, never edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: Sequence[tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals (children running concurrently on an event
    loop or in several threads) are counted once.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered_length(children.get(i, ()),
                                           span.start, span.end)
            for i, span in enumerate(spans)]


class Tracer:
    """Records spans in this process; a forked pool worker that inherits
    a wrapped function calls straight through without recording."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 ) -> None:
        #: What span starts and ends are read from; a workload that
        #: times itself by another clock sets it to that one.
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._restore: list[Callable[[], None]] = []

    @contextlib.contextmanager
    def span(self, name: str, request: str | None = None,
             parent: int | None = None, **attrs: Any) -> Iterator[Span]:
        """Time a ``with`` block.  The parent defaults to the innermost
        open span and the request to the parent's; blocks must not
        ``await`` inside (use :meth:`add` for spans that cross
        suspension points)."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        if request is None and parent is not None:
            request = self.spans[parent].request
        index = len(self.spans)
        span = Span(name, self.clock(), parent=parent,
                    request=request, attrs=dict(attrs))
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, request: str | None = None,
            **attrs: Any) -> int:
        """Record a span measured elsewhere; returns its index."""
        self.spans.append(Span(name, start, end, parent, request,
                               dict(attrs)))
        return len(self.spans) - 1

    def wrap(self, owner: Any, attr: str, name: str,
             request_of: Callable[..., str | None] | None = None,
             parent_of: Callable[[str | None], int | None] | None = None,
             ) -> None:
        """Replace ``owner.attr`` by a version recording a span per call.

        ``request_of(*args)`` names the request a call belongs to and
        ``parent_of(request)`` the span it hangs under, for calls made
        outside any open span (an event-loop worker).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            request = request_of(*args) if request_of else None
            parent = (parent_of(request)
                      if parent_of and not tracer._stack else None)
            with tracer.span(name, request=request, parent=parent):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._restore.append(lambda: setattr(owner, attr, original))

    def unwrap_all(self) -> None:
        """Put every wrapped function back."""
        while self._restore:
            self._restore.pop()()

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def busy(self, prefix: str) -> float:
        """Wall time inside outermost spans whose name starts with
        ``prefix`` (a layer's nested calls are counted once)."""
        total = 0.0
        for span in self.spans:
            if not span.name.startswith(prefix):
                continue
            parent = span.parent
            if parent is not None and self.spans[parent].name.startswith(
                    prefix):
                continue
            total += span.duration
        return total

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.name,
                                 {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self_s
        return dict(sorted(out.items()))

    def write(self, path: Path) -> None:
        """Write every span (with its self time) as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0].start if self.spans else 0.0
        with path.open("w") as handle:
            for i, (span, self_s) in enumerate(
                    zip(self.spans, self_times(self.spans))):
                row = {"id": i, "name": span.name,
                       "start_s": span.start - origin,
                       "end_s": span.end - origin,
                       "self_s": self_s, "parent": span.parent,
                       "request": span.request}
                if span.attrs:
                    row["attrs"] = span.attrs
                handle.write(json.dumps(row) + "\n")
