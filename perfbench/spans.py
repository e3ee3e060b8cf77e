"""Spans recorded from the benchmark's own files around calls into a layer.

A span carries its name, start, end, the span that was open on the same
thread when it started (its parent) and a trace id shared by every span of
one operation (one advection step, one bulk block, one service request).
Spans stay in memory; :meth:`Tracer.dump` writes them out when the run
ends.  A span's *self time* is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: int
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, trace: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        if trace is None:
            trace = parent.trace if parent is not None else sid
        span = Span(sid, parent.id if parent else None, trace, name, time.perf_counter(), 0.0)
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()
            self.spans.append(span)  # list.append is atomic under the GIL

    def record(self, name: str, start: float, end: float, trace: int) -> None:
        """A span timed elsewhere, e.g. a request from send to reply."""
        self.spans.append(Span(next(self._ids), None, trace, name, start, end))

    def new_trace(self) -> int:
        return next(self._ids)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanned call until :meth:`unwrap_all`."""
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        had_own = attr in vars(owner)
        self._patched.append((owner, attr, original, had_own))
        setattr(owner, attr, spanned)

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)  # drop the instance override

    # -- reading ----------------------------------------------------------

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def per_trace(self, name: str, traces) -> list:
        """Total seconds of spans *name* within each trace of *traces*."""
        totals = {t: 0.0 for t in traces}
        for s in self.spans:
            if s.name == name and s.trace in totals:
                totals[s.trace] += s.seconds
        return list(totals.values())

    def self_seconds(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        kids: dict = {}
        for c in self.spans:
            if c.parent is not None:
                kids.setdefault(c.parent, []).append(c)
        out = {}
        for span in self.spans:
            covered, cursor = 0.0, span.start
            for c in sorted(kids.get(span.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span.id] = span.seconds - covered
        return out

    def summary(self) -> list:
        """``(name, count, total s, self s)`` per span name."""
        own = self.self_seconds()
        rows = {}
        for s in self.spans:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.seconds
            row[2] += own[s.id]
        return [(name, *row) for name, row in sorted(rows.items())]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
