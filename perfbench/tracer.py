"""Spans around a program's functions, recorded from outside the program.

A :class:`Tracer` replaces functions by wrappers that record a span (name,
start, end, parent span, round id) and counts taken from the call's
arguments and return value.  Spans stay in memory until :meth:`Tracer.dump`.
The tracer keeps one span stack, so it expects the traced program to run
on one thread.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for none
    round: int = -1
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.round = -1
        self._clock = clock
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, fn, name, count=None):
        """Wrapper of ``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments;
        ``count(result, args, kwargs)`` returns a dict of counts.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = Span(label, 0.0, parent=stack[-1] if stack else -1,
                        round=self.round)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counts = count(result, args, kwargs)
            return result

        return traced

    def install(self, owner, attr, name, count=None):
        """Wrap ``owner.attr`` wherever it is held.

        For a class, the class attribute is replaced.  For a module, every
        module of the owner's top-level package that holds the same function
        object gets the wrapper, so names imported with ``from module import
        fn`` are traced too.
        """
        original = vars(owner)[attr]
        wrapped = self.wrap(original, name, count)
        if isinstance(owner, type):
            holders = [owner]
        else:
            package = owner.__name__.split(".")[0]
            holders = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == package or n.startswith(package + "."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    self._undo.append((holder, key, original))

    def uninstall(self):
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans):
    """Duration of each span minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo = hi = None
        for k in sorted(kids, key=lambda c: c.start):
            a, b = max(k.start, s.start), min(k.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def per_round(spans):
    """``{round: {metric: value}}``: ``<span name>_s`` self times and counts, summed."""
    rounds: dict = {}
    for s, own in zip(spans, self_times(spans)):
        table = rounds.setdefault(s.round, {})
        key = s.name + "_s"
        table[key] = table.get(key, 0.0) + own
        for name, value in s.counts.items():
            table[name] = table.get(name, 0) + value
    return rounds


def medians(tables, names):
    """Median over the given per-round tables of each metric (0 where absent)."""
    return {n: statistics.median(t.get(n, 0) for t in tables) for n in names}
