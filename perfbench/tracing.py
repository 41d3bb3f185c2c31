"""In-memory span tracing of a program's functions, installed from outside it.

A span records one call: its name, start, end, the id of the span that
caused it, and the id of the run.  Spans stay in memory and are written out
by the caller when the run ends.  A span's self time is its duration minus
the part of that interval its child spans cover, so the self times of a
span tree add up to the duration of its root.
"""

import contextlib
import functools
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run")

    def __init__(self, span_id, name, start, parent, run):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
        }


class Tracer:
    """Records nested spans and named counts; wraps module attributes.

    ``wrap`` replaces a function by name in the module namespace where its
    caller looks it up, so calls made inside the program are traced without
    editing the program.  ``unwrap_all`` restores every original.
    """

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self.counts = []  # (root span id, counter name, amount)
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, self.clock(), parent, self.run_id)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def count(self, name, amount=1):
        """Add to a counter, attributed to the outermost open span."""
        root = self._stack[0].id if self._stack else None
        self.counts.append((root, name, amount))

    def wrap(self, module, attr, name, on_return=None):
        """Trace calls to ``module.attr`` as spans called ``name``.

        ``name`` may be a callable of (args, kwargs) giving the span name.
        ``on_return(tracer, args, kwargs, result)`` runs after the span
        closes, to record counts from the call's arguments and result.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with self.span(span_name):
                result = original(*args, **kwargs)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def covered_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children[s.id], s.start, s.end) for s in spans
    }


def descendants(spans, root_id):
    """Spans under ``root_id`` (the root excluded), in recording order."""
    inside = {root_id}
    out = []
    for s in spans:  # parents are always recorded before their children
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out
