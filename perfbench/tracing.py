"""In-memory spans and counters for the traced benchmark run.

A span is (name, start, end, parent, query, size, work): `parent` is the
index of the enclosing span, `query` the id of the query it belongs to,
`size` an input size used for scaling fits (word length, peak width) and
`work` a count done inside it (rewrites, width, generators).  The layer
of a span is the part of its name before the first dot.

`NullTracer` has the same interface and records nothing, so one query
implementation serves the traced pass and the untraced pass whose
difference is the tracing overhead.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

LAYERS = ("words", "rewriting", "operators", "primes", "invariants", "oracle", "cli")


class NullTracer:
    counting = False

    def span(self, name, size=None, work=None):
        return nullcontext()

    def note_work(self, work):
        pass

    def count(self, name, n=1):
        pass

    def peak(self, name, value):
        pass

    def timed_phi(self, spec):
        return spec


class Recorder:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._work: dict[int, int] = {}
        self.query = None
        self.counting = True
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name, size=None, work=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            work = self._work.pop(index, work)
            self.spans[index] = (name, start, end, parent, self.query, size, work)

    def note_work(self, work):
        """Set the work count of the innermost open span."""
        self._work[self._stack[-1]] = work

    def count(self, name, n=1):
        if self.counting:
            self.counts[name] += n

    def peak(self, name, value):
        if self.counting and value > self.counts[name]:
            self.counts[name] = value

    def timed_phi(self, spec):
        """The same monoid with its closure function timed and counted."""
        phi = spec.phi

        def traced_phi(n):
            with self.span("primes.phi"):
                value = phi(n)
            self.count("primes.phi_calls")
            self.peak("primes.max_index", n)
            return value

        return spec.with_phi(traced_phi)

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: span time not covered by a child."""
        covered = defaultdict(float)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, *_) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                out[layer] += end - start - covered[index]
        return out

    def durations(self, name, queries_only=False):
        """(duration, size, work) of every span with this name."""
        return [
            (end - start, size, work)
            for n, start, end, _, query, size, work in self.spans
            if n == name and not (queries_only and (query is None or query < 0))
        ]

    def mean(self, name) -> float:
        spans = self.durations(name)
        return sum(d for d, _, _ in spans) / len(spans) if spans else 0.0

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "query", "size", "work")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 when the points
    span fewer than two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
