"""Spans around the benchmark's calls into phdesc, with LAPACK call counts.

A span records its name, the request (one system's chain) it belongs to,
its start and end, the span that was open when it started, and the LAPACK
calls issued while it was open.  LAPACK calls are counted by wrapping the
numpy.linalg and scipy.linalg entry points that phdesc reaches for; the
program's files are not touched.  Spans stay in memory and are reduced to
per-layer metrics when the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

# Entry point -> LAPACK family it is counted under.  cond and pinv are SVDs
# inside numpy, reached through module-internal names, so they are wrapped
# by their own names.
_COUNTED = {
    np.linalg: {"svd": "svd", "cond": "svd", "pinv": "svd",
                "eig": "eig", "eigvals": "eig", "eigh": "eig", "eigvalsh": "eig"},
    sla: {"svd": "svd", "eig": "eig", "eigvals": "eig", "eigh": "eig", "eigvalsh": "eig",
          "lu_solve": "lu_solve"},
}


@dataclass
class Span:
    name: str
    request: object
    start: float
    parent: "Span | None"
    end: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))
    values: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Untraced calls: no span, no counting."""

    enabled = False

    def call(self, name, request, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    """Records spans and counts LAPACK calls while installed."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self.last: Span | None = None

    def install(self):
        for module, names in _COUNTED.items():
            for attr, family in names.items():
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._counting(original, family))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _counting(self, fn, family):
        open_spans = self._open

        def counted(*args, **kwargs):
            for span in open_spans:
                span.counts[family] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, name, request, fn, *args, **kwargs):
        span = Span(name, request, 0.0, self._open[-1] if self._open else None)
        self._open.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            self.spans.append(span)
            self.last = span

    def note_last(self, values: dict):
        """Attach measured values to the span that ended last."""
        self.last.values.update(values)

    def wrap(self, module, attr, name, after=None):
        """Route calls to ``module.attr`` through a span of the request of
        the innermost open span; ``after(args)`` may return values to attach
        to it.  Undone by :meth:`uninstall`."""
        original = getattr(module, attr)
        self._saved.append((module, attr, original))

        def traced(*args, **kwargs):
            request = self._open[-1].request if self._open else None
            result = self.call(name, request, original, *args, **kwargs)
            if after is not None:
                self.note_last(after(args))
            return result

        setattr(module, attr, traced)

    # -- reduction ---------------------------------------------------------

    def per_request(self, name: str, value) -> list[float]:
        """For each request with a span named ``name``, ``value(span)``
        summed over those spans, outermost spans only."""
        totals: dict = defaultdict(float)
        for span in self.spans:
            if span.name == name and not _inside(span, name):
                totals[span.request] += value(span)
        return list(totals.values())

    def has(self, *names) -> bool:
        return any(span.name in names for span in self.spans)

    def mean_ms(self, name: str) -> float:
        vals = self.per_request(name, lambda s: s.seconds)
        return 1e3 * statistics.fmean(vals) if vals else 0.0

    def mean_count(self, names, family: str) -> float:
        """Mean over requests of the ``family`` LAPACK calls inside the
        outermost spans of ``names`` (a layer's entry points)."""
        totals: dict = defaultdict(float)
        for span in self.spans:
            if span.name in names and not _inside(span, *names):
                totals[span.request] += span.counts.get(family, 0)
        return statistics.fmean(totals.values()) if totals else 0.0

    def mean_value(self, name: str, key: str) -> float:
        vals = self.per_request(name, lambda s: s.values.get(key, 0.0))
        return statistics.fmean(vals) if vals else 0.0


def _inside(span: Span, *names) -> bool:
    p = span.parent
    while p is not None:
        if p.name in names:
            return True
        p = p.parent
    return False
