"""In-memory spans and counts for the traced run.

A span is ``[name, start, end, parent, case]``: its start and end on the
``perf_counter`` clock, the index of the span that was open when it started
(-1 for none) and the case it belongs to.  Spans are appended to a list while
the run goes and written out once, when it ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.case = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span named ``name`` around each call.  ``count``, if
        given, maps the call's arguments to ``(count name, amount)``; it runs
        before the span starts, so its cost is not in any span."""
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                key, n = count(*args, **kwargs)
                self.counts[self.case][key] += n
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.case]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def add(self, key: str, n: int):
        self.counts[self.case][key] += n

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        durations of the spans directly under it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def count_totals(self, cases: range) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for case in cases:
            for key, n in self.counts.get(case, {}).items():
                totals[key] += n
        return totals

    def write(self, path: str, origin: float):
        """One JSON list per line: name, start and end in microseconds from
        ``origin``, parent index, case."""
        with open(path, "w") as f:
            for name, start, end, parent, case in self.spans:
                f.write(
                    json.dumps([name, round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent, case])
                    + "\n"
                )
