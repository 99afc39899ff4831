"""Span recording around the benchmark's calls into each sfqsim layer.

A traced pass wraps every library function the workload calls, so each call
records (name, label, start, end, parent, op). Spans stay in memory; the
per-layer numbers are computed after the pass. Untraced passes use the raw
functions, so tracing costs nothing when it is off.
"""

from __future__ import annotations

import time
from collections import defaultdict


class NullTracer:
    """Tracing off: hands back the functions unchanged."""

    def wrap(self, name, fn):
        return fn

    def label(self, text: str) -> None:
        pass

    def begin_op(self) -> None:
        pass


class Tracer:
    """Tracing on: wraps functions so that each call records a span."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._label = ""
        self._op = -1

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            label, op = self._label, self._op
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, label, start, end, parent, op)

        return traced

    def label(self, text: str) -> None:
        """Tag the spans that follow, e.g. with the testbench being run."""
        self._label = text

    def begin_op(self) -> None:
        """Spans recorded from here on share the next op identifier."""
        self._op += 1

    def reset(self) -> None:
        self.spans.clear()
        self._label = ""
        self._op = -1


def self_times(spans) -> tuple[dict[str, float], dict[tuple[str, str], float], float]:
    """Self time per span name, inclusive time per (name, label), and root time.

    A span's self time is its duration minus the durations of its direct
    children. The root time is the summed duration of spans with no parent,
    which equals the summed self time of every span.
    """
    child_time = [0.0] * len(spans)
    for name, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    inclusive: dict[tuple[str, str], float] = defaultdict(float)
    root = 0.0
    for i, (name, label, start, end, parent, _) in enumerate(spans):
        own[name] += end - start - child_time[i]
        inclusive[(name, label)] += end - start
        if parent < 0:
            root += end - start
    return dict(own), dict(inclusive), root
