"""Benchmark-side spans around calls into each layer of the program.

Nothing here reaches inside ``src/``: spans are taken around public
calls (``parse``, ``analyze_unit``, ``solve``, ...), plus the phase spans
the program's own :class:`repro.trace.histogram.HistogramSink` reports
through ``SolverOptions(sink=...)``.  Lexing is timed by wrapping the
``tokenize`` name the parser module calls, for the traced run only.

Spans are flat ``(name, begin, end)`` tuples on the ``perf_counter``
timebase; nesting is recovered from interval containment, and a span's
self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

Span = Tuple[str, float, float]

#: span name (before any ``:config`` suffix) -> layer it is charged to
LAYERS = {
    "pass": "unattributed",
    "workloads.generate_program": "workloads",
    "cfront.tokenize": "cfront.lex",
    "cfront.parse": "cfront.parse",
    "andersen.analyze_unit": "andersen.constraints",
    "andersen.pointsto": "andersen.pointsto",
    "constraints.validate": "constraints.validate",
    "solver.solve": "solver.unreported",
    "solver.closure": "solver.closure",
    "solver.finalize": "solver.finalize",
    "solver.least-solution": "solver.least_solution",
    "solver.phase1.closure": "solver.oracle_phase1",
    "solver.phase1.finalize": "solver.oracle_phase1",
    "solver.phase1.least-solution": "solver.oracle_phase1",
    "solver.add": "solver.add",
    "solver.query": "solver.query",
    "metrics.expose": "metrics.expose",
    "metrics.snapshot": "metrics.expose",
}


class Tracer:
    """Collects spans when ``enabled``; otherwise every call is a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.tokens = 0
        self._patched = None

    def record(self, name: str, begin: float, end: float) -> None:
        if self.enabled:
            self.spans.append((name, begin, end))

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, recorded as a span when enabled."""
        if not self.enabled:
            return fn(*args, **kwargs)
        began = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((name, began, time.perf_counter()))
        return result

    def phase_spans(self, label: str, sink) -> None:
        """Charge a ``HistogramSink``'s phase spans to ``label``.

        An Oracle solve reports two closure/finalize/least-solution
        triples; the first is phase 1.
        """
        oracle = label.endswith("Oracle")
        for index, (name, began, ended) in enumerate(sink.spans):
            prefix = "phase1." if oracle and index < 3 else ""
            self.spans.append((f"solver.{prefix}{name}:{label}",
                               began, ended))

    # -- lexing: wrap the tokenize the parser calls ----------------------
    def __enter__(self) -> "Tracer":
        if self.enabled:
            from repro.cfront import parser

            original = parser.tokenize

            def tokenize(source, filename="<input>"):
                began = time.perf_counter()
                tokens = original(source, filename)
                self.spans.append(("cfront.tokenize", began,
                                   time.perf_counter()))
                self.tokens += len(tokens)
                return tokens

            parser.tokenize = tokenize
            self._patched = (parser, original)
        return self

    def __exit__(self, *exc) -> None:
        if self._patched is not None:
            module, original = self._patched
            module.tokenize = original
            self._patched = None


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span name -> summed self time (duration minus direct children)."""
    ordered = sorted(spans, key=lambda span: (span[1], -span[2]))
    totals: Dict[str, float] = defaultdict(float)
    stack: List[Span] = []
    for span in ordered:
        name, began, ended = span
        while stack and stack[-1][2] <= began:
            stack.pop()
        totals[name] += ended - began
        if stack:
            totals[stack[-1][0]] -= ended - began
        stack.append(span)
    return dict(totals)


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Layer -> self time; unknown span names are charged by prefix."""
    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        base = name.split(":", 1)[0]
        layers[LAYERS.get(base, base)] += seconds
    return dict(layers)


def durations(spans: List[Span], name: str) -> float:
    """Summed duration of every span called exactly ``name``."""
    return sum(end - begin for span_name, begin, end in spans
               if span_name == name)


def oracle_phase1_seconds(spans: List[Span], label: str) -> float:
    """Phase 1 of each ``label`` Oracle solve: the summed durations of
    its closure, finalize and least-solution spans."""
    return sum(end - begin for name, begin, end in spans
               if name in (f"solver.phase1.closure:{label}",
                           f"solver.phase1.finalize:{label}",
                           f"solver.phase1.least-solution:{label}"))


def write_chrome_trace(spans: List[Span], path: str,
                       meta: Optional[dict] = None) -> None:
    from repro.trace.chrome import (
        chrome_document,
        spans_to_chrome,
        write_chrome,
    )

    events = spans_to_chrome(spans, process_name="perfbench",
                             thread_name="workload")
    write_chrome(chrome_document(events, other_data=meta), path)
