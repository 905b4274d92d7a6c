"""Distribution telemetry: the one histogram type and the sink that feeds it.

:class:`Histogram` is a bounded-memory streaming histogram in the
HdrHistogram spirit: small values (< 16) are counted exactly, larger
values fall into power-of-two buckets, and count/sum/min/max are kept
exactly.  That is enough to report the quantities the paper's
evaluation reasons about — the *mean* partial-search visit count
(Theorem 5.2), cycle-length distributions, per-variable fan-out —
while adding O(1) work and O(log max) memory per stream.  It is also
the metrics-side instrument (:mod:`repro.metrics.instruments`), so
trace and metrics histograms are one class and cannot disagree on
where a sample lands.

:class:`HistogramSink` is the trace sink that feeds these histograms
from the solver's distribution events, folds its counts from each
segment's ``SolverStats`` and also accumulates per-phase wall-time
spans, so one cheap sink yields both the distribution telemetry and a
profile.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from .sinks import TraceSink, edge_outcomes

__all__ = ["Histogram", "HistogramSink"]

#: Values below this are counted in exact (width-1) buckets.
_EXACT_LIMIT = 16


def _bucket_floor(value: int) -> int:
    """The smallest value of the bucket holding ``value``: the value
    itself below 16, the largest power of two not above it from 16 on."""
    if value < _EXACT_LIMIT:
        return value
    return 1 << (value.bit_length() - 1)


class Histogram:
    """Streaming histogram: exact below 16, power-of-two buckets above.

    A bucket is keyed by its floor (the smallest value it holds); its
    inclusive upper bound doubles as the Prometheus ``le`` bound.
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        #: bucket floor -> number of samples in the bucket (sparse)
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int, count: int = 1) -> None:
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        floor = _bucket_floor(value)
        self.buckets[floor] = self.buckets.get(floor, 0) + count

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram into this one (bucket-wise exact)."""
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (
                self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (
                self.max is None or other.max > self.max):
            self.max = other.max
        for floor, count in other.buckets.items():
            self.buckets[floor] = self.buckets.get(floor, 0) + count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_rows(self) -> List[Tuple[int, int, int]]:
        """Sorted ``(lo, hi_inclusive, count)`` rows for reporting."""
        return [
            (floor, floor if floor < _EXACT_LIMIT else 2 * floor - 1,
             self.buckets[floor])
            for floor in sorted(self.buckets)
        ]

    def cumulative(self) -> List[Tuple[int, int]]:
        """Sorted ``(le, cumulative_count)`` rows: the Prometheus
        ``_bucket`` series without its ``+Inf`` row."""
        running = 0
        rows: List[Tuple[int, int]] = []
        for _, hi, count in self.bucket_rows():
            running += count
            rows.append((hi, running))
        return rows

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


def _out_degree_histogram(graph) -> Histogram:
    """Per-variable var-var out-degree of ``graph``'s stored edges.

    Edges are read through ``find`` and deduplicated, self loops
    dropped; variables without outgoing edges are not counted.  On a
    Plain run nothing collapses, so this is the out-degree of the
    "added" var-var edges.
    """
    find = graph.find
    edges = {(find(left), find(right))
             for left, right in graph.var_var_edges()}
    degrees = Counter(left for left, right in edges if left != right)
    hist = Histogram()
    for degree in degrees.values():
        hist.observe(degree)
    return hist


class HistogramSink(TraceSink):
    """Constant-memory telemetry sink: distributions, counts, phases.

    Maintains, entirely online:

    * ``search_visits`` — nodes visited per partial cycle search (the
      distribution whose mean Theorem 5.2 bounds);
    * ``cycle_lengths`` — length of each collapsed cycle;
    * fan-out — per-variable var-var out-degree of the latest segment's
      graph (:func:`_out_degree_histogram`, computed at each segment end:
      O(edges), so once per add under ``IncrementalSolver``), read by
      :meth:`fanout_histogram`;
    * counts folded once per segment from ``SolverStats`` (edge
      outcomes, resolutions, clashes, searches, collapses), plus search
      hits and sweeps counted per event;
    * per-phase wall-time totals from ``phase.begin``/``phase.end``
      pairs, plus the raw span list for Chrome export.
    """

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.search_visits = Histogram()
        self.cycle_lengths = Histogram()
        self.searches = 0
        self.search_hits = 0
        self.collapses = 0
        self.sweeps = 0
        self.swept_vars = 0
        self.resolutions = 0
        self.clashes = 0
        #: edge outcome -> count (added/redundant/self/cycle)
        self.edge_outcomes: Dict[str, int] = {}
        self._fanout = Histogram()
        #: search hits since the last segment end
        self._segment_hits = 0
        #: phase name -> accumulated seconds
        self.phase_seconds: Dict[str, float] = {}
        #: raw (name, begin_ts, end_ts) spans; perf_counter timebase
        self.spans: List[Tuple[str, float, float]] = []
        self._open_phases: List[Tuple[str, float]] = []

    # -- events ---------------------------------------------------------
    def segment_end(self, stats, graph):
        outcomes = self.edge_outcomes
        for outcome, count in edge_outcomes(
                stats, self._segment_hits).items():
            outcomes[outcome] = outcomes.get(outcome, 0) + count
        self._segment_hits = 0
        self.resolutions += stats.resolutions
        self.clashes += stats.clashes
        self.searches += stats.cycle_searches
        self.collapses += stats.cycles_found
        self._fanout = _out_degree_histogram(graph)

    def search_end(self, found, visits, length):
        self.search_visits.observe(visits)
        if found:
            self.search_hits += 1
            self._segment_hits += 1
            self.cycle_lengths.observe(length)

    def sweep(self, eliminated):
        self.sweeps += 1
        self.swept_vars += eliminated

    def phase_begin(self, name):
        self._open_phases.append((name, time.perf_counter()))

    def phase_end(self, name):
        now = time.perf_counter()
        for index in range(len(self._open_phases) - 1, -1, -1):
            open_name, began = self._open_phases[index]
            if open_name == name:
                del self._open_phases[index]
                self.phase_seconds[name] = (
                    self.phase_seconds.get(name, 0.0) + (now - began)
                )
                self.spans.append((name, began, now))
                return
        # Unmatched end: record a zero-length span rather than raising —
        # telemetry must never take the solver down.
        self.spans.append((name, now, now))

    # -- derived --------------------------------------------------------
    def fanout_histogram(self) -> Histogram:
        """Per-variable var-var out-degree of the latest segment's graph
        (summed bucket-wise over merged runs)."""
        return self._fanout

    @property
    def mean_search_visits(self) -> float:
        return self.search_visits.mean

    @property
    def hit_rate(self) -> float:
        """Fraction of partial searches that found a cycle."""
        return self.search_hits / self.searches if self.searches else 0.0

    def merge(self, other: "HistogramSink") -> None:
        """Fold another run's telemetry into this sink."""
        self.search_visits.merge(other.search_visits)
        self.cycle_lengths.merge(other.cycle_lengths)
        self.searches += other.searches
        self.search_hits += other.search_hits
        self.collapses += other.collapses
        self.sweeps += other.sweeps
        self.swept_vars += other.swept_vars
        self.resolutions += other.resolutions
        self.clashes += other.clashes
        for outcome, count in other.edge_outcomes.items():
            self.edge_outcomes[outcome] = (
                self.edge_outcomes.get(outcome, 0) + count
            )
        # Variable ids are per program: fan-out merges as a degree
        # histogram, never per id.
        self._fanout.merge(other._fanout)
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + seconds
            )
        self.spans.extend(other.spans)

    def summary(self) -> dict:
        """JSON-ready snapshot of everything the sink accumulated."""
        return {
            "label": self.label,
            "searches": self.searches,
            "search_hits": self.search_hits,
            "hit_rate": self.hit_rate,
            "mean_search_visits": self.mean_search_visits,
            "search_visits": self.search_visits.to_dict(),
            "cycle_lengths": self.cycle_lengths.to_dict(),
            "fanout": self._fanout.to_dict(),
            "collapses": self.collapses,
            "sweeps": self.sweeps,
            "swept_vars": self.swept_vars,
            "resolutions": self.resolutions,
            "clashes": self.clashes,
            "edge_outcomes": dict(sorted(self.edge_outcomes.items())),
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
        }
