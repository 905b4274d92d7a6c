"""The bridge from solver events to metric instruments.

:class:`MetricsSink` is a :class:`repro.trace.sinks.TraceSink`, which
is the whole trick: the solver core has exactly one set of
instrumentation points (the trace call sites in ``solver/engine`` and
``graph/{base,standard,inductive,cycles}``), and metrics ride those
points instead of adding a second, driftable set.  Attach one with
``SolverOptions(sink=MetricsSink.for_options(options, ...))`` — or tee
it with other sinks via :func:`repro.trace.sinks.combine`.

Overhead:

* **No sink attached** — the solver pays one attribute check per
  operation, exactly as before; metrics code is never reached.
* **Sink attached** — the sink overrides no per-unit event, so the
  solver sends it none (see :func:`repro.trace.sinks.hook`).  Every
  counter ``SolverStats`` already keeps (edges by outcome, resolutions,
  clashes, searches, collapses, variables eliminated) is folded once
  per solve segment from ``segment_end``; only the distributions
  (``search_end``), rare events (sweeps, audit failures, budget stops)
  and phases arrive per event.
* **Registry disabled** — every event method returns after one
  attribute read (``registry.enabled``); instruments are registered but
  receive nothing, and deterministic solver counters are byte-identical
  to an untraced run (tested against ``benchmarks/BASELINE.json``).

Every instrument carries the base labels ``form`` (``SF``/``IF``),
``mode`` (the cycle policy: ``plain``/``online``/``oracle``/
``periodic``), ``suite`` and ``benchmark`` — the dimensions the
paper's Tables 2–4 break results down by.  See ``docs/METRICS.md`` for
the full catalog.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..experiments.figures import PAPER_MEAN_VISITS
from ..trace.sinks import TraceSink, edge_outcomes
from .registry import MetricsRegistry, default_registry

if TYPE_CHECKING:  # pragma: no cover - avoid solver <-> metrics cycle
    from ..solver.options import SolverOptions

#: Base label names every solver instrument carries, in order.
BASE_LABELS = ("form", "mode", "suite", "benchmark")


class MetricsSink(TraceSink):
    """Fold solver events into a registry's instruments."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 form: str = "", mode: str = "", suite: str = "",
                 benchmark: str = "") -> None:
        if registry is None:
            registry = default_registry()
        self.registry = registry
        base = (form, mode, suite, benchmark)
        reg = registry

        def counter(name: str, help_: str, extra: Tuple[str, ...] = ()):
            return reg.counter(name, help_, BASE_LABELS + extra)

        def histogram(name: str, help_: str):
            return reg.histogram(name, help_, BASE_LABELS)

        self._edges = counter(
            "repro_solver_edges_total",
            "Attempted atomic edge additions by outcome; summed over "
            "outcomes this is the paper's Work metric (Tables 2 and 3).",
            ("outcome",),
        )
        #: search hits since the last segment end (the "cycle" outcome)
        self._segment_hits = 0
        self._resolutions = counter(
            "repro_solver_resolutions_total",
            "Applications of the resolution rules R.",
        ).labels(*base)
        self._clashes = counter(
            "repro_solver_clashes_total",
            "Inconsistent constraints recorded.",
        ).labels(*base)
        self._searches = counter(
            "repro_solver_searches_total",
            "Partial online cycle searches started.",
        ).labels(*base)
        self._search_hits = counter(
            "repro_solver_search_hits_total",
            "Partial searches that found a cycle: the numerator of the "
            "per-search hit rate, not of the per-variable detection "
            "fraction.",
        ).labels(*base)
        self._search_visits = histogram(
            "repro_solver_search_visits",
            "Nodes visited per partial cycle search; Theorem 5.2 bounds "
            f"the mean at about {PAPER_MEAN_VISITS}.",
        ).labels(*base)
        self._cycle_length = histogram(
            "repro_solver_cycle_length",
            "Length of each collapsed cycle.",
        ).labels(*base)
        self._collapses = counter(
            "repro_solver_collapses_total",
            "Detected cycles collapsed onto a witness.",
        ).labels(*base)
        self._vars_eliminated = counter(
            "repro_solver_vars_eliminated_total",
            "Variables forwarded into a witness by collapsing (the Elim "
            "column of Table 3).",
        ).labels(*base)
        self._sweeps = counter(
            "repro_solver_sweeps_total",
            "Offline SCC sweeps (periodic policy only).",
        ).labels(*base)
        self._swept_vars = counter(
            "repro_solver_swept_vars_total",
            "Variables eliminated by offline sweeps.",
        ).labels(*base)
        self._audit_failures = counter(
            "repro_solver_audit_failures_total",
            "Graph-invariant audit failures, by failed check.",
            ("check",),
        )
        self._budget_stops = counter(
            "repro_solver_budget_stops_total",
            "Guarded drains stopped early, by reason "
            "(work/deadline/edges/cancelled).",
            ("reason",),
        )
        self._phase_seconds = counter(
            "repro_solver_phase_seconds_total",
            "Wall-clock seconds spent per solver phase.",
            ("phase",),
        )
        self._base = base
        self._open_phases: List[Tuple[str, float]] = []

    @classmethod
    def for_options(cls, options: "SolverOptions",
                    registry: Optional[MetricsRegistry] = None,
                    suite: str = "",
                    benchmark: str = "") -> "MetricsSink":
        """A sink labeled from one run's solver configuration."""
        return cls(
            registry,
            form=options.form.value,
            mode=options.cycles.value,
            suite=suite,
            benchmark=benchmark,
        )

    # -- events ---------------------------------------------------------
    def segment_end(self, stats, graph):
        if not self.registry.enabled:
            return
        for outcome, count in edge_outcomes(
                stats, self._segment_hits).items():
            self._edges.labels(*self._base, outcome).inc(count)
        self._segment_hits = 0
        self._resolutions.value += stats.resolutions
        self._clashes.value += stats.clashes
        self._searches.value += stats.cycle_searches
        self._collapses.value += stats.cycles_found
        self._vars_eliminated.value += stats.vars_eliminated

    def search_end(self, found, visits, length):
        if not self.registry.enabled:
            return
        self._search_visits.observe(visits)
        if found:
            self._search_hits.value += 1.0
            self._segment_hits += 1
            self._cycle_length.observe(length)

    def sweep(self, eliminated):
        if not self.registry.enabled:
            return
        self._sweeps.value += 1.0
        self._swept_vars.value += float(eliminated)

    def audit_failure(self, failure):
        if not self.registry.enabled:
            return
        check = str(getattr(failure, "check", "unknown"))
        self._audit_failures.labels(*self._base, check).inc()

    def budget_stop(self, reason, limit, value):
        if not self.registry.enabled:
            return
        self._budget_stops.labels(*self._base, reason).inc()

    def phase_begin(self, name):
        if not self.registry.enabled:
            return
        self._open_phases.append((name, perf_counter()))

    def phase_end(self, name):
        if not self.registry.enabled:
            return
        now = perf_counter()
        for index in range(len(self._open_phases) - 1, -1, -1):
            open_name, began = self._open_phases[index]
            if open_name == name:
                del self._open_phases[index]
                self._phase_seconds.labels(*self._base, name).inc(
                    now - began
                )
                return
        # Unmatched end (e.g. the registry was enabled mid-phase):
        # observe nothing — metrics must never take the solver down.
