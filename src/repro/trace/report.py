"""Traced suite runs and the summary report.

:func:`trace_suite` solves a workload suite with a
:class:`~repro.trace.histogram.HistogramSink` attached to every run and
assembles a :class:`TraceReport` that answers the paper's
per-operation questions directly from live telemetry:

* the **empirical mean partial-search visit count** per experiment —
  the quantity Theorem 5.2 bounds for sparse graphs;
* the **per-representation online detection rate** — variables
  eliminated online over variables in non-trivial SCCs of the final
  graph, Figure 11's IF vs SF split;
* visit-depth / cycle-length / fan-out distributions and per-phase
  wall-time totals, with the raw spans exportable as a Chrome/Perfetto
  trace.

Both come from :func:`repro.experiments.figures.paper_checks`, the
one place the paper's reference values live.  The report rides on
:class:`repro.experiments.runner.SuiteResults` (``sink_factory``
hook), so traced runs take the exact measurement path the tables,
figures, and regression baselines use — attaching the sink cannot
change any deterministic counter.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..experiments.figures import (
    CHECK_DETECTION,
    CHECK_VISITS,
    PaperCheck,
    paper_checks,
)
from ..experiments.runner import SuiteResults
from ..graph.stats import SolverStats
from .chrome import chrome_document, spans_to_chrome
from .histogram import HistogramSink

#: Experiments traced by default: the two online configurations, whose
#: search/elimination behaviour is what the subsystem exists to observe.
DEFAULT_EXPERIMENTS = ("SF-Online", "IF-Online")


class TracedRun:
    """One (benchmark, experiment) run: counters plus telemetry."""

    def __init__(self, benchmark: str, experiment: str,
                 stats: SolverStats, telemetry: HistogramSink) -> None:
        self.benchmark = benchmark
        self.experiment = experiment
        self.stats = stats
        self.telemetry = telemetry

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "experiment": self.experiment,
            "counters": self.stats.as_dict(),
            "telemetry": self.telemetry.summary(),
        }


class TraceReport:
    """Aggregated telemetry over one traced suite run."""

    def __init__(self, suite_name: str, seed: int,
                 experiments: Tuple[str, ...]) -> None:
        self.suite = suite_name
        self.seed = seed
        self.experiments = experiments
        self.runs: List[TracedRun] = []
        #: benchmark -> variables in non-trivial final-graph SCCs
        #: (Figure 11's denominator, from an SF-Plain recorded run)
        self.scc_vars: Dict[str, int] = {}

    # -- aggregates -----------------------------------------------------
    def runs_for(self, experiment: str) -> List[TracedRun]:
        return [run for run in self.runs if run.experiment == experiment]

    def paper_checks(self) -> List[PaperCheck]:
        """:func:`~repro.experiments.figures.paper_checks` over the
        traced runs, with the suite's final-SCC denominators."""
        return paper_checks(
            {
                experiment: {
                    run.benchmark: run.stats
                    for run in self.runs_for(experiment)
                }
                for experiment in self.experiments
            },
            self.scc_vars,
        )

    def merged_telemetry(self, experiment: str) -> HistogramSink:
        merged = HistogramSink(label=experiment)
        for run in self.runs_for(experiment):
            merged.merge(run.telemetry)
        return merged

    # -- export ---------------------------------------------------------
    def chrome_trace(self) -> dict:
        """All runs' phase spans on one timeline, one track per run."""
        trace_events: List[dict] = []
        all_spans = [
            span for run in self.runs for span in run.telemetry.spans
        ]
        origin = min((span[1] for span in all_spans), default=0.0)
        for tid, run in enumerate(self.runs, start=1):
            trace_events.extend(spans_to_chrome(
                run.telemetry.spans,
                pid=1,
                tid=tid,
                process_name=f"repro.trace suite={self.suite}",
                thread_name=f"{run.benchmark} {run.experiment}",
                time_origin=origin,
                args={"benchmark": run.benchmark,
                      "experiment": run.experiment},
            ))
        return chrome_document(
            trace_events,
            {"suite": self.suite, "seed": self.seed},
        )

    def to_dict(self) -> dict:
        aggregates: Dict[str, Dict[str, float]] = {
            experiment: {} for experiment in self.experiments
        }
        keys = {CHECK_VISITS: "mean_search_visits",
                CHECK_DETECTION: "detection_rate"}
        for check, experiment, measured, _ in self.paper_checks():
            if check in keys:
                aggregates[experiment][keys[check]] = measured
        return {
            "suite": self.suite,
            "seed": self.seed,
            "experiments": list(self.experiments),
            "scc_vars": dict(sorted(self.scc_vars.items())),
            "aggregates": aggregates,
            "runs": [run.to_dict() for run in self.runs],
        }

    # -- rendering ------------------------------------------------------
    def render(self) -> str:
        lines = [
            f"trace report: suite={self.suite} seed={self.seed} "
            f"experiments={','.join(self.experiments)}",
            "",
            f"{'benchmark':<14} {'experiment':<10} {'searches':>9} "
            f"{'visits/search':>13} {'hit%':>6} {'elim':>6} "
            f"{'detect%':>8}",
        ]
        for run in self.runs:
            stats = run.stats
            denominator = self.scc_vars.get(run.benchmark, 0)
            detect = (
                f"{stats.vars_eliminated / denominator:7.0%}"
                if denominator else "      -"
            )
            lines.append(
                f"{run.benchmark:<14} {run.experiment:<10} "
                f"{stats.cycle_searches:>9} "
                f"{stats.mean_search_visits:>13.2f} "
                f"{stats.detection_rate:>6.0%} "
                f"{stats.vars_eliminated:>6} {detect:>8}"
            )
        lines.append("")
        for experiment in self.experiments:
            telemetry = self.merged_telemetry(experiment)
            lines.append(f"{experiment}:")
            lines.append(
                "  visit depth: "
                + _histogram_line(telemetry.search_visits)
            )
            lines.append(
                "  cycle length: "
                + _histogram_line(telemetry.cycle_lengths)
            )
            lines.append(
                "  var fan-out:  "
                + _histogram_line(telemetry.fanout_histogram())
            )
            phase_totals = ", ".join(
                f"{name}={seconds * 1000:.1f}ms"
                for name, seconds in sorted(
                    telemetry.phase_seconds.items()
                )
            )
            lines.append(f"  phases: {phase_totals or '-'}")
        lines.append("")
        lines.append(
            f"{'paper check':<36} {'experiment':<10} "
            f"{'measured':>8} {'paper':>6}"
        )
        for check, experiment, measured, paper in self.paper_checks():
            if check == CHECK_DETECTION:
                measured_text, paper_text = f"{measured:.0%}", f"{paper:.0%}"
            else:
                measured_text, paper_text = f"{measured:.2f}", f"{paper:g}"
            lines.append(
                f"{check:<36} {experiment:<10} "
                f"{measured_text:>8} {'≈' + paper_text:>6}"
            )
        return "\n".join(lines)


def _histogram_line(histogram) -> str:
    if histogram.count == 0:
        return "(empty)"
    buckets = " ".join(
        (f"[{lo}]={count}" if lo == hi else f"[{lo}-{hi}]={count}")
        for lo, hi, count in histogram.bucket_rows()
    )
    return (
        f"n={histogram.count} mean={histogram.mean:.2f} "
        f"min={histogram.min} max={histogram.max} {buckets}"
    )


def trace_suite(
    suite_name: str = "medium",
    experiments: Iterable[str] = DEFAULT_EXPERIMENTS,
    seed: int = 0,
    benchmarks: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> TraceReport:
    """Run ``experiments`` over a suite with telemetry sinks attached."""
    experiments = tuple(experiments)
    sinks: Dict[Tuple[str, str], HistogramSink] = {}

    def sink_factory(benchmark: str, experiment: str) -> HistogramSink:
        sink = HistogramSink(label=f"{benchmark}/{experiment}")
        sinks[(benchmark, experiment)] = sink
        return sink

    results = SuiteResults.for_suite(
        suite_name, seed=seed, sink_factory=sink_factory
    )
    if benchmarks is not None:
        wanted = set(benchmarks)
        results.benchmarks = [
            bench for bench in results.benchmarks if bench.name in wanted
        ]
        missing = wanted - {b.name for b in results.benchmarks}
        if missing:
            raise KeyError(
                f"benchmarks not in suite {suite_name!r}: "
                f"{sorted(missing)}"
            )
    report = TraceReport(suite_name, seed, experiments)
    for bench in results.benchmarks:
        # Figure 11's denominator: final-graph SCC variables, computed
        # by SuiteResults.statistics from an SF-Plain recorded run.
        report.scc_vars[bench.name] = results.statistics(
            bench.name
        ).final_scc_vars
        for experiment in experiments:
            solution = results.solution(bench.name, experiment)
            run = TracedRun(
                benchmark=bench.name,
                experiment=experiment,
                stats=solution.stats,
                telemetry=sinks[(bench.name, experiment)],
            )
            report.runs.append(run)
            if progress is not None:
                progress(
                    f"{bench.name:<14} {experiment:<10} "
                    f"searches={solution.stats.cycle_searches:>8} "
                    f"visits/search="
                    f"{solution.stats.mean_search_visits:6.2f}"
                )
    return report
