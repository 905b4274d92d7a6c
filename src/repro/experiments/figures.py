"""Reproduction of the paper's figures (7-11) as data series.

Every ``figureN`` function returns ``(name, [(x, y), ...])`` series that
a plotting front-end could draw directly; ``render_figureN`` prints the
same data as an aligned table (the benchmark harness asserts on the
*shape*: who wins, by what factor, where crossovers fall).

X axes follow the paper: program size in AST nodes for Figures 7 and
10, absolute SF-Plain execution time for Figure 9; Figures 8 and 11 are
per-benchmark.  Work-based variants are provided alongside times since
work is deterministic (machine-independent), matching how the paper
argues its claims.
"""

from __future__ import annotations

from math import fsum
from typing import Dict, List, Mapping, Optional, Tuple

from ..graph.stats import SolverStats
from .report import format_series, format_table
from .runner import SuiteResults

Series = Tuple[str, List[Tuple[float, float]]]


def _sorted_benchmarks(results: SuiteResults):
    return sorted(results.benchmarks, key=lambda bench: bench.ast_nodes)


# ----------------------------------------------------------------------
# Figure 7: analysis time without cycle elimination vs program size
# ----------------------------------------------------------------------
def figure7(results: SuiteResults) -> List[Series]:
    sf: List[Tuple[float, float]] = []
    if_: List[Tuple[float, float]] = []
    for bench in _sorted_benchmarks(results):
        x = bench.ast_nodes
        sf.append((x, results.run(bench.name, "SF-Plain").total_seconds))
        if_.append((x, results.run(bench.name, "IF-Plain").total_seconds))
    return [("SF-Plain (s)", sf), ("IF-Plain (s)", if_)]


def render_figure7(results: SuiteResults) -> str:
    return format_series(
        "Figure 7: analysis times without cycle elimination",
        "AST nodes", figure7(results),
    )


# ----------------------------------------------------------------------
# Figure 8: online and oracle analysis times vs program size
# ----------------------------------------------------------------------
FIGURE8_EXPERIMENTS = ("IF-Oracle", "SF-Oracle", "IF-Online", "SF-Online")


def figure8(results: SuiteResults) -> List[Series]:
    series = {label: [] for label in FIGURE8_EXPERIMENTS}
    for bench in _sorted_benchmarks(results):
        x = bench.ast_nodes
        for label in FIGURE8_EXPERIMENTS:
            series[label].append(
                (x, results.run(bench.name, label).total_seconds)
            )
    return [(f"{label} (s)", series[label]) for label in FIGURE8_EXPERIMENTS]


def render_figure8(results: SuiteResults) -> str:
    return format_series(
        "Figure 8: analysis times with online and oracle cycle "
        "elimination",
        "AST nodes", figure8(results),
    )


# ----------------------------------------------------------------------
# Figure 9: speedups over the standard implementation
# ----------------------------------------------------------------------
def figure9(results: SuiteResults) -> List[Series]:
    """Speedups vs SF-Plain, plotted against SF-Plain absolute time."""
    total: List[Tuple[float, float]] = []
    online_only: List[Tuple[float, float]] = []
    points = []
    for bench in results.benchmarks:
        base = results.run(bench.name, "SF-Plain").total_seconds
        points.append((base, bench.name))
    points.sort()
    for base, name in points:
        if_online = results.run(name, "IF-Online").total_seconds
        sf_online = results.run(name, "SF-Online").total_seconds
        total.append((base, base / if_online if if_online else 0.0))
        online_only.append((base, base / sf_online if sf_online else 0.0))
    return [
        ("IF-Online over SF-Plain", total),
        ("SF-Online over SF-Plain", online_only),
    ]


def figure9_work(results: SuiteResults) -> List[Series]:
    """Deterministic variant: work ratios instead of time ratios."""
    total: List[Tuple[float, float]] = []
    online_only: List[Tuple[float, float]] = []
    for bench in _sorted_benchmarks(results):
        base = results.run(bench.name, "SF-Plain").work
        if_online = results.run(bench.name, "IF-Online").work
        sf_online = results.run(bench.name, "SF-Online").work
        total.append((bench.ast_nodes, base / if_online))
        online_only.append((bench.ast_nodes, base / sf_online))
    return [
        ("SF-Plain/IF-Online work", total),
        ("SF-Plain/SF-Online work", online_only),
    ]


def render_figure9(results: SuiteResults) -> str:
    rendered = format_series(
        "Figure 9: speedup over the standard implementation "
        "(x = SF-Plain seconds)",
        "SF-Plain (s)", figure9(results),
    )
    rendered += "\n\n" + format_series(
        "Figure 9 (work-based variant)",
        "AST nodes", figure9_work(results),
    )
    return rendered


# ----------------------------------------------------------------------
# Figure 10: IF-Online vs SF-Online
# ----------------------------------------------------------------------
def figure10(results: SuiteResults) -> List[Series]:
    time_ratio: List[Tuple[float, float]] = []
    work_ratio: List[Tuple[float, float]] = []
    for bench in _sorted_benchmarks(results):
        x = bench.ast_nodes
        sf = results.run(bench.name, "SF-Online")
        if_ = results.run(bench.name, "IF-Online")
        time_ratio.append(
            (x, sf.total_seconds / if_.total_seconds
             if if_.total_seconds else 0.0)
        )
        work_ratio.append((x, sf.work / if_.work if if_.work else 0.0))
    return [
        ("SF-Online/IF-Online time", time_ratio),
        ("SF-Online/IF-Online work", work_ratio),
    ]


def render_figure10(results: SuiteResults) -> str:
    return format_series(
        "Figure 10: speedup of IF-Online over SF-Online",
        "AST nodes", figure10(results),
    )


# ----------------------------------------------------------------------
# Figure 11: fraction of cycle variables detected online
# ----------------------------------------------------------------------
def figure11(results: SuiteResults) -> List[Tuple[str, float, float]]:
    """Per benchmark: (name, IF fraction, SF fraction).

    Fraction = variables eliminated online / variables in non-trivial
    SCCs of the final constraint graph (paper: IF ~80 %, SF ~40 %).
    """
    rows: List[Tuple[str, float, float]] = []
    for bench in _sorted_benchmarks(results):
        stats = results.statistics(bench.name)
        denominator = stats.final_scc_vars
        if denominator == 0:
            rows.append((bench.name, 0.0, 0.0))
            continue
        if_elim = results.run(bench.name, "IF-Online").vars_eliminated
        sf_elim = results.run(bench.name, "SF-Online").vars_eliminated
        rows.append(
            (bench.name, if_elim / denominator, sf_elim / denominator)
        )
    return rows


def render_figure11(results: SuiteResults) -> str:
    rows = [
        (name, f"{if_frac:.0%}", f"{sf_frac:.0%}")
        for name, if_frac, sf_frac in figure11(results)
    ]
    averages = figure11_averages(results)
    rows.append(("MEAN", f"{averages[0]:.0%}", f"{averages[1]:.0%}"))
    return format_table(
        "Figure 11: fraction of final-SCC variables eliminated online",
        ("Benchmark", "IF-Online", "SF-Online"),
        rows,
    )


def figure11_averages(results: SuiteResults) -> Tuple[float, float]:
    """Suite means of :func:`figure11`'s columns: (IF, SF)."""
    means = detection_means(
        {
            label: {
                bench.name: results.run(bench.name, label).vars_eliminated
                for bench in results.benchmarks
            }
            for label in ("IF-Online", "SF-Online")
        },
        {
            bench.name: results.statistics(bench.name).final_scc_vars
            for bench in results.benchmarks
        },
    )
    return (means["IF-Online"], means["SF-Online"])


def detection_means(
    eliminated: Mapping[str, Mapping[str, int]],
    scc_vars: Mapping[str, int],
) -> Dict[str, float]:
    """Figure 11's suite mean for each experiment.

    ``eliminated`` maps experiment -> benchmark -> variables eliminated
    online; ``scc_vars`` maps benchmark -> variables in non-trivial SCCs
    of the final graph.  The mean is over benchmarks that have cycle
    variables and where some experiment eliminated any of them.
    """
    counted = [
        bench for bench, total in scc_vars.items()
        if total and any(runs.get(bench, 0) for runs in eliminated.values())
    ]
    return {
        experiment: fsum(
            runs.get(bench, 0) / scc_vars[bench] for bench in counted
        ) / len(counted) if counted else 0.0
        for experiment, runs in eliminated.items()
    }


# ----------------------------------------------------------------------
# The paper's reference values, and the checks against them
# ----------------------------------------------------------------------
#: Theorem 5.2: a partial search visits about 2.2 nodes on average.
PAPER_MEAN_VISITS = 2.2
#: Figure 11: the share of final-SCC variables found online.
PAPER_DETECTION = {"SF-Online": 0.40, "IF-Online": 0.80}
#: Figure 11's IF/SF detection ratio, about 2.
PAPER_DETECTION_RATIO = PAPER_DETECTION["IF-Online"] / PAPER_DETECTION[
    "SF-Online"]

CHECK_VISITS = "Thm 5.2 mean partial-search visits"
CHECK_DETECTION = "Fig. 11 cycle-variable detection"
CHECK_RATIO = "Fig. 11 IF/SF detection ratio"

#: One :func:`paper_checks` row: (check, experiment, measured, paper).
PaperCheck = Tuple[str, str, float, float]


def paper_checks(
    stats: Mapping[str, Mapping[str, SolverStats]],
    scc_vars: Optional[Mapping[str, int]] = None,
) -> List[PaperCheck]:
    """The paper's per-operation claims against measured counters.

    ``stats`` maps experiment -> benchmark -> that run's counters.
    Every experiment gets the Theorem 5.2 row: visits per partial
    search, as a ratio of sums over its runs.  The Figure 11 rows (each
    online experiment's :func:`detection_means`, then the IF/SF ratio)
    need the final-SCC denominators, so they come only when the caller
    passes ``scc_vars`` (benchmark -> variables in non-trivial SCCs).
    """
    rows: List[PaperCheck] = []
    for experiment, runs in stats.items():
        searches = sum(run.cycle_searches for run in runs.values())
        visits = sum(run.cycle_search_visits for run in runs.values())
        rows.append((
            CHECK_VISITS, experiment,
            visits / searches if searches else 0.0, PAPER_MEAN_VISITS,
        ))
    if scc_vars is None:
        return rows
    means = detection_means(
        {
            experiment: {
                bench: run.vars_eliminated for bench, run in runs.items()
            }
            for experiment, runs in stats.items()
            if experiment in PAPER_DETECTION
        },
        scc_vars,
    )
    for experiment, mean in means.items():
        rows.append((
            CHECK_DETECTION, experiment, mean, PAPER_DETECTION[experiment],
        ))
    if len(means) == 2 and means["SF-Online"]:
        rows.append((
            CHECK_RATIO, "IF/SF", means["IF-Online"] / means["SF-Online"],
            PAPER_DETECTION_RATIO,
        ))
    return rows
