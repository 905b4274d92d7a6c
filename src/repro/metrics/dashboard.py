"""The benchmark-trajectory dashboard.

Ingests the committed ``benchmarks/BASELINE.json`` plus any number of
``BENCH_<n>.json`` reports (and, optionally, ``repro.metrics`` snapshot
files), orders them into a trajectory (schema-v2 reports carry
``timestamp``/``git_sha`` stamps; v1 reports fall back to file order),
computes per-experiment trends — work counts, wall time, visits per
partial search against Theorem 5.2 (through
:func:`repro.experiments.figures.paper_checks`), the per-search hit
rate — flags work-count regressions versus the baseline, and renders
everything as **one self-contained static HTML file**: inline CSS,
inline SVG charts, native ``<title>`` tooltips, no external assets and
no JavaScript, so the file is committable as a CI artifact and renders
identically forever.

CLI front end: ``python -m repro.metrics dashboard``.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.baseline import load_report
from ..bench.compare import IncomparableReportsError, compare_reports
from ..bench.harness import BenchReport
from ..experiments.config import EXPERIMENT_LABELS
from ..experiments.figures import PaperCheck, paper_checks
from ..graph.stats import SolverStats

#: The configurations that search online: the ones paper checks cover.
_ONLINE = ("SF-Online", "IF-Online")

#: Fixed experiment -> categorical slot assignment (color follows the
#: entity: the mapping never changes with which experiments appear).
_SERIES_SLOT = {
    label: slot + 1 for slot, label in enumerate(EXPERIMENT_LABELS)
}


@dataclass
class TrajectoryPoint:
    """One report in the ordered trajectory."""

    label: str
    source: str
    report: BenchReport
    is_baseline: bool = False

    def sort_key(self) -> Tuple[int, str, str]:
        # Baseline anchors the trajectory; stamped reports order by
        # timestamp (ISO-8601 sorts lexicographically); unstamped v1
        # reports keep their given (file) order via the source name.
        if self.is_baseline:
            return (0, "", "")
        timestamp = getattr(self.report, "timestamp", "") or ""
        return (1, timestamp, self.source)


@dataclass
class ExperimentTrend:
    """Aggregate series for one experiment across the trajectory."""

    experiment: str
    work: List[int] = field(default_factory=list)
    seconds: List[float] = field(default_factory=list)
    mean_search_visits: List[float] = field(default_factory=list)
    hit_rate: List[float] = field(default_factory=list)


@dataclass
class DashboardData:
    """Everything the renderer needs, precomputed."""

    points: List[TrajectoryPoint]
    trends: Dict[str, ExperimentTrend]
    flags: List[str]
    snapshot_rows: List[Tuple[str, str, float]]
    notes: List[str]
    #: the latest report's paper checks (Theorem 5.2 only: bench
    #: reports carry no final-SCC denominator for the detection
    #: fraction)
    checks: List[PaperCheck]


def load_trajectory(baseline_path: Optional[str],
                    report_paths: Sequence[str]) -> List[TrajectoryPoint]:
    """Load and order the baseline + reports into a trajectory."""
    points: List[TrajectoryPoint] = []
    if baseline_path:
        points.append(TrajectoryPoint(
            label="baseline", source=baseline_path,
            report=load_report(baseline_path), is_baseline=True,
        ))
    for index, path in enumerate(report_paths, start=1):
        report = load_report(path)
        sha = getattr(report, "git_sha", "") or ""
        label = sha[:9] if sha not in ("", "unknown") else f"run {index}"
        points.append(TrajectoryPoint(
            label=label, source=path, report=report,
        ))
    points.sort(key=TrajectoryPoint.sort_key)
    if not points:
        raise ValueError("dashboard needs a baseline or at least one "
                         "BENCH report")
    return points


def _aggregate(report: BenchReport, experiment: str) -> Optional[dict]:
    """Sum one experiment's counters/time across a report's benchmarks."""
    records = [
        record for record in report.records
        if record.experiment == experiment
    ]
    if not records:
        return None
    totals: Dict[str, float] = {}
    for record in records:
        for key, value in record.counters.items():
            totals[key] = totals.get(key, 0) + value
        totals["seconds"] = (
            totals.get("seconds", 0.0) + record.median_seconds
        )
    return totals


def compute_trends(
    points: Sequence[TrajectoryPoint],
) -> Dict[str, ExperimentTrend]:
    """Per-experiment aggregate series across the trajectory.

    ``mean_search_visits`` (Theorem 5.2's quantity) and ``hit_rate``
    (searches that found a cycle) are ratios of summed counters, not
    means of per-benchmark ratios.
    """
    labels: List[str] = []
    for point in points:
        for label in point.report.experiments:
            if label not in labels:
                labels.append(label)
    trends: Dict[str, ExperimentTrend] = {}
    for label in labels:
        trend = ExperimentTrend(experiment=label)
        for point in points:
            totals = _aggregate(point.report, label)
            if totals is None:
                trend.work.append(0)
                trend.seconds.append(0.0)
                trend.mean_search_visits.append(0.0)
                trend.hit_rate.append(0.0)
                continue
            searches = totals.get("cycle_searches", 0)
            visits = totals.get("cycle_search_visits", 0)
            found = totals.get("cycles_found", 0)
            trend.work.append(int(totals.get("work", 0)))
            trend.seconds.append(totals.get("seconds", 0.0))
            trend.mean_search_visits.append(
                visits / searches if searches else 0.0
            )
            trend.hit_rate.append(found / searches if searches else 0.0)
        trends[label] = trend
    return trends


def flag_regressions(points: Sequence[TrajectoryPoint]) -> Tuple[
        List[str], List[str]]:
    """Work-count regressions of the latest report vs the baseline.

    Returns ``(flags, notes)`` — notes carry non-fatal conditions like
    an incomparable baseline (different suite/seed), which the
    dashboard reports instead of silently skipping the check.
    """
    flags: List[str] = []
    notes: List[str] = []
    baseline = next(
        (point for point in points if point.is_baseline), None
    )
    latest = points[-1]
    if baseline is None:
        notes.append("no baseline given: regression check skipped")
        return flags, notes
    if latest is baseline:
        notes.append("only the baseline loaded: nothing to diff")
        return flags, notes
    try:
        comparison = compare_reports(
            baseline.report, latest.report, check_time=False,
        )
    except IncomparableReportsError as error:
        notes.append(f"baseline not comparable: {error}")
        return flags, notes
    for key in comparison.missing:
        flags.append(f"{key}: present in baseline, missing from "
                     f"{latest.label}")
    for finding in comparison.regressions:
        flags.append(str(finding))
    return flags, notes


#: Snapshot counters surfaced in the dashboard's metrics section.
_SNAPSHOT_FAMILIES = (
    "repro_solver_edges_total",
    "repro_solver_collapses_total",
    "repro_solver_vars_eliminated_total",
    "repro_solver_budget_stops_total",
    "repro_solver_audit_failures_total",
)


def summarize_snapshots(
    snapshot_paths: Sequence[str],
) -> List[Tuple[str, str, float]]:
    """Fold metric snapshots into ``(metric, labels, value)`` rows."""
    totals: Dict[Tuple[str, str], float] = {}
    for path in snapshot_paths:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for family in payload.get("families", ()):
            name = family.get("name", "")
            if name not in _SNAPSHOT_FAMILIES:
                continue
            for row in family.get("series", ()):
                if "value" not in row:
                    continue
                labels = ",".join(
                    f"{key}={value}"
                    for key, value in sorted(row["labels"].items())
                    if value
                )
                key = (name, labels)
                totals[key] = totals.get(key, 0.0) + float(row["value"])
    return [
        (name, labels, value)
        for (name, labels), value in sorted(totals.items())
        if value
    ]


def build_dashboard_data(
    baseline_path: Optional[str],
    report_paths: Sequence[str],
    snapshot_paths: Sequence[str] = (),
) -> DashboardData:
    points = load_trajectory(baseline_path, report_paths)
    trends = compute_trends(points)
    flags, notes = flag_regressions(points)
    snapshot_rows = summarize_snapshots(snapshot_paths)
    latest = points[-1].report
    checks = paper_checks({
        label: {
            record.benchmark: SolverStats.from_dict(record.counters)
            for record in latest.records if record.experiment == label
        }
        for label in _ONLINE if label in latest.experiments
    })
    return DashboardData(
        points=points, trends=trends, flags=flags,
        snapshot_rows=snapshot_rows, notes=notes, checks=checks,
    )


# ----------------------------------------------------------------------
# Rendering

_CSS = """
:root { color-scheme: light dark; }
body {
  margin: 0; padding: 24px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink);
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --flag: #d03b3b; --ok: #006300;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
  --series-7: #4a3aa7; --series-8: #e34948;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --flag: #e66767; --ok: #0ca30c;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
    --series-7: #9085e9; --series-8: #e66767;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--ink-2); font-size: 13px; margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 150px;
}
.tile .v { font-size: 24px; }
.tile .k { color: var(--ink-2); font-size: 12px; margin-top: 2px; }
.tile .d { font-size: 12px; margin-top: 2px; color: var(--muted); }
.charts { display: flex; flex-wrap: wrap; gap: 16px; }
.chart {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px 8px;
}
.chart h3 { font-size: 13px; margin: 0 0 2px; }
.chart .u { color: var(--muted); font-size: 11px; margin: 0 0 6px; }
.legend { display: flex; flex-wrap: wrap; gap: 10px;
  font-size: 11px; color: var(--ink-2); margin-top: 4px; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 3px; margin-right: 4px; vertical-align: -1px; }
table { border-collapse: collapse; font-size: 12px;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; }
th, td { padding: 5px 10px; text-align: right;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
th:first-child, td:first-child { text-align: left; }
.flag { color: var(--flag); }
.okay { color: var(--ok); }
ul.flags { font-size: 13px; }
.note { color: var(--muted); font-size: 12px; }
svg text { font-family: inherit; }
"""


def _fmt(value: float) -> str:
    """Compact human number (axis ticks and tiles)."""
    if value >= 1_000_000:
        return f"{value / 1_000_000:.3g}M"
    if value >= 10_000:
        return f"{value / 1_000:.3g}k"
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:.3g}"


def _nice_ceiling(top: float) -> float:
    """A round upper bound >= top for the y axis."""
    if top <= 0:
        return 1.0
    magnitude = 10 ** len(str(int(top))) / 10
    for factor in (1, 2, 2.5, 5, 10):
        if top <= factor * magnitude:
            return factor * magnitude
    return top


def _line_chart(
    title: str,
    unit: str,
    series: Sequence[Tuple[str, int, Sequence[float]]],
    x_labels: Sequence[str],
    ref_lines: Sequence[Tuple[str, float]] = (),
    width: int = 560,
    height: int = 240,
) -> str:
    """One inline-SVG line chart with legend and <title> tooltips.

    ``series`` is ``(name, categorical_slot, values)``; the y axis
    always starts at zero (every plotted quantity is a count, a time,
    or a rate), gridlines are hairlines, marks are 2px lines with 3px
    point markers carrying native tooltips.
    """
    pad_l, pad_r, pad_t, pad_b = 52, 12, 8, 26
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    top = max(
        [max(values) if values else 0.0 for _, _, values in series]
        + [ref for _, ref in ref_lines] + [0.0]
    )
    top = _nice_ceiling(top * 1.02)
    steps = max(len(x_labels) - 1, 1)

    def x_at(index: int) -> float:
        return pad_l + plot_w * (index / steps if steps else 0.5)

    def y_at(value: float) -> float:
        return pad_t + plot_h * (1 - value / top)

    parts: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" '
        f'aria-label="{html.escape(title)}">'
    ]
    # gridlines + y ticks (quarters of the rounded top)
    for quarter in range(5):
        value = top * quarter / 4
        y = y_at(value)
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - pad_r}" '
            f'y2="{y:.1f}" stroke="var(--grid)" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{pad_l - 6}" y="{y + 3.5:.1f}" '
            f'text-anchor="end" font-size="10" '
            f'fill="var(--muted)">{_fmt(value)}</text>'
        )
    # baseline axis
    parts.append(
        f'<line x1="{pad_l}" y1="{y_at(0):.1f}" x2="{width - pad_r}" '
        f'y2="{y_at(0):.1f}" stroke="var(--baseline)" '
        f'stroke-width="1"/>'
    )
    # x labels
    for index, label in enumerate(x_labels):
        anchor = ("start" if index == 0
                  else "end" if index == len(x_labels) - 1
                  else "middle")
        parts.append(
            f'<text x="{x_at(index):.1f}" y="{height - 8}" '
            f'text-anchor="{anchor}" font-size="10" '
            f'fill="var(--muted)">{html.escape(label)}</text>'
        )
    # reference lines (paper expectations)
    for name, value in ref_lines:
        if value > top:
            continue
        y = y_at(value)
        parts.append(
            f'<line x1="{pad_l}" y1="{y:.1f}" x2="{width - pad_r}" '
            f'y2="{y:.1f}" stroke="var(--muted)" stroke-width="1" '
            f'stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<text x="{width - pad_r}" y="{y - 4:.1f}" '
            f'text-anchor="end" font-size="10" fill="var(--muted)">'
            f'{html.escape(name)}</text>'
        )
    # series: 2px lines, 3px markers with native tooltips
    for name, slot, values in series:
        color = f"var(--series-{slot})"
        points = " ".join(
            f"{x_at(index):.1f},{y_at(value):.1f}"
            for index, value in enumerate(values)
        )
        if len(values) > 1:
            parts.append(
                f'<polyline points="{points}" fill="none" '
                f'stroke="{color}" stroke-width="2" '
                f'stroke-linejoin="round" stroke-linecap="round"/>'
            )
        for index, value in enumerate(values):
            tip = (f"{name} — {x_labels[index]}: "
                   f"{_fmt(value)}{(' ' + unit) if unit else ''}")
            parts.append(
                f'<circle cx="{x_at(index):.1f}" '
                f'cy="{y_at(value):.1f}" r="3" fill="{color}" '
                f'stroke="var(--surface-1)" stroke-width="2">'
                f'<title>{html.escape(tip)}</title></circle>'
            )
    parts.append("</svg>")
    legend = "".join(
        f'<span><span class="sw" style="background:'
        f'var(--series-{slot})"></span>{html.escape(name)}</span>'
        for name, slot, _ in series
    )
    unit_html = (f'<p class="u">{html.escape(unit)}</p>' if unit else "")
    return (
        f'<div class="chart"><h3>{html.escape(title)}</h3>{unit_html}'
        f'{"".join(parts)}'
        f'<div class="legend">{legend}</div></div>'
    )


def _stat_tiles(data: DashboardData) -> str:
    latest = data.points[-1]
    tiles: List[str] = []

    def tile(value: str, key: str, detail: str = "") -> None:
        detail_html = f'<div class="d">{html.escape(detail)}</div>' \
            if detail else ""
        tiles.append(
            f'<div class="tile"><div class="v">{html.escape(value)}'
            f'</div><div class="k">{html.escape(key)}</div>'
            f'{detail_html}</div>'
        )

    total_work = sum(record.work for record in latest.report.records)
    total_seconds = sum(
        record.median_seconds for record in latest.report.records
    )
    tile(_fmt(total_work), "total work (latest)",
         f"suite {latest.report.suite}, all configs")
    tile(f"{total_seconds:.2f}s", "total median wall time (latest)")
    for check, experiment, measured, paper in data.checks:
        tile(f"{measured:.2f}", f"{experiment} {check}",
             f"paper: ~{paper:g}")
    for label in _ONLINE:
        trend = data.trends.get(label)
        if trend is not None:
            tile(f"{trend.hit_rate[-1] * 100:.0f}%",
                 f"{label} per-search hit rate", "cycles found / searches")
    flag_count = len(data.flags)
    tile(str(flag_count), "work regressions vs baseline",
         "latest report diffed against the committed baseline")
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _flags_section(data: DashboardData) -> str:
    parts: List[str] = ["<h2>Regression flags</h2>"]
    if data.flags:
        items = "".join(
            f'<li class="flag">▲ {html.escape(flag)}</li>'
            for flag in data.flags
        )
        parts.append(f'<ul class="flags">{items}</ul>')
    else:
        parts.append(
            '<p class="okay">✓ no work-count regressions against the '
            "baseline</p>"
        )
    for note in data.notes:
        parts.append(f'<p class="note">{html.escape(note)}</p>')
    return "".join(parts)


def _charts_section(data: DashboardData) -> str:
    x_labels = [point.label for point in data.points]
    ordered = [
        label for label in _SERIES_SLOT if label in data.trends
    ] + [
        label for label in data.trends if label not in _SERIES_SLOT
    ]

    def slot_of(label: str) -> int:
        return _SERIES_SLOT.get(label, 8)

    work_series = [
        (label, slot_of(label), data.trends[label].work)
        for label in ordered
    ]
    time_series = [
        (label, slot_of(label), data.trends[label].seconds)
        for label in ordered
    ]
    online = [label for label in _ONLINE if label in data.trends]
    visit_series = [
        (label, slot_of(label), data.trends[label].mean_search_visits)
        for label in online
    ]
    rate_series = [
        (label, slot_of(label), data.trends[label].hit_rate)
        for label in online
    ]
    charts = [
        _line_chart(
            "Work per experiment", "attempted edge additions",
            work_series, x_labels,
        ),
        _line_chart(
            "Median wall time per experiment", "seconds",
            time_series, x_labels,
        ),
    ]
    if visit_series:
        charts.append(_line_chart(
            "Visits per partial search", "visits / search",
            visit_series, x_labels,
            ref_lines=sorted({
                (f"{check} ~{paper:g}", paper)
                for check, _, _, paper in data.checks
            }),
        ))
    if rate_series:
        charts.append(_line_chart(
            "Online per-search hit rate", "cycles found / searches",
            rate_series, x_labels,
        ))
    return (
        "<h2>Benchmark trajectory</h2>"
        f'<div class="charts">{"".join(charts)}</div>'
    )


def _table_section(data: DashboardData) -> str:
    """The table view: every plotted number, exactly."""
    header = "".join(
        f"<th>{html.escape(point.label)}</th>" for point in data.points
    )
    rows: List[str] = []
    for label, trend in sorted(data.trends.items()):
        work_cells = "".join(f"<td>{work:,}</td>" for work in trend.work)
        time_cells = "".join(
            f"<td>{seconds:.3f}</td>" for seconds in trend.seconds
        )
        rows.append(
            f"<tr><td>{html.escape(label)} work</td>{work_cells}</tr>"
        )
        rows.append(
            f"<tr><td>{html.escape(label)} seconds</td>{time_cells}</tr>"
        )
    return (
        "<h2>Data</h2><table><thead><tr><th>series</th>"
        f"{header}</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _snapshots_section(data: DashboardData) -> str:
    if not data.snapshot_rows:
        return ""
    rows = "".join(
        f"<tr><td>{html.escape(name)}</td>"
        f"<td>{html.escape(labels) or '—'}</td>"
        f"<td>{_fmt(value)}</td></tr>"
        for name, labels, value in data.snapshot_rows
    )
    return (
        "<h2>Run metrics (from snapshots)</h2>"
        "<table><thead><tr><th>metric</th><th>labels</th>"
        f"<th>value</th></tr></thead><tbody>{rows}</tbody></table>"
    )


def render_dashboard(data: DashboardData,
                     title: str = "repro benchmark trajectory") -> str:
    """The complete self-contained HTML document."""
    latest = data.points[-1]
    stamp_bits = [f"{len(data.points)} report(s)"]
    timestamp = getattr(latest.report, "timestamp", "") or ""
    if timestamp:
        stamp_bits.append(f"latest recorded {timestamp}")
    sha = getattr(latest.report, "git_sha", "") or ""
    if sha and sha != "unknown":
        stamp_bits.append(f"git {sha[:12]}")
    subtitle = (
        f"suite {latest.report.suite} · seed {latest.report.seed} · "
        + " · ".join(stamp_bits)
    )
    body = "".join([
        f"<h1>{html.escape(title)}</h1>",
        f'<p class="sub">{html.escape(subtitle)}</p>',
        _stat_tiles(data),
        _flags_section(data),
        _charts_section(data),
        _table_section(data),
        _snapshots_section(data),
    ])
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f'<body class="viz-root">{body}</body></html>\n'
    )


def build_dashboard(
    baseline_path: Optional[str],
    report_paths: Sequence[str],
    out_path: str,
    snapshot_paths: Sequence[str] = (),
    title: str = "repro benchmark trajectory",
) -> DashboardData:
    """Load, compute, render, and write; returns the computed data."""
    data = build_dashboard_data(
        baseline_path, report_paths, snapshot_paths,
    )
    document = render_dashboard(data, title=title)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(document)
    return data
