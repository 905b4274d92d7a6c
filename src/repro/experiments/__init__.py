"""Experiment harness: the six configurations of Table 4 applied to the
benchmark suite, regenerating every table and figure of the paper."""

from .config import EXPERIMENT_LABELS, TABLE4, describe, options_for
from .export import export_results, export_results_json, run_records
from .figures import (
    figure7,
    figure8,
    figure9,
    figure9_work,
    figure10,
    figure11,
    figure11_averages,
    paper_checks,
    render_figure7,
    render_figure8,
    render_figure9,
    render_figure10,
    render_figure11,
)
from .runner import (
    BenchmarkStats,
    RunRecord,
    SuiteResults,
    initial_graph_statistics,
)
from .tables import (
    oracle_work_ratio,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    table1,
    table2,
    table3,
)

__all__ = [
    "BenchmarkStats",
    "export_results",
    "export_results_json",
    "run_records",
    "EXPERIMENT_LABELS",
    "RunRecord",
    "SuiteResults",
    "TABLE4",
    "describe",
    "figure10",
    "figure11",
    "figure11_averages",
    "figure7",
    "figure8",
    "figure9",
    "figure9_work",
    "initial_graph_statistics",
    "options_for",
    "oracle_work_ratio",
    "paper_checks",
    "render_figure10",
    "render_figure11",
    "render_figure7",
    "render_figure8",
    "render_figure9",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "table1",
    "table2",
    "table3",
]
