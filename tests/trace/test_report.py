"""The trace report's paper checks come from the one definition in
``repro.experiments.figures``."""

import pytest

from repro.experiments.figures import (
    CHECK_VISITS,
    figure11_averages,
    paper_checks,
)
from repro.experiments.runner import SuiteResults
from repro.graph.stats import SolverStats
from repro.trace.report import trace_suite


@pytest.fixture(scope="module")
def report():
    return trace_suite("quick")


def test_detection_rate_is_figure11_mean(report):
    mean_if, mean_sf = figure11_averages(SuiteResults.for_suite("quick"))
    aggregates = report.to_dict()["aggregates"]
    assert aggregates["IF-Online"]["detection_rate"] == mean_if
    assert aggregates["SF-Online"]["detection_rate"] == mean_sf


def test_mean_search_visits_is_paper_check_on_summed_stats(report):
    aggregates = report.to_dict()["aggregates"]
    for experiment in ("SF-Online", "IF-Online"):
        summed = SolverStats()
        for run in report.runs_for(experiment):
            summed.cycle_searches += run.stats.cycle_searches
            summed.cycle_search_visits += run.stats.cycle_search_visits
        [(check, _, measured, _)] = paper_checks({experiment: {"": summed}})
        assert check == CHECK_VISITS
        assert aggregates[experiment]["mean_search_visits"] == measured
        assert measured == summed.mean_search_visits


def test_render_lists_every_paper_check(report):
    text = report.render()
    for check, experiment, _, _ in report.paper_checks():
        assert any(
            line.startswith(check) and experiment in line
            for line in text.splitlines()
        ), (check, experiment)
