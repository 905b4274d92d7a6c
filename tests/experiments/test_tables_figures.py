"""Tests for table and figure generation."""

import pytest

from repro.experiments import (
    SuiteResults,
    figure7,
    figure9_work,
    figure10,
    figure11,
    figure11_averages,
    oracle_work_ratio,
    render_figure7,
    render_figure8,
    render_figure9,
    render_figure10,
    render_figure11,
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    table2,
    table3,
)
from repro.workloads import benchmark


@pytest.fixture(scope="module")
def results():
    return SuiteResults([benchmark("allroots"), benchmark("compress")])


class TestTables:
    def test_table1_lists_benchmarks(self, results):
        text = render_table1(results)
        assert "allroots" in text and "compress" in text
        assert "AST Nodes" in text

    def test_table2_has_four_experiments(self, results):
        rows = table2(results)
        assert set(rows[0]) == {
            "SF-Plain", "IF-Plain", "SF-Oracle", "IF-Oracle",
        }

    def test_table2_render(self, results):
        text = render_table2(results)
        assert "SF-Plain Work" in text

    def test_table3_has_elimination_column(self, results):
        text = render_table3(results)
        assert "IF-Online Elim" in text
        rows = table3(results)
        assert rows[1]["IF-Online"].vars_eliminated > 0

    def test_table4_static(self):
        text = render_table4()
        assert "SF-Plain" in text and "IF-Online" in text

    def test_oracle_work_ratio_positive(self, results):
        assert oracle_work_ratio(results) > 0


class TestFigures:
    def test_figure7_sorted_by_size(self, results):
        series = figure7(results)
        xs = [x for x, _ in series[0][1]]
        assert xs == sorted(xs)
        assert len(series) == 2

    def test_figure9_work_speedup_present(self, results):
        series = dict(figure9_work(results))
        speedups = series["SF-Plain/IF-Online work"]
        # compress is cyclic enough that elimination wins on work.
        assert speedups[-1][1] > 1.0

    def test_figure10_ratios(self, results):
        series = dict(figure10(results))
        for _, ratio in series["SF-Online/IF-Online work"]:
            assert ratio > 0

    def test_figure11_fractions_in_unit_interval(self, results):
        for name, if_frac, sf_frac in figure11(results):
            assert 0.0 <= if_frac <= 1.0, name
            assert 0.0 <= sf_frac <= 1.0, name

    def test_figure11_if_beats_sf_on_average(self, results):
        mean_if, mean_sf = figure11_averages(results)
        assert mean_if >= mean_sf

    def test_renderers_produce_text(self, results):
        for renderer in (render_figure7, render_figure8, render_figure9,
                         render_figure10, render_figure11):
            text = renderer(results)
            assert "allroots" in text or "AST nodes" in text


class TestPaperChecks:
    @staticmethod
    def stats(searches, visits, eliminated):
        from repro.graph.stats import SolverStats

        return SolverStats(cycle_searches=searches,
                           cycle_search_visits=visits,
                           vars_eliminated=eliminated)

    def test_visits_are_a_ratio_of_sums(self):
        from repro.experiments.figures import (
            CHECK_VISITS,
            PAPER_MEAN_VISITS,
            paper_checks,
        )

        rows = paper_checks({"SF-Online": {
            "a": self.stats(1, 1, 0), "b": self.stats(3, 9, 0),
        }})
        assert rows == [(CHECK_VISITS, "SF-Online", 2.5, PAPER_MEAN_VISITS)]

    def test_figure11_rows_need_denominators(self):
        from repro.experiments.figures import (
            CHECK_DETECTION,
            CHECK_RATIO,
            PAPER_DETECTION,
            PAPER_DETECTION_RATIO,
            paper_checks,
        )

        runs = {
            "SF-Online": {"a": self.stats(1, 1, 1), "b": self.stats(1, 1, 0),
                          "c": self.stats(1, 1, 0)},
            "IF-Online": {"a": self.stats(1, 1, 4), "b": self.stats(1, 1, 2),
                          "c": self.stats(1, 1, 0)},
        }
        assert all(row[0] not in (CHECK_DETECTION, CHECK_RATIO)
                   for row in paper_checks(runs))
        # "c" has no cycle variables and "b" none found by SF: the means
        # are over "a" and "b" (some experiment found one in each).
        rows = paper_checks(runs, {"a": 4, "b": 4, "c": 0})
        assert rows[2:] == [
            (CHECK_DETECTION, "SF-Online", 0.125,
             PAPER_DETECTION["SF-Online"]),
            (CHECK_DETECTION, "IF-Online", 0.75,
             PAPER_DETECTION["IF-Online"]),
            (CHECK_RATIO, "IF/SF", 6.0, PAPER_DETECTION_RATIO),
        ]
        assert PAPER_DETECTION_RATIO == 2.0


class TestReportFormatting:
    def test_format_table_alignment(self):
        from repro.experiments.report import format_table

        text = format_table(
            "T", ("name", "value"), [("a", 1), ("long-name", 23456)]
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "23,456" in text

    def test_format_series_empty(self):
        from repro.experiments.report import format_series

        assert format_series("T", "x", []) == "T"

    def test_float_rendering(self):
        from repro.experiments.report import _cell

        assert _cell(0.0) == "0"
        assert _cell(1.2345) == "1.23"
        assert _cell(12345.6) == "12,346"
        assert _cell(7) == "7"
