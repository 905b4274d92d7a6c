"""Dashboard ingestion, trend math, regression flags, and HTML output."""

import json
import os

import pytest

from repro.metrics.dashboard import (
    build_dashboard,
    build_dashboard_data,
    compute_trends,
    flag_regressions,
    load_trajectory,
    summarize_snapshots,
)

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
BASELINE = os.path.join(REPO, "benchmarks", "BASELINE.json")


def read_baseline_payload():
    with open(BASELINE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_report(tmp_path, name, mutate=None, sha="abc1234def",
                 timestamp="2026-08-06T10:00:00Z"):
    """A synthetic v2 report derived from the committed baseline."""
    payload = read_baseline_payload()
    payload["schema_version"] = 2
    payload["git_sha"] = sha
    payload["timestamp"] = timestamp
    if mutate is not None:
        mutate(payload)
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestTrajectory:
    def test_baseline_anchors_first(self, tmp_path):
        fresh = write_report(tmp_path, "BENCH_1.json")
        points = load_trajectory(BASELINE, [fresh])
        assert points[0].is_baseline
        assert points[1].label == "abc1234de"

    def test_timestamps_reorder_reports(self, tmp_path):
        newer = write_report(tmp_path, "BENCH_1.json", sha="b" * 9,
                             timestamp="2026-08-06T12:00:00Z")
        older = write_report(tmp_path, "BENCH_2.json", sha="a" * 9,
                             timestamp="2026-08-05T12:00:00Z")
        points = load_trajectory(None, [newer, older])
        assert [p.label for p in points] == ["a" * 9, "b" * 9]

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ValueError):
            load_trajectory(None, [])


class TestTrends:
    def test_ratio_of_sums(self, tmp_path):
        points = load_trajectory(
            BASELINE, [write_report(tmp_path, "BENCH_1.json")]
        )
        trends = compute_trends(points)
        for label, trend in trends.items():
            assert len(trend.work) == len(points)
            if label.endswith("-Online"):
                totals = {}
                for record in read_baseline_payload()["records"]:
                    if record["experiment"] == label:
                        for key, value in record["counters"].items():
                            totals[key] = totals.get(key, 0) + value
                searches = totals["cycle_searches"]
                assert trend.mean_search_visits[0] == (
                    totals["cycle_search_visits"] / searches
                )
                assert trend.hit_rate[0] == (
                    totals["cycles_found"] / searches
                )
                assert 0 < trend.hit_rate[0] <= 1
            else:
                assert trend.mean_search_visits[0] == 0.0


class TestFlags:
    def test_identical_reports_flag_nothing(self, tmp_path):
        points = load_trajectory(
            BASELINE, [write_report(tmp_path, "BENCH_1.json")]
        )
        flags, notes = flag_regressions(points)
        assert flags == []

    def test_work_regression_flagged(self, tmp_path):
        def worsen(payload):
            payload["records"][0]["counters"]["work"] += 1000

        points = load_trajectory(
            BASELINE, [write_report(tmp_path, "BENCH_1.json", worsen)]
        )
        flags, _ = flag_regressions(points)
        assert flags

    def test_incomparable_baseline_noted(self, tmp_path):
        def reseed(payload):
            payload["seed"] = 12345

        points = load_trajectory(
            BASELINE, [write_report(tmp_path, "BENCH_1.json", reseed)]
        )
        flags, notes = flag_regressions(points)
        assert flags == []
        assert any("not comparable" in note for note in notes)


class TestSnapshots:
    def test_summarize_accumulates_counters(self, tmp_path):
        from repro.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter(
            "repro_solver_budget_stops_total", "help", ("reason", "form")
        ).labels("work", "SF").inc(2)
        path = str(tmp_path / "snap.json")
        registry.flush_to(path)
        rows = summarize_snapshots([path, path])
        assert rows == [(
            "repro_solver_budget_stops_total",
            "form=SF,reason=work",
            4.0,
        )]


class TestHtml:
    def build(self, tmp_path, mutate=None):
        out = str(tmp_path / "dashboard.html")
        build_dashboard(
            BASELINE,
            [write_report(tmp_path, "BENCH_1.json", mutate)],
            out,
        )
        with open(out, "r", encoding="utf-8") as handle:
            return handle.read()

    def test_self_contained_html(self, tmp_path):
        html = self.build(tmp_path)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert 'rel="stylesheet"' not in html

    def test_charts_table_and_legend_present(self, tmp_path):
        html = self.build(tmp_path)
        assert "Work" in html
        assert "<table" in html
        assert "legend" in html
        assert "2.2" in html  # Theorem 5.2 reference line

    def test_regression_rendered(self, tmp_path):
        def worsen(payload):
            payload["records"][0]["counters"]["work"] += 1000

        html = self.build(tmp_path, worsen)
        assert "regression" in html.lower()

    def test_paper_lines_compare_like_with_like(self, tmp_path):
        """Theorem 5.2's 2.2 sits on per-search means, and no hit rate
        is labelled as Figure 11 (bench reports have no SCC count)."""
        html = self.build(tmp_path)
        assert "Fig. 11" not in html
        charts = html.split('<div class="chart">')[1:]
        (visits,) = [chart for chart in charts if "Thm 5.2" in chart]
        assert "SF-Online — baseline: 1.33 visits / search" in visits
        assert "IF-Online — baseline: 1.7 visits / search" in visits
        (hits,) = [chart for chart in charts if "hit rate" in chart]
        assert "paper" not in hits and "stroke-dasharray" not in hits

    def test_dashboard_data_counts(self, tmp_path):
        data = build_dashboard_data(
            BASELINE, [write_report(tmp_path, "BENCH_1.json")]
        )
        assert len(data.points) == 2
        assert data.flags == []
