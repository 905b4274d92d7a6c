"""Tests for the benchmark-regression harness (repro.bench)."""

import json

import pytest

from repro.bench.baseline import (
    BaselineError,
    load_report,
    next_bench_path,
    write_next_report,
    write_report,
)
from repro.bench.compare import IncomparableReportsError, compare_reports
from repro.bench.harness import BenchReport, run_bench

# A two-benchmark, two-experiment slice of the quick suite: enough to
# exercise every code path while staying fast.
BENCHMARKS = ["allroots", "ks"]
EXPERIMENTS = ["SF-Plain", "IF-Online"]


@pytest.fixture(scope="module")
def report():
    return run_bench(
        suite_name="quick",
        experiments=EXPERIMENTS,
        seed=0,
        repeats=2,
        benchmarks=BENCHMARKS,
    )


class TestRunBench:
    def test_shape(self, report):
        assert report.suite == "quick"
        assert report.experiments == EXPERIMENTS
        assert len(report.records) == len(BENCHMARKS) * len(EXPERIMENTS)
        for record in report.records:
            assert record.benchmark in BENCHMARKS
            assert record.experiment in EXPERIMENTS
            assert record.counters["work"] > 0
            assert len(record.wall_times) == 2
            assert all(t > 0 for t in record.wall_times)

    def test_work_counts_deterministic_across_runs(self, report):
        again = run_bench(
            suite_name="quick",
            experiments=EXPERIMENTS,
            seed=0,
            repeats=2,
            benchmarks=BENCHMARKS,
        )
        first = {k: r.counters for k, r in report.key().items()}
        second = {k: r.counters for k, r in again.key().items()}
        assert first == second

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            run_bench(suite_name="quick", benchmarks=["no-such-benchmark"])

    def test_median_of_odd_and_even(self, report):
        record = report.records[0]
        lo, hi = sorted(record.wall_times)
        assert record.median_seconds == pytest.approx((lo + hi) / 2)
        assert record.best_seconds == lo


class TestBaselineRoundTrip:
    def test_write_load_compare_clean(self, report, tmp_path):
        path = tmp_path / "BASELINE.json"
        write_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded.to_dict() == report.to_dict()
        comparison = compare_reports(loaded, report)
        assert comparison.ok
        assert not comparison.regressions
        assert not comparison.missing

    def test_next_bench_path_skips_taken(self, report, tmp_path):
        first = write_next_report(report, str(tmp_path))
        second = write_next_report(report, str(tmp_path))
        assert first.endswith("BENCH_1.json")
        assert second.endswith("BENCH_2.json")
        assert next_bench_path(str(tmp_path))[1] == 3

    def test_load_rejects_missing_and_malformed(self, tmp_path):
        with pytest.raises(BaselineError):
            load_report(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(BaselineError):
            load_report(str(bad))

    def test_load_rejects_wrong_schema_version(self, report, tmp_path):
        path = tmp_path / "old.json"
        payload = report.to_dict()
        payload["schema_version"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(BaselineError):
            load_report(str(path))


class TestSchemaV2:
    def test_fresh_report_carries_provenance(self, report):
        assert report.schema_version == 2
        assert report.git_sha
        assert report.timestamp
        payload = report.to_dict()
        assert payload["git_sha"] == report.git_sha
        assert payload["timestamp"] == report.timestamp

    def test_timestamp_is_utc_iso8601(self, report):
        import datetime

        parsed = datetime.datetime.strptime(
            report.timestamp, "%Y-%m-%dT%H:%M:%SZ"
        )
        assert parsed.year >= 2024

    def test_v1_report_still_loads(self, report, tmp_path):
        """Backward compatibility: v1 baselines predate the stamps."""
        payload = report.to_dict()
        payload["schema_version"] = 1
        del payload["git_sha"]
        del payload["timestamp"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_report(str(path))
        assert loaded.schema_version == 1
        assert loaded.git_sha == "unknown"
        assert loaded.timestamp == ""

    def test_v1_baseline_comparable_to_v2_report(self, report, tmp_path):
        payload = report.to_dict()
        payload["schema_version"] = 1
        del payload["git_sha"]
        del payload["timestamp"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        comparison = compare_reports(load_report(str(path)), report)
        assert comparison.ok

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("hash_seed", ["0", "12345", "random"])
    def test_hash_seed_stamp_of_older_reports_ignored(
            self, report, tmp_path, version, hash_seed):
        """Reports written while Work depended on the hash seed carry
        a ``hash_seed`` field; they still load and compare, whatever
        seed they name."""
        assert "hash_seed" not in report.to_dict()
        payload = report.to_dict()
        payload["schema_version"] = version
        payload["hash_seed"] = hash_seed
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_report(str(path))
        assert compare_reports(loaded, report).ok
        assert compare_reports(report, loaded).ok

    def test_committed_baseline_loads(self):
        import os

        repo = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        baseline = load_report(
            os.path.join(repo, "benchmarks", "BASELINE.json")
        )
        assert baseline.records

    def test_detect_git_sha_fallback(self, monkeypatch):
        from repro.bench.harness import detect_git_sha

        monkeypatch.setenv("GITHUB_SHA", "deadbeef123")
        assert detect_git_sha() == "deadbeef123"


class TestCompare:
    def test_injected_work_regression_fails(self, report):
        baseline = BenchReport.from_dict(report.to_dict())
        record = baseline.records[0]
        record.counters = dict(record.counters,
                               work=record.counters["work"] - 1)
        comparison = compare_reports(baseline, report)
        assert not comparison.ok
        assert any(f.metric == "work" for f in comparison.regressions)

    def test_work_improvement_is_not_a_regression(self, report):
        baseline = BenchReport.from_dict(report.to_dict())
        record = baseline.records[0]
        record.counters = dict(record.counters,
                               work=record.counters["work"] + 5)
        comparison = compare_reports(baseline, report)
        assert comparison.ok
        assert any(f.metric == "work" for f in comparison.improvements)

    def test_missing_pair_fails(self, report):
        current = BenchReport.from_dict(report.to_dict())
        del current.records[0]
        comparison = compare_reports(report, current)
        assert not comparison.ok
        assert comparison.missing

    def test_time_gate_tolerance(self, report):
        baseline = BenchReport.from_dict(report.to_dict())
        baseline.records[0].wall_times = [
            t / 2 for t in baseline.records[0].wall_times
        ]
        gated = compare_reports(baseline, report, time_tolerance=0.25)
        assert not gated.ok
        ignored = compare_reports(baseline, report, check_time=False)
        assert ignored.ok

    def test_refuses_different_workloads(self, report):
        other = BenchReport.from_dict(report.to_dict())
        other.suite = "full"
        with pytest.raises(IncomparableReportsError):
            compare_reports(other, report)
        other = BenchReport.from_dict(report.to_dict())
        other.seed = 7
        with pytest.raises(IncomparableReportsError):
            compare_reports(other, report)
