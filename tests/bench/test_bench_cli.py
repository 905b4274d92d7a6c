"""Exit-code contract of ``python -m repro.bench``.

The tests call ``main`` in-process on a one-experiment slice of the
quick suite to stay fast.
"""

import json

from repro.bench.__main__ import main

FAST = ["--experiments", "SF-Plain", "--repeats", "1"]


def run_cli(*extra):
    return main([*FAST, *extra])


class TestCli:
    def test_smoke_writes_numbered_report(self, tmp_path, capsys):
        assert run_cli("--smoke", "--out", str(tmp_path)) == 0
        report_path = tmp_path / "BENCH_1.json"
        assert report_path.exists()
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["schema_version"] == 2
        assert payload["git_sha"]
        assert payload["timestamp"]
        assert payload["records"], "report must contain records"
        for record in payload["records"]:
            assert record["counters"]["work"] > 0
            assert record["wall_times"]
        out = capsys.readouterr().out
        assert "total median wall time" in out

    def test_matching_baseline_exits_zero(self, tmp_path):
        baseline = tmp_path / "BASELINE.json"
        assert run_cli("--no-output", "--write-baseline", str(baseline)) == 0
        assert run_cli("--no-output", "--baseline", str(baseline),
                       "--ignore-time") == 0

    def test_doctored_baseline_exits_one(self, tmp_path, capsys):
        baseline = tmp_path / "BASELINE.json"
        assert run_cli("--no-output", "--write-baseline", str(baseline)) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        payload["records"][0]["counters"]["work"] -= 1
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("--no-output", "--baseline", str(baseline),
                       "--ignore-time") == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_baseline_exits_two(self, tmp_path, capsys):
        absent = tmp_path / "nope.json"
        assert run_cli("--no-output", "--baseline", str(absent)) == 2
        assert "baseline compare failed" in capsys.readouterr().err

    def test_incomparable_baseline_exits_two(self, tmp_path):
        baseline = tmp_path / "BASELINE.json"
        assert run_cli("--no-output", "--write-baseline", str(baseline)) == 0
        payload = json.loads(baseline.read_text(encoding="utf-8"))
        payload["seed"] = 12345
        baseline.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("--no-output", "--baseline", str(baseline)) == 2

    def test_metrics_flag_writes_snapshot_and_exposition(
            self, tmp_path, capsys):
        metrics_dir = tmp_path / "metrics-out"
        assert run_cli("--no-output", "--metrics", str(metrics_dir)) == 0
        assert "wrote metrics artifacts" in capsys.readouterr().out

        from repro.metrics import MetricsRegistry, validate_exposition

        snapshot = json.loads(
            (metrics_dir / "metrics.json").read_text(encoding="utf-8")
        )
        assert snapshot["meta"]["suite"] == "quick"
        assert snapshot["meta"]["git_sha"]
        registry = MetricsRegistry()
        registry.load_snapshot(snapshot)
        assert registry.collect()
        exposition = (metrics_dir / "metrics.prom").read_text(
            encoding="utf-8"
        )
        assert validate_exposition(exposition) == []
        assert "repro_solver_edges_total" in exposition

    def test_unknown_experiment_label_exits_two(self, capsys):
        assert main(["--no-output", "--experiments", "NOT-A-LABEL"]) == 2
        assert "unknown experiment" in capsys.readouterr().err
