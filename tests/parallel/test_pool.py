"""The task helper's contract: ordered results, nothing else.

``map_tasks`` is the builtin ``map`` for ``jobs == 1`` and
``ProcessPoolExecutor.map`` otherwise.  Every worker function here is
module-level, so the ``spawn`` start method can pickle it by reference.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import map_tasks
from repro.parallel.tasks import bench_task, shard_ranges


def double(payload):
    return payload * 2


def raiser(payload):
    raise ValueError(f"deterministic failure on {payload!r}")


def always_crash(payload):
    os._exit(23)  # hard death: no result message, nonzero exit


class TestOrderingAndValues:
    def test_results_in_submission_order(self):
        results = list(map_tasks(double, range(7), jobs=3))
        assert results == [n * 2 for n in range(7)]

    def test_jobs_zero_means_auto(self):
        assert list(map_tasks(double, [21], jobs=0)) == [42]


class TestFailureSemantics:
    def test_worker_exception_fails_without_retry(self):
        """A raising worker propagates its own exception type, serially
        and from a worker process alike."""
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="deterministic failure"):
                list(map_tasks(raiser, ["x"], jobs=jobs))

    def test_persistent_crash_fails_with_cause(self):
        """A worker process that dies breaks the pool; the caller sees
        BrokenProcessPool instead of waiting forever."""
        with ThreadPoolExecutor(max_workers=1) as runner:
            future = runner.submit(
                lambda: list(map_tasks(always_crash, [None, None], jobs=2))
            )
            with pytest.raises(BrokenProcessPool):
                future.result(timeout=120)


class TestCliExitCodes:
    def test_bench_broken_pool_exits_two(self, monkeypatch, capsys):
        import repro.bench.__main__ as bench_cli

        def broken(**kwargs):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(bench_cli, "run_bench", broken)
        assert bench_cli.main(["--no-output", "--jobs", "2"]) == 2
        assert "a worker died" in capsys.readouterr().err

    def test_fuzz_broken_pool_exits_two(self, monkeypatch, capsys):
        import repro.resilience.__main__ as resilience_cli

        def broken(**kwargs):
            raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(resilience_cli, "run_fuzz", broken)
        assert resilience_cli.main(
            ["fuzz", "--systems", "4", "--no-save", "--jobs", "2"]
        ) == 2
        assert "a worker died" in capsys.readouterr().err


class TestDeadline:
    def test_expired_deadline_returns_timeout_without_solving(
            self, monkeypatch):
        import repro.bench.measure as measure

        def must_not_solve(*args, **kwargs):
            raise AssertionError("solved after the deadline")

        monkeypatch.setattr(measure, "measure_system", must_not_solve)
        result = bench_task({
            "suite": "quick", "benchmark": "allroots",
            "experiment": "SF-Plain", "seed": 0, "repeats": 1,
            "trace": False, "metrics": False,
            "deadline": time.monotonic() - 1.0,
        })
        assert result["status"] == "timeout"


class TestShardRanges:
    def test_partitions_exactly(self):
        assert shard_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_ranges(2, 5) == [(0, 1), (1, 2)]
        assert shard_ranges(0, 4) == []
        ranges = shard_ranges(97, 8)
        assert ranges[0][0] == 0 and ranges[-1][1] == 97
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
