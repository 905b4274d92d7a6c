"""The benchmark-regression harness.

``run_bench`` solves a pinned, seeded workload suite under the six
Table-4 experiment configurations through the shared measurement
primitive (:func:`repro.bench.measure.measure_system`) and returns a
schema-versioned :class:`BenchReport`:

* the deterministic ``SolverStats`` counters per (benchmark,
  experiment) — exact regression oracles, reproducible across machines
  and processes;
* median-of-N wall times — noisy, gated only by a tolerance.

The report serializes to ``BENCH_<n>.json`` (see
:mod:`repro.bench.baseline`) and diffs against a committed baseline
(see :mod:`repro.bench.compare`).
"""

from __future__ import annotations

import datetime
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import ReproError
from ..experiments.config import EXPERIMENT_LABELS
from ..parallel import map_tasks
from ..parallel.tasks import bench_task
from ..workloads import suite

#: Format version of the serialized report; bump on breaking changes.
#: v2 added the ``git_sha``/``timestamp`` provenance stamps so the
#: dashboard can order a report trajectory without filename parsing;
#: v1 reports still load (the stamps default to unknown/empty).
SCHEMA_VERSION = 2

#: The pinned smoke workload: small, seeded, fast enough for CI.
SMOKE_SUITE = "quick"
SMOKE_REPEATS = 3


def detect_git_sha() -> str:
    """The commit this run measures: ``$GITHUB_SHA`` or ``git rev-parse``.

    Falls back to ``"unknown"`` outside a repository — provenance is
    metadata, never a reason for a benchmark run to fail.
    """
    env_sha = os.environ.get("GITHUB_SHA")
    if env_sha:
        return env_sha
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else "unknown"


def _utc_now() -> str:
    """ISO-8601 UTC stamp; lexicographic order == chronological order."""
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


class BenchTimeoutError(ReproError):
    """A harness run exceeded its per-suite wall-clock timeout."""

    def __init__(self, message: str, completed: int = 0) -> None:
        super().__init__(message)
        #: (benchmark, experiment) pairs finished before the timeout
        self.completed = completed


@dataclass
class BenchRecord:
    """Measurements for one benchmark under one experiment."""

    benchmark: str
    experiment: str
    counters: Dict[str, int]
    wall_times: List[float]

    @property
    def work(self) -> int:
        return self.counters["work"]

    @property
    def median_seconds(self) -> float:
        times = sorted(self.wall_times)
        mid = len(times) // 2
        if len(times) % 2:
            return times[mid]
        return (times[mid - 1] + times[mid]) / 2

    @property
    def best_seconds(self) -> float:
        return min(self.wall_times)

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "experiment": self.experiment,
            "counters": dict(self.counters),
            "wall_times": list(self.wall_times),
            "median_seconds": self.median_seconds,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchRecord":
        return cls(
            benchmark=payload["benchmark"],
            experiment=payload["experiment"],
            counters={k: int(v) for k, v in payload["counters"].items()},
            wall_times=[float(t) for t in payload["wall_times"]],
        )


@dataclass
class BenchReport:
    """One full harness run over a suite, ready to serialize."""

    suite: str
    seed: int
    repeats: int
    experiments: List[str]
    records: List[BenchRecord]
    schema_version: int = SCHEMA_VERSION
    python_version: str = field(
        default_factory=lambda: platform.python_version()
    )
    #: commit the run measured (schema v2; "unknown" on v1 reports)
    git_sha: str = field(default_factory=detect_git_sha)
    #: ISO-8601 UTC stamp of the run (schema v2; "" on v1 reports)
    timestamp: str = field(default_factory=_utc_now)

    def key(self) -> Dict[Tuple[str, str], BenchRecord]:
        return {
            (record.benchmark, record.experiment): record
            for record in self.records
        }

    @property
    def total_median_seconds(self) -> float:
        return sum(record.median_seconds for record in self.records)

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "seed": self.seed,
            "repeats": self.repeats,
            "experiments": list(self.experiments),
            "python_version": self.python_version,
            "git_sha": self.git_sha,
            "timestamp": self.timestamp,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BenchReport":
        # v1 payloads predate the provenance stamps; default them
        # rather than refusing — old baselines must keep loading.  The
        # hash-seed stamp of older reports is ignored: Work does not
        # depend on it.
        return cls(
            suite=payload["suite"],
            seed=int(payload["seed"]),
            repeats=int(payload["repeats"]),
            experiments=list(payload["experiments"]),
            records=[
                BenchRecord.from_dict(entry) for entry in payload["records"]
            ],
            schema_version=int(payload["schema_version"]),
            python_version=payload.get("python_version", "unknown"),
            git_sha=str(payload.get("git_sha", "unknown")),
            timestamp=str(payload.get("timestamp", "")),
        )


def run_bench(
    suite_name: str = SMOKE_SUITE,
    experiments: Optional[Iterable[str]] = None,
    seed: int = 0,
    repeats: int = SMOKE_REPEATS,
    benchmarks: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    trace_dir: Optional[str] = None,
    timeout_seconds: Optional[float] = None,
    metrics_dir: Optional[str] = None,
    jobs: int = 1,
) -> BenchReport:
    """Run the harness and return the report.

    ``benchmarks`` optionally restricts the suite to the named entries
    (used by the fast unit tests); ``progress`` receives one line per
    completed (benchmark, experiment) pair.

    ``trace_dir`` attaches a bounded-memory telemetry sink
    (:class:`repro.trace.histogram.HistogramSink`) to every run and
    writes ``trace_summary.json`` (per-run distributions and phase
    times) plus ``trace_spans.json`` (a Chrome/Perfetto view of the
    phase spans) into that directory.  Sinks observe without steering,
    so every deterministic counter in the returned report is identical
    to an untraced run; only wall times carry the (small) observation
    cost, which is why traced reports should not be promoted to timing
    baselines.

    ``timeout_seconds`` bounds the *whole suite run* by wall clock: one
    absolute deadline is passed to every (benchmark, experiment) task,
    whose remaining allowance becomes the solve's
    :class:`~repro.resilience.budget.SolveBudget` deadline, so even a
    single hung closure cannot stall the job.  The first task, in
    submission order, that starts after the deadline or runs into it
    raises :class:`BenchTimeoutError`.  Deterministic counters are
    unaffected by the budget machinery; wall times carry a small
    polling cost, so timeout-bounded reports should not be promoted to
    timing baselines either.

    ``metrics_dir`` attaches a :class:`repro.metrics.sink.MetricsSink`
    (labeled with the suite, benchmark, form and mode of every run) and
    writes ``metrics.json`` (a loadable snapshot) and ``metrics.prom``
    (Prometheus text exposition) into that directory after the suite
    completes.  The same observe-don't-steer contract applies: counters
    in the report are unchanged, wall times carry the observation cost.

    ``jobs`` is the number of worker processes
    (:func:`repro.parallel.map_tasks`: 1 runs in this process, ``<= 0``
    means one per core).  Every task returns its record, telemetry and
    metrics snapshot, and they merge in submission order whatever
    ``jobs`` is, so the report's deterministic fields and artifacts do
    not depend on it; only ``wall_times`` / ``median_seconds`` /
    ``timestamp`` and ``*_seconds`` samples differ.
    """
    labels = list(experiments) if experiments else list(EXPERIMENT_LABELS)
    deadline = (
        None if timeout_seconds is None
        else time.monotonic() + timeout_seconds
    )
    payloads = [
        {
            "suite": suite_name,
            "benchmark": bench.name,
            "experiment": label,
            "seed": seed,
            "repeats": repeats,
            "trace": trace_dir is not None,
            "metrics": metrics_dir is not None,
            "deadline": deadline,
        }
        for bench in _select_benchmarks(suite_name, benchmarks)
        for label in labels
    ]
    registry = None
    if metrics_dir is not None:
        from ..metrics.registry import MetricsRegistry

        registry = MetricsRegistry()
    telemetry: List[tuple] = []
    records: List[BenchRecord] = []
    for payload, result in zip(payloads,
                               map_tasks(bench_task, payloads, jobs)):
        name, label = payload["benchmark"], payload["experiment"]
        if result["status"] == "timeout":
            raise BenchTimeoutError(
                f"suite {suite_name!r} exceeded its "
                f"{timeout_seconds:.0f}s timeout inside "
                f"{name}/{label}: {result['detail']}",
                completed=len(records),
            )
        record = BenchRecord(
            benchmark=name,
            experiment=label,
            counters=result["counters"],
            wall_times=result["wall_times"],
        )
        records.append(record)
        if result["telemetry"] is not None:
            telemetry.append((name, label, result["telemetry"]["summary"],
                              result["telemetry"]["spans"]))
        if registry is not None:
            registry.load_snapshot(result["metrics"])
        if progress is not None:
            progress(
                f"{name:<14} {label:<10} "
                f"work={record.work:>9} "
                f"median={record.median_seconds * 1000:8.1f}ms"
            )
    report = BenchReport(
        suite=suite_name,
        seed=seed,
        repeats=repeats,
        experiments=labels,
        records=records,
    )
    if trace_dir is not None:
        _write_trace_outputs(report, telemetry, trace_dir)
    if registry is not None:
        _write_metrics_outputs(report, registry, metrics_dir)
    return report


def _select_benchmarks(suite_name: str,
                       benchmarks: Optional[Iterable[str]]) -> list:
    """The suite's benchmark list, optionally restricted by name."""
    selected = suite(suite_name)
    if benchmarks is not None:
        wanted = set(benchmarks)
        selected = [bench for bench in selected if bench.name in wanted]
        missing = wanted - {bench.name for bench in selected}
        if missing:
            raise KeyError(
                f"benchmarks not in suite {suite_name!r}: {sorted(missing)}"
            )
    return selected


def _write_metrics_outputs(report: BenchReport, registry,
                           metrics_dir: str) -> None:
    """Write the --metrics artifacts: snapshot JSON + exposition text."""
    os.makedirs(metrics_dir, exist_ok=True)
    registry.flush_to(
        os.path.join(metrics_dir, "metrics.json"),
        meta={
            "suite": report.suite,
            "seed": report.seed,
            "repeats": report.repeats,
            "git_sha": report.git_sha,
            "timestamp": report.timestamp,
        },
    )
    prom_path = os.path.join(metrics_dir, "metrics.prom")
    with open(prom_path, "w", encoding="utf-8") as handle:
        handle.write(registry.expose())


def _write_trace_outputs(report: BenchReport, telemetry: List[tuple],
                         trace_dir: str) -> None:
    """Write the --trace artifacts: telemetry summary + Chrome spans.

    ``telemetry`` holds ``(benchmark, experiment, summary, spans)``
    tuples — serialized sink state returned by each task.  Span times
    are ``perf_counter`` readings, which on this platform are
    CLOCK_MONOTONIC and therefore comparable across processes.
    """
    import json

    from ..trace.chrome import chrome_document, spans_to_chrome, write_chrome

    os.makedirs(trace_dir, exist_ok=True)
    summary = {
        "suite": report.suite,
        "seed": report.seed,
        "repeats": report.repeats,
        "runs": [
            {"benchmark": name, "experiment": label,
             "telemetry": run_summary}
            for name, label, run_summary, _ in telemetry
        ],
    }
    summary_path = os.path.join(trace_dir, "trace_summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    all_spans = [
        span for _, _, _, spans in telemetry for span in spans
    ]
    origin = min((span[1] for span in all_spans), default=0.0)
    events: List[dict] = []
    for tid, (name, label, _, spans) in enumerate(telemetry, start=1):
        events.extend(spans_to_chrome(
            spans,
            pid=1,
            tid=tid,
            process_name=f"repro.bench suite={report.suite}",
            thread_name=f"{name} {label}",
            time_origin=origin,
            args={"benchmark": name, "experiment": label},
        ))
    write_chrome(
        chrome_document(events, {"suite": report.suite,
                                 "seed": report.seed}),
        os.path.join(trace_dir, "trace_spans.json"),
    )


def render_report(report: BenchReport) -> str:
    """A compact human-readable table of one report."""
    lines = [
        f"suite={report.suite} seed={report.seed} repeats={report.repeats} "
        f"python={report.python_version}",
        f"{'benchmark':<14} {'experiment':<10} {'work':>10} "
        f"{'median_ms':>10}",
    ]
    for record in report.records:
        lines.append(
            f"{record.benchmark:<14} {record.experiment:<10} "
            f"{record.work:>10} {record.median_seconds * 1000:>10.1f}"
        )
    lines.append(
        f"total median wall time: {report.total_median_seconds:.3f}s"
    )
    return "\n".join(lines)


def suite_results(which: str = "medium", seed: int = 0, repeats: int = 1):
    """Construct the experiment runner used by the benchmark scripts.

    The pytest benchmark scripts under ``benchmarks/`` build their
    shared :class:`~repro.experiments.SuiteResults` through this hook so
    table/figure reproduction and regression tracking enter the same
    measurement path (``SuiteResults`` itself times runs via
    :func:`repro.bench.measure.measure_system`).
    """
    from ..experiments.runner import SuiteResults

    return SuiteResults.for_suite(which, seed=seed, repeats=repeats)


def bench_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The table/figure harnesses time full analysis runs (seconds);
    repeated rounds would multiply the suite cost for no statistical
    benefit — regression tracking of solver time lives in
    :func:`run_bench`, not in pytest-benchmark statistics.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
