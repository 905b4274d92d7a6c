"""Command-line entry point: ``python -m repro.trace``.

Typical uses::

    # Traced medium-suite run: empirical mean partial-search visits
    # and per-representation detection rates checked against the
    # paper (Theorem 5.2, Figure 11), distributions, and a
    # Perfetto-loadable span trace.
    python -m repro.trace --suite medium --chrome trace.json

    # CI smoke: quick suite, machine-readable summary, and a check that
    # tracing left the work counters identical to the bench baseline.
    python -m repro.trace report --suite quick --json report.json \
        --check-baseline benchmarks/BASELINE.json

    # Full event log of one run (every edge attempt, search visit,
    # collapse), plus a Chrome view of it.
    python -m repro.trace record --benchmark compress --experiment IF-Online \
        --out compress.jsonl --chrome compress.trace.json

    # Convert a saved JSONL log later.
    python -m repro.trace convert compress.jsonl compress.trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .chrome import convert_jsonl, write_chrome
from .report import DEFAULT_EXPERIMENTS, trace_suite
from .sinks import JsonlSink


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="solver event tracing, profiling, and telemetry",
    )
    sub = parser.add_subparsers(dest="command")

    report = sub.add_parser(
        "report",
        help="traced suite run with aggregate telemetry (the default)",
    )
    report.add_argument(
        "--suite", default="medium", choices=("quick", "medium", "full"),
        help="workload suite to trace (default: medium)",
    )
    report.add_argument("--seed", type=int, default=0,
                        help="variable-order seed (default 0)")
    report.add_argument(
        "--experiments", nargs="+", metavar="LABEL",
        default=list(DEFAULT_EXPERIMENTS),
        help="experiment labels to trace (default: SF-Online IF-Online)",
    )
    report.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        help="restrict the suite to these benchmarks",
    )
    report.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="write per-run phase spans as a Chrome/Perfetto trace",
    )
    report.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full report (counters + telemetry) as JSON",
    )
    report.add_argument(
        "--check-baseline", metavar="PATH", default=None,
        help="verify traced work counters match this repro.bench "
             "baseline (proves tracing does not perturb counted work)",
    )

    record = sub.add_parser(
        "record",
        help="full JSONL event log of one benchmark run",
    )
    record.add_argument("--benchmark", required=True, metavar="NAME")
    record.add_argument(
        "--experiment", default="IF-Online", metavar="LABEL",
        help="experiment configuration (default: IF-Online)",
    )
    record.add_argument(
        "--suite", default="medium", choices=("quick", "medium", "full"),
        help="suite to look the benchmark up in (default: medium)",
    )
    record.add_argument("--seed", type=int, default=0)
    record.add_argument(
        "--out", required=True, metavar="PATH",
        help="JSONL output path",
    )
    record.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="also write a Chrome/Perfetto view of the recording",
    )
    record.add_argument(
        "--max-instants", type=int, default=None, metavar="N",
        help="downsample high-frequency instants in the Chrome view",
    )

    convert = sub.add_parser(
        "convert", help="convert a JSONL event log to a Chrome trace",
    )
    convert.add_argument("jsonl", help="input JSONL trace")
    convert.add_argument("out", help="output Chrome trace JSON")
    convert.add_argument(
        "--max-instants", type=int, default=None, metavar="N",
        help="downsample high-frequency instants",
    )
    return parser


def _check_baseline(report, baseline_path: str) -> int:
    """Compare traced runs' work counters against a bench baseline.

    Only (benchmark, experiment) pairs present in both are compared —
    the baseline covers all six configurations of its own suite; the
    trace report covers the experiments it was asked to run.  Equal
    counters demonstrate the acceptance property: attaching telemetry
    sinks does not change any counted work.
    """
    from ..bench.baseline import BaselineError, load_report

    try:
        baseline = load_report(baseline_path)
    except BaselineError as error:
        print(f"baseline check failed: {error}", file=sys.stderr)
        return 2
    baseline_key = baseline.key()
    compared = 0
    mismatches: List[str] = []
    for run in report.runs:
        record = baseline_key.get((run.benchmark, run.experiment))
        if record is None:
            continue
        compared += 1
        counters = run.stats.as_dict()
        for name, expected in record.counters.items():
            actual = counters.get(name)
            if actual != expected:
                mismatches.append(
                    f"{run.benchmark}/{run.experiment}: {name} "
                    f"traced={actual} baseline={expected}"
                )
    if report.suite != baseline.suite or report.seed != baseline.seed:
        print(
            f"baseline check: note baseline is suite={baseline.suite} "
            f"seed={baseline.seed}; traced suite={report.suite} "
            f"seed={report.seed}",
        )
    if not compared:
        print(
            "baseline check failed: no (benchmark, experiment) overlap "
            f"with {baseline_path}", file=sys.stderr,
        )
        return 2
    if mismatches:
        print(
            f"baseline check FAILED: traced counters diverge from "
            f"{baseline_path}:", file=sys.stderr,
        )
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(
        f"baseline check OK: {compared} traced runs match the work "
        f"counters in {baseline_path}"
    )
    return 0


def _cmd_report(args) -> int:
    try:
        report = trace_suite(
            suite_name=args.suite,
            experiments=args.experiments,
            seed=args.seed,
            benchmarks=args.benchmarks,
            progress=lambda line: print(line, flush=True),
        )
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    print()
    print(report.render())
    if args.chrome:
        write_chrome(report.chrome_trace(), args.chrome)
        print(f"\nwrote Chrome trace {args.chrome}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote report JSON {args.json}")
    if args.check_baseline:
        print()
        return _check_baseline(report, args.check_baseline)
    return 0


def _cmd_record(args) -> int:
    from ..experiments.config import options_for
    from ..solver import solve
    from ..workloads import suite

    bench = None
    for candidate in suite(args.suite):
        if candidate.name == args.benchmark:
            bench = candidate
            break
    if bench is None:
        names = sorted(b.name for b in suite(args.suite))
        print(
            f"error: benchmark {args.benchmark!r} not in suite "
            f"{args.suite!r} (have: {', '.join(names)})",
            file=sys.stderr,
        )
        return 2
    try:
        options = options_for(args.experiment, seed=args.seed)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    sink = JsonlSink(args.out)
    try:
        solution = solve(
            bench.program.system, options.replace(sink=sink)
        )
    finally:
        sink.close()
    stats = solution.stats
    print(
        f"recorded {bench.name} {args.experiment} -> {args.out}\n"
        f"work={stats.work} searches={stats.cycle_searches} "
        f"visits/search={stats.mean_search_visits:.2f} "
        f"eliminated={stats.vars_eliminated}"
    )
    if args.chrome:
        document = convert_jsonl(
            args.out, args.chrome, max_instants=args.max_instants
        )
        print(
            f"wrote Chrome trace {args.chrome} "
            f"({len(document['traceEvents'])} events)"
        )
    return 0


def _cmd_convert(args) -> int:
    try:
        document = convert_jsonl(
            args.jsonl, args.out, max_instants=args.max_instants
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    dropped = document["otherData"].get("dropped_instants", {})
    suffix = (
        f" (dropped {sum(dropped.values())} instants)" if dropped else ""
    )
    print(
        f"wrote {args.out} ({len(document['traceEvents'])} "
        f"events){suffix}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # `report` is the default subcommand: a bare invocation (or one that
    # starts straight with report options) gets it prepended.  Top-level
    # --help still reaches the main parser.
    known = {"report", "record", "convert"}
    if not (argv and argv[0] in known) and "-h" not in argv \
            and "--help" not in argv:
        argv = ["report", *argv]
    args = _build_parser().parse_args(argv)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "record":
        return _cmd_record(args)
    return _cmd_convert(args)


if __name__ == "__main__":
    sys.exit(main())
