"""Command-line entry point: ``python -m repro.metrics``.

Typical uses::

    # Validate a Prometheus text dump (as written by
    # `python -m repro.bench --metrics DIR`).
    python -m repro.metrics check metrics-out/metrics.prom

    # Build the benchmark-trajectory dashboard from the committed
    # baseline plus fresh BENCH reports and metric snapshots.
    python -m repro.metrics dashboard \
        --baseline benchmarks/BASELINE.json \
        --reports BENCH_1.json BENCH_2.json \
        --snapshots metrics-out/metrics.json --out dashboard.html
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .dashboard import build_dashboard
from .exposition import validate_exposition


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics",
        description="aggregated solver metrics: exposition format "
                    "checker and benchmark dashboard",
    )
    sub = parser.add_subparsers(dest="command")

    check = sub.add_parser(
        "check", help="validate Prometheus text exposition format",
    )
    check.add_argument(
        "path", help="file of exposition text ('-' for stdin)",
    )

    dashboard = sub.add_parser(
        "dashboard", help="build the benchmark-trajectory dashboard",
    )
    dashboard.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="committed baseline report "
             "(e.g. benchmarks/BASELINE.json)",
    )
    dashboard.add_argument(
        "--reports", nargs="*", metavar="PATH", default=[],
        help="BENCH_<n>.json reports to include, oldest first "
             "(schema-v2 timestamps reorder them automatically)",
    )
    dashboard.add_argument(
        "--snapshots", nargs="*", metavar="PATH", default=[],
        help="repro.metrics snapshot JSONs to summarize",
    )
    dashboard.add_argument(
        "--out", required=True, metavar="PATH",
        help="output HTML file",
    )
    dashboard.add_argument(
        "--title", default="repro benchmark trajectory",
        help="dashboard title",
    )
    dashboard.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit nonzero if any work-count regression is flagged",
    )
    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    errors = validate_exposition(text)
    if errors:
        for error in errors:
            print(f"INVALID {error}", file=sys.stderr)
        return 1
    samples = sum(
        1 for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )
    print(f"ok: valid exposition format ({samples} samples)")
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    if not args.baseline and not args.reports:
        print("error: need --baseline and/or --reports",
              file=sys.stderr)
        return 2
    data = build_dashboard(
        args.baseline,
        args.reports,
        args.out,
        snapshot_paths=args.snapshots,
        title=args.title,
    )
    print(f"wrote {args.out} ({len(data.points)} report(s), "
          f"{len(data.flags)} regression flag(s))")
    for flag in data.flags:
        print(f"REGRESSION {flag}")
    for note in data.notes:
        print(f"note: {note}")
    if args.fail_on_regression and data.flags:
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
