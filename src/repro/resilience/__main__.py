"""Command-line entry point: ``python -m repro.resilience``.

Two subcommands::

    # Differential fuzzing (the CI fuzz-smoke job):
    python -m repro.resilience fuzz --systems 200 --seed 0

    # Audit graph invariants while solving a workload suite:
    python -m repro.resilience audit --suite quick --audit stride-1000

``fuzz`` exits nonzero if any cross-config disagreement is found (each
is shrunk and saved under ``tests/fuzz_corpus/`` by default); ``audit``
exits nonzero if any solve violates the paper's graph invariants.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional

from ..experiments.config import EXPERIMENT_LABELS
from .errors import GraphInvariantError
from .fuzz import DEFAULT_CORPUS_DIR, run_fuzz


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="solver resilience tools: differential fuzzing and "
                    "graph-invariant auditing",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fuzz = commands.add_parser(
        "fuzz", help="differentially fuzz the six configurations "
                     "against the reference solver",
    )
    fuzz.add_argument("--systems", type=int, default=200, metavar="N",
                      help="number of random systems (default 200)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="base seed for the system stream (default 0)")
    fuzz.add_argument(
        "--experiments", nargs="+", metavar="LABEL", default=None,
        choices=EXPERIMENT_LABELS,
        help="subset of Table-4 labels (default: all six)",
    )
    fuzz.add_argument(
        "--corpus-dir", default=DEFAULT_CORPUS_DIR, metavar="DIR",
        help=f"where shrunk reproducers are saved "
             f"(default {DEFAULT_CORPUS_DIR})",
    )
    fuzz.add_argument("--no-save", action="store_true",
                      help="report disagreements without writing files")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip ddmin shrinking of disagreements")
    fuzz.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard the index range across N worker processes "
             "(0 = one per core; default 1 = serial); results and "
             "corpus files are identical to a serial run",
    )

    audit = commands.add_parser(
        "audit", help="solve a workload suite with the graph-invariant "
                      "auditor enabled",
    )
    audit.add_argument(
        "--suite", default="quick", choices=("quick", "medium", "full"),
        help="workload suite to audit (default quick)",
    )
    audit.add_argument(
        "--benchmark", default=None, metavar="NAME",
        help="restrict to one benchmark of the suite",
    )
    audit.add_argument(
        "--experiments", nargs="+", metavar="LABEL", default=None,
        choices=EXPERIMENT_LABELS,
        help="subset of Table-4 labels (default: all six)",
    )
    audit.add_argument(
        "--audit", default="final", metavar="MODE", dest="audit_mode",
        help='audit mode: "final" or "stride-N" (default final)',
    )
    audit.add_argument("--seed", type=int, default=0,
                       help="variable-order seed (default 0)")
    return parser


def _cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        disagreements = run_fuzz(
            count=args.systems,
            seed=args.seed,
            labels=args.experiments,
            corpus_dir=None if args.no_save else args.corpus_dir,
            shrink=not args.no_shrink,
            progress=lambda line: print(line, flush=True),
            jobs=args.jobs,
        )
    except BrokenProcessPool as error:
        print(f"parallel fuzz failed: {error}", file=sys.stderr)
        return 2
    if disagreements:
        print(f"\n{len(disagreements)} disagreement(s) in "
              f"{args.systems} systems:", file=sys.stderr)
        for disagreement in disagreements:
            print(f"  {disagreement}", file=sys.stderr)
        return 1
    print(f"{args.systems} systems, all configurations agree "
          f"with the reference solver")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from ..experiments.config import options_for
    from ..solver import solve
    from ..workloads import suite

    benches = suite(args.suite)
    if args.benchmark is not None:
        benches = [b for b in benches if b.name == args.benchmark]
        if not benches:
            print(f"error: no benchmark {args.benchmark!r} in suite "
                  f"{args.suite!r}", file=sys.stderr)
            return 2
    labels = args.experiments or EXPERIMENT_LABELS
    failed = 0
    for bench in benches:
        system = bench.program.system
        for label in labels:
            options = options_for(
                label, seed=args.seed, audit=args.audit_mode
            )
            try:
                solution = solve(system, options)
            except GraphInvariantError as error:
                failed += 1
                print(f"{bench.name:<14} {label:<10} FAILED: {error}",
                      file=sys.stderr)
                continue
            print(f"{bench.name:<14} {label:<10} ok "
                  f"(work={solution.stats.work}, "
                  f"audit={args.audit_mode})")
    if failed:
        print(f"\n{failed} audit failure(s)", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fuzz":
        return _cmd_fuzz(args)
    return _cmd_audit(args)


if __name__ == "__main__":
    sys.exit(main())
