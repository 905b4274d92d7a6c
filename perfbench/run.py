"""Run the repository benchmark.

One workload, in this process::

    python3 perfbench/run.py --workload table4-medium-noli --seed 0 \
        --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
makes a separate traced run and reports the per-layer metrics, prints
self time per layer and writes a Chrome trace under ``perfbench/out/``.

Without ``--workload`` every workload runs, each in a fresh process,
one after the other.  Work counts depend on ``set`` iteration order, so
the benchmark re-executes itself under ``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("andersen-medium", "table4-medium-noli",
                  "incremental-medium", "observed-medium")
CONFIGS = ("SF-Plain", "IF-Plain", "SF-Oracle", "IF-Oracle", "SF-Online",
           "IF-Online")
#: set-up runs per benchmark run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: passes per benchmark run at least; every timed unit reports its
#: median over the passes
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_rate", "frac"),
    ("add_p50_us", "us"),
    ("add_p99_us", "us"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
)

PER_LAYER = (
    [
        ("workloads.generate_s", "s"),
        ("workloads.source_lines", "count"),
        ("cfront.lex_s", "s"),
        ("cfront.parse_s", "s"),
        ("cfront.tokens", "count"),
        ("cfront.ast_nodes", "count"),
        ("andersen.constraints_s", "s"),
        ("andersen.constraints", "count"),
        ("andersen.vars", "count"),
        ("andersen.pointsto_s", "s"),
        ("andersen.pointsto_edges", "count"),
        ("constraints.validate_s", "s"),
    ]
    + [(f"solver.{metric}.{label}", "s")
       for metric in ("solve_s", "closure_s", "least_solution_s",
                      "unreported_s", "finalize_s")
       for label in CONFIGS]
    + [("solver.oracle_phase1_s.SF", "s"),
       ("solver.oracle_phase1_s.IF", "s"),
       ("solver.add_s", "s"),
       ("solver.query_s", "s")]
    + [(f"graph.{metric}.{label}", unit)
       for metric, unit in (("work", "count"), ("edge_yield", "frac"),
                            ("final_edges", "count"),
                            ("search_visits_mean", "count"),
                            ("search_hit_rate", "frac"),
                            ("vars_eliminated", "count"))
       for label in CONFIGS]
    + [("graph.fig11_detect.SF", "frac"),
       ("graph.fig11_detect.IF", "frac"),
       ("metrics.overhead_frac", "frac"),
       ("metrics.expose_s", "s"),
       ("trace.overhead_frac", "frac")]
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload here (default: all, each "
                             "in a fresh process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 is the default; 7 is the "
                             "held-out seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes for about this long "
                             f"(at least {MIN_PASSES} passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def unit_medians(results, attribute: str) -> list:
    """Each timed unit's median over the passes of one run, in
    reference seconds (see ``speed.py``)."""
    timings = [result.scaled(attribute) for result in results]
    return [statistics.median(timing[unit] for timing in timings)
            for unit in timings[0]]


def reference_wall(result) -> float:
    """One pass's timed work in reference seconds."""
    return sum(result.scaled("units").values())


def end_to_end_metrics(setup_times, results, checks) -> dict:
    adds = unit_medians(results, "adds")
    queries = unit_medians(results, "queries")
    passed = 1.0 - checks.failed / max(1, checks.attempted)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(unit_medians(results, "units")),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_rate": passed,
        "add_p50_us": percentile(adds, 50) * 1e6,
        "add_p99_us": percentile(adds, 99) * 1e6,
        "query_p50_ms": percentile(queries, 50) * 1e3,
        "query_p90_ms": percentile(queries, 90) * 1e3,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(result, spans, tracer_tokens, setup_spans,
                      setup_factor, source_lines, untraced, untraced_wall,
                      bare) -> dict:
    """Per-layer metrics of one traced pass; seconds are reference
    seconds, like the end-to-end ones."""
    from tracing import durations, oracle_phase1_seconds, self_times

    own = self_times(spans)

    def self_of(name):
        return max(0.0, own.get(name, 0.0))

    values = {
        "workloads.generate_s":
            durations(setup_spans, "workloads.generate_program"),
        "workloads.source_lines": source_lines,
        "cfront.lex_s": self_of("cfront.tokenize"),
        "cfront.parse_s": self_of("cfront.parse"),
        "cfront.tokens": tracer_tokens,
        "andersen.constraints_s": self_of("andersen.analyze_unit"),
        "andersen.pointsto_s": self_of("andersen.pointsto"),
        "constraints.validate_s": self_of("constraints.validate"),
        "solver.add_s": durations(spans, "solver.add"),
        "solver.query_s": durations(spans, "solver.query"),
        "metrics.expose_s": (durations(spans, "metrics.expose")
                             + durations(spans, "metrics.snapshot")),
        "trace.overhead_frac": reference_wall(result) / untraced_wall - 1.0,
        "metrics.overhead_frac": 0.0,
    }
    for name in ("cfront.ast_nodes", "andersen.constraints", "andersen.vars",
                 "andersen.pointsto_edges"):
        values[name] = result.counts.get(name, 0)
    for label in CONFIGS:
        stats = result.stats.get(label, [])
        solve_s = result.solve_seconds.get(label, 0.0)
        closure = sum(s.closure_seconds for s in stats)
        least = sum(s.least_solution_seconds for s in stats)
        work = sum(s.work for s in stats)
        wasted = sum(s.redundant + s.self_edges for s in stats)
        searches = sum(s.cycle_searches for s in stats)
        values.update({
            f"solver.solve_s.{label}": solve_s,
            f"solver.closure_s.{label}": closure,
            f"solver.least_solution_s.{label}": least,
            f"solver.unreported_s.{label}":
                solve_s - closure - least if solve_s else 0.0,
            f"solver.finalize_s.{label}":
                durations(spans, f"solver.finalize:{label}"),
            f"graph.work.{label}": work,
            f"graph.edge_yield.{label}": 1.0 - wasted / work if work else 0.0,
            f"graph.final_edges.{label}": sum(s.final_edges for s in stats),
            f"graph.search_visits_mean.{label}":
                sum(s.cycle_search_visits for s in stats) / searches
                if searches else 0.0,
            f"graph.search_hit_rate.{label}":
                sum(s.cycles_found for s in stats) / searches
                if searches else 0.0,
            f"graph.vars_eliminated.{label}":
                sum(s.vars_eliminated for s in stats),
        })
    for form in ("SF", "IF"):
        values[f"solver.oracle_phase1_s.{form}"] = oracle_phase1_seconds(
            spans, f"{form}-Oracle")
    values.update(figure11_detection(result))
    if bare is not None:
        values["metrics.overhead_frac"] = (
            sum(untraced.solve_seconds.values()) * untraced.speed.factor
            / (sum(bare.solve_seconds.values()) * bare.speed.factor) - 1.0
        )
    for name, unit in PER_LAYER:
        if unit == "s":
            values[name] *= result.speed.factor
    values["workloads.generate_s"] *= setup_factor / result.speed.factor
    return values


def figure11_detection(result) -> dict:
    """Mean per-program fraction of final-SCC variables eliminated
    online, over programs where either form eliminates any, as
    ``repro.experiments.figures.figure11_averages`` computes it."""
    rows = []
    online = {label: result.stats.get(label, []) for label in
              ("SF-Online", "IF-Online")}
    for index, scc_vars in enumerate(result.scc_vars.values()):
        if scc_vars == 0:
            continue
        rows.append(tuple(online[f"{form}-Online"][index].vars_eliminated
                          / scc_vars for form in ("SF", "IF")))
    rows = [row for row in rows if row[0] or row[1]]
    return {
        f"graph.fig11_detect.{form}":
            sum(row[i] for row in rows) / len(rows) if rows else 0.0
        for i, form in enumerate(("SF", "IF"))
    }


def run_workload(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from checks import Checks
    from repro.bench.harness import detect_git_sha
    from speed import SpeedProbe
    from tracing import Tracer, layer_self_times, write_chrome_trace
    from workloads import WORKLOADS

    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, ROOT, checks)
    meta = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "hash_seed": os.environ["PYTHONHASHSEED"],
            "git_sha": detect_git_sha(), "python": sys.version.split()[0]}
    print("# " + json.dumps(meta), flush=True)

    if args.trace:
        setup_tracer = Tracer(True)
        probe = SpeedProbe()
        state = workload.setup(setup_tracer)
        probe.sample(force=True)
        freeze_setup()
        workload.prepare_checks(state)
        gc.collect()
        warmup = workload.run_pass(state, Tracer(False))
        gc.collect()
        untraced = workload.run_pass(state, Tracer(False))
        bare = None
        if args.workload == "observed-medium":
            gc.collect()
            bare = workload.run_pass(state, Tracer(False), observed=False)
        gc.collect()
        with Tracer(True) as tracer:
            traced = workload.run_pass(state, tracer)
        # The first pass in a fresh process ran up to 40 % slower than
        # later ones; the lesser of two untraced passes is the untraced
        # time.
        untraced_wall = min(reference_wall(warmup), reference_wall(untraced))
        values = per_layer_metrics(
            traced, tracer.spans, tracer.tokens, setup_tracer.spans,
            probe.factor, workload.source_lines, untraced, untraced_wall,
            bare,
        )
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
        report_layers(layer_self_times(tracer.spans), traced, untraced_wall)
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
        write_chrome_trace(tracer.spans, stem + ".trace.json", meta)
        compare_counters(checks, warmup, untraced)
        compare_counters(checks, warmup, traced)
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            state = None
            gc.collect()
            probe = SpeedProbe()
            began = time.perf_counter()
            state = workload.setup(Tracer(False))
            setup_times.append(time.perf_counter() - began)
            probe.sample(force=True)
            setup_times[-1] *= probe.factor
        freeze_setup()
        workload.prepare_checks(state)
        results = []
        started = time.perf_counter()
        while True:
            gc.collect()
            began = time.perf_counter()
            results.append(workload.run_pass(state, Tracer(False)))
            spent = time.perf_counter() - started
            compare_counters(checks, results[0], results[-1])
            if (len(results) >= MIN_PASSES and spent
                    + (time.perf_counter() - began) > args.seconds):
                break
        metrics = end_to_end_metrics(setup_times, results, checks)
        print(f"# passes={len(results)} walls="
              + ",".join(f"{r.wall:.3f}" for r in results)
              + " speed factors="
              + ",".join(f"{r.speed.factor:.3f}" for r in results))
        stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}")

    for failure in checks.failures:
        print(f"FAILED {failure}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}")
    line = {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(stem + f"-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(dict(meta, **line), handle, indent=1)
    print(json.dumps(line), flush=True)
    return 0 if checks.failed == 0 else 1


def freeze_setup() -> None:
    """Move the set-up state out of the collector's view.

    Passes keep the inputs alive throughout; scanning them in every
    full collection made a unit's time depend on where collections fell.
    """
    gc.collect()
    gc.freeze()


def compare_counters(checks, first, later) -> None:
    """Deterministic counters must repeat exactly across passes."""
    if later is first:
        return
    for key, counters in later.counters.items():
        checks.equal(counters, first.counters.get(key),
                     f"{key[0]}/{key[1]} counters repeat across passes")


def report_layers(layers, traced, untraced_wall) -> None:
    """Print self time per layer of the traced pass, in reference
    seconds."""
    factor = traced.speed.factor
    print(f"# self time by layer (traced pass {reference_wall(traced):.3f}s,"
          f" untraced {untraced_wall:.3f}s, reference seconds)")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:28s} {seconds * factor:10.3f}s "
              f"{seconds / traced.wall:7.1%}")


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace",
                   str(args.trace)]
        print(f"== {name}", flush=True)
        completed = subprocess.run(command, check=False)
        status = status or completed.returncode
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv, env)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
