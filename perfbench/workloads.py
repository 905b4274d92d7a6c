"""The four benchmark workloads.

Each workload has a ``setup`` (input generation and prebuilding, timed
as ``setup_s``) and a ``run_pass`` that does one pass of user-visible
work.  A pass times only its work segments; checking answers happens
between segments, outside the timed region.

Why these four:

* ``andersen-medium`` is what an analysis user runs: C source to
  points-to graph.  The frontend is most of it, so it is the only
  workload a ``cfront``/``andersen`` change moves.
* ``table4-medium-noli`` is the paper's reproduction path: all six
  Table-4 configurations, almost all solver time (Plain, both Oracle
  phases), with no frontend work.
* ``incremental-medium`` interleaves writes and reads on one
  ``IncrementalSolver``; each query after an ``add`` recomputes the least
  solution, so closure and least-solution cost trade off here.
* ``observed-medium`` is the only workload where the ``repro.trace`` and
  ``repro.metrics`` sinks do work.

Inputs are the canonical suite programs at variable-order seed 0, whose
counters ``benchmarks/BASELINE.json`` pins.  The workload seed sets the
order in which a pass visits the programs and, on
``incremental-medium``, the queried variables and prefix cut points.
"""

from __future__ import annotations

import gc
import json
import random
import time
from types import SimpleNamespace
from typing import Dict, List, Tuple

from checks import Checks, load_baseline, load_reference, pointsto_digest
from repro.andersen import PointsToResult, analyze_unit
from repro.bench.measure import counters_of
from repro.cfront import parse
from repro.constraints.expressions import Term, Var
from repro.experiments.config import EXPERIMENT_LABELS, options_for
from repro.metrics import MetricsRegistry, MetricsSink, validate_exposition
from repro.solver import IncrementalSolver, solve, solve_reference
from repro.trace.histogram import HistogramSink
from repro.trace.sinks import combine
from repro.workloads.generator import generate_program
from repro.workloads.suite import MEDIUM_SUITE
from speed import SpeedProbe
from tracing import Tracer

OBSERVED_CONFIGS = ("SF-Plain", "SF-Online", "IF-Online")
#: li alone took 60 % of a six-config medium pass; without it a pass is
#: short enough for several passes per run
TABLE4_SUITE = tuple(config for config in MEDIUM_SUITE
                     if config.name != "li")
#: ``incremental-medium`` queries a least solution after every Nth add
QUERY_EVERY = 10
#: prefix cut points per ``incremental-medium`` pass, checked against
#: the reference solver on the prefix system
PREFIX_CHECKS = 3
#: prefix cut points are drawn from programs at most this large, which
#: bounds the reference solve each one costs to a fraction of a second
PREFIX_MAX_VARS = 3000

perf_counter = time.perf_counter


def solver_options(label: str):
    """Options for one Table-4 label at variable-order seed 0.

    Every pass validates each system once through
    ``ConstraintSystem.validate``, so solves skip their own validation.
    """
    return options_for(label, seed=0, validate=False)


class PassResult:
    """What one pass did: timed units, latencies, per-config statistics.

    Timings are keyed by unit (a program, a program and config, an add
    position) so that a run can take each unit's median over passes.
    """

    def __init__(self) -> None:
        #: unit -> seconds of timed work; their sum is the pass's time
        self.units: Dict[tuple, float] = {}
        #: one write into a solver: an ``IncrementalSolver.add``, or one
        #: whole-system ``solve`` on the batch workloads
        self.adds: Dict[tuple, float] = {}
        #: one read: a ``least_solution`` query, or on the batch
        #: workloads one program's points-to graphs under every config
        #: the pass solves (a single extraction of a small program is
        #: too short to time steadily)
        self.queries: Dict[tuple, float] = {}
        self.solve_seconds: Dict[str, float] = {}
        self.stats: Dict[str, list] = {}
        self.counters: Dict[Tuple[str, str], Dict[str, int]] = {}
        self.counts: Dict[str, int] = {}
        self.scc_vars: Dict[str, int] = {}
        self.speed = SpeedProbe()
        #: timing key -> number of speed samples taken before it ended
        self._marks: Dict[tuple, int] = {}

    @property
    def wall(self) -> float:
        """Measured seconds of the pass's timed work."""
        return sum(self.units.values())

    def segment(self, tracer: Tracer, unit: tuple, began: float,
                ended: float) -> None:
        self.units[unit] = ended - began
        self._marks[unit] = len(self.speed.samples)
        tracer.record("pass", began, ended)
        self.speed.sample()

    def factor(self, key: tuple) -> float:
        """Speed factor for one timing (see ``speed.py``): from the
        samples taken nearest to it, before and after."""
        mark = self._marks[key]
        return self.speed.factor_of(max(0, mark - 2), mark + 2)

    def scaled(self, attribute: str) -> Dict[tuple, float]:
        """``units``, ``adds`` or ``queries`` in reference seconds."""
        return {key: seconds * self.factor(key)
                for key, seconds in getattr(self, attribute).items()}

    def begin(self) -> float:
        """Start a timed unit on a collected heap.

        Collecting between units keeps a unit's time from depending on
        where its predecessors left the collector's counters.
        """
        gc.collect()
        return perf_counter()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def solve(self, tracer: Tracer, unit: tuple, system, label: str,
              options):
        """``repro.solver.solve``, timed as one write."""
        sink = None
        if tracer.enabled:
            sink = HistogramSink(label=label)
            options = options.replace(sink=combine(options.sink, sink))
        began = perf_counter()
        solution = solve(system, options)
        ended = perf_counter()
        tracer.record(f"solver.solve:{label}", began, ended)
        if sink is not None:
            tracer.phase_spans(label, sink)
        self.adds[unit] = ended - began
        self.solve_seconds[label] = (
            self.solve_seconds.get(label, 0.0) + ended - began
        )
        self.stats.setdefault(label, []).append(solution.stats)
        return solution

    def pointsto(self, tracer: Tracer, unit: tuple, program,
                 solution) -> PointsToResult:
        """Extract the whole points-to graph, timed as one read."""
        result = PointsToResult(program, solution)
        began = perf_counter()
        result.graph
        ended = perf_counter()
        tracer.record("andersen.pointsto", began, ended)
        program_unit = unit[:1]
        self.queries[program_unit] = (
            self.queries.get(program_unit, 0.0) + ended - began
        )
        self._marks[program_unit] = len(self.speed.samples)
        return result


class Workload:
    name = ""

    def __init__(self, seed: int, root: str, checks: Checks) -> None:
        self.seed = seed
        self.root = root
        self.checks = checks
        self.reference = load_reference()
        self.source_lines = 0

    def setup(self, tracer: Tracer):
        raise NotImplementedError

    def prepare_checks(self, state) -> None:
        """Untimed check inputs that depend on the seed."""

    def run_pass(self, state, tracer: Tracer) -> PassResult:
        raise NotImplementedError

    def generate_sources(self, tracer: Tracer, configs) -> List[tuple]:
        """Each program's source, in an order drawn from the seed."""
        configs = list(configs)
        random.Random(self.seed).shuffle(configs)
        sources = []
        for config in configs:
            source = tracer.call("workloads.generate_program",
                                 generate_program, config)
            sources.append((config.name, source, source.count("\n") + 1))
        self.source_lines = sum(lines for _, _, lines in sources)
        return sources

    def build_programs(self, tracer: Tracer, configs) -> List[tuple]:
        """Generate, parse and analyze each program (the prebuilt input)."""
        return [
            (name, analyze_unit(parse(source, name), source_lines=lines))
            for name, source, lines in self.generate_sources(tracer, configs)
        ]

    def check_pointsto(self, name: str, result: PointsToResult,
                       what: str) -> str:
        digest = pointsto_digest(result)
        self.checks.equal(digest, self.reference[name]["digest"],
                          f"{name}/{what} points-to vs reference")
        return digest


class AndersenMedium(Workload):
    """Source text to points-to graph, medium suite, IF-Online."""

    name = "andersen-medium"
    label = "IF-Online"

    def setup(self, tracer: Tracer):
        return self.generate_sources(tracer, MEDIUM_SUITE)

    def run_pass(self, sources, tracer: Tracer) -> PassResult:
        result = PassResult()
        options = solver_options(self.label)
        for name, source, lines in sources:
            # Parse the text every pass: workloads.suite.Benchmark caches
            # its unit and program per process, which would time nothing.
            began = result.begin()
            unit = tracer.call("cfront.parse", parse, source, name)
            program = tracer.call("andersen.analyze_unit", analyze_unit,
                                  unit, lines)
            tracer.call("constraints.validate", program.system.validate)
            solution = result.solve(tracer, (name,), program.system,
                                    self.label, options)
            pointsto = result.pointsto(tracer, (name,), program, solution)
            result.segment(tracer, (name,), began, perf_counter())
            self.check_pointsto(name, pointsto, self.label)
            result.counters[(name, self.label)] = counters_of(solution)
            result.count("cfront.ast_nodes", program.ast_nodes)
            result.count("andersen.constraints",
                         len(program.system.constraints))
            result.count("andersen.vars", program.system.num_vars)
            result.count("andersen.pointsto_edges", pointsto.total_edges())
        return result


class Table4MediumNoLi(Workload):
    """All six Table-4 configurations over the medium suite minus li."""

    name = "table4-medium-noli"

    def setup(self, tracer: Tracer):
        return self.build_programs(tracer, TABLE4_SUITE)

    def run_pass(self, programs, tracer: Tracer) -> PassResult:
        result = PassResult()
        baseline = load_baseline(self.root)
        for name, program in programs:
            system = program.system
            began = result.begin()
            tracer.call("constraints.validate", system.validate)
            result.segment(tracer, (name, "validate"), began, perf_counter())
            digests = set()
            for label in EXPERIMENT_LABELS:
                unit = (name, label)
                began = result.begin()
                solution = result.solve(tracer, unit, system, label,
                                        solver_options(label))
                pointsto = result.pointsto(tracer, unit, program, solution)
                result.segment(tracer, unit, began, perf_counter())
                digests.add(self.check_pointsto(name, pointsto, label))
                counters = counters_of(solution)
                result.counters[(name, label)] = counters
                expected = baseline.get((name, label))
                if expected is not None:
                    self.checks.equal(counters, expected,
                                      f"{name}/{label} vs BASELINE.json")
                if tracer.enabled and label == "SF-Oracle":
                    # Phase 1 is a plain run with recorded var-var
                    # edges: Figure 11's final-SCC denominator.
                    result.scc_vars[name] = (solution.oracle_phase1
                                             .final_scc_summary()
                                             .vars_in_cycles)
            self.checks.equal(len(digests), 1,
                              f"{name}: six configs agree")
            result.count("andersen.constraints", len(system.constraints))
            result.count("andersen.vars", system.num_vars)
            result.count("andersen.pointsto_edges", pointsto.total_edges())
        return result


def _translate(expr, variables):
    """Rebuild ``expr`` over another system's variables (same indices)."""
    if isinstance(expr, Var):
        return variables[expr.index]
    return Term(expr.constructor,
                tuple(_translate(arg, variables) for arg in expr.args),
                expr.label)


class IncrementalMedium(Workload):
    """Replay medium-suite constraints into ``IncrementalSolver``."""

    name = "incremental-medium"
    label = "IF-Online"

    def setup(self, tracer: Tracer):
        programs = self.build_programs(tracer, MEDIUM_SUITE)
        rng = random.Random(self.seed)
        queries = {
            name: [rng.randrange(program.system.num_vars)
                   for _ in range(len(program.system.constraints)
                                  // QUERY_EVERY)]
            for name, program in programs
        }
        small = [(name, program) for name, program in programs
                 if program.system.num_vars <= PREFIX_MAX_VARS]
        cuts = {}
        for _ in range(PREFIX_CHECKS):
            name, program = rng.choice(small)
            cuts[(name, rng.randint(1, len(program.system.constraints)))] = (
                program
            )
        return SimpleNamespace(programs=programs, queries=queries, cuts=cuts,
                               prefix_digests={})

    def prepare_checks(self, state) -> None:
        for (name, cut), program in state.cuts.items():
            prefix = SimpleNamespace(
                constraints=program.system.constraints[:cut]
            )
            state.prefix_digests[(name, cut)] = pointsto_digest(
                PointsToResult(program, solve_reference(prefix))
            )

    def run_pass(self, state, tracer: Tracer) -> PassResult:
        result = PassResult()
        checks = self.checks
        options = solver_options(self.label)
        for name, program in state.programs:
            began = result.begin()
            solver = IncrementalSolver(options)
            variables = [solver.fresh_var(var.name)
                         for var in program.system.variables]
            result.segment(tracer, (name, "create"), began, perf_counter())
            constraints = [
                (_translate(left, variables), _translate(right, variables))
                for left, right in program.system.constraints
            ]
            targets = iter(state.queries[name])
            answers: Dict[int, frozenset] = {}
            previous = None
            for position, (left, right) in enumerate(constraints, 1):
                began = perf_counter()
                solver.add(left, right)
                ended = perf_counter()
                unit = (name, position)
                result.segment(tracer, unit, began, ended)
                tracer.record("solver.add", began, ended)
                result.adds[unit] = ended - began
                if position % QUERY_EVERY == 0:
                    var = variables[next(targets)]
                    began = perf_counter()
                    answer = solver.least_solution(var)
                    ended = perf_counter()
                    unit = (name, position, "query")
                    result.segment(tracer, unit, began, ended)
                    tracer.record("solver.query", began, ended)
                    result.queries[unit] = ended - began
                    # Adds only grow least solutions: every answer holds
                    # the earlier answers for the same variable.
                    checks.expect(answer >= answers.get(var.index, answer),
                                  f"{name}@{position}: query not monotone")
                    if previous is not None:
                        checks.expect(
                            solver.least_solution(previous)
                            >= answers[previous.index],
                            f"{name}@{position}: earlier answer shrank",
                        )
                    answers[var.index] = answer
                    previous = var
                if (name, position) in state.cuts:
                    checks.equal(
                        pointsto_digest(PointsToResult(program, solver)),
                        state.prefix_digests[(name, position)],
                        f"{name}: prefix {position} vs reference",
                    )
            self.check_pointsto(name, PointsToResult(program, solver),
                                "incremental")
            result.stats.setdefault(self.label, []).append(solver.stats)
            result.count("andersen.constraints", len(constraints))
            result.count("andersen.vars", len(variables))
        return result


class ObservedMedium(Workload):
    """Three configs solved with trace and metrics sinks attached, as
    ``python -m repro.bench --trace DIR --metrics DIR`` attaches them."""

    name = "observed-medium"

    def setup(self, tracer: Tracer):
        return self.build_programs(tracer, MEDIUM_SUITE)

    def run_pass(self, programs, tracer: Tracer,
                 observed: bool = True) -> PassResult:
        result = PassResult()
        registry = MetricsRegistry()
        work = 0
        for name, program in programs:
            system = program.system
            began = result.begin()
            tracer.call("constraints.validate", system.validate)
            result.segment(tracer, (name, "validate"), began, perf_counter())
            for label in OBSERVED_CONFIGS:
                unit = (name, label)
                began = result.begin()
                options = solver_options(label)
                histogram = None
                if observed:
                    histogram = HistogramSink(label=f"{name}/{label}")
                    options = options.replace(sink=combine(
                        histogram,
                        MetricsSink.for_options(options, registry=registry,
                                                suite="medium",
                                                benchmark=name),
                    ))
                solution = result.solve(tracer, unit, system, label, options)
                pointsto = result.pointsto(tracer, unit, program, solution)
                result.segment(tracer, unit, began, perf_counter())
                self.check_pointsto(name, pointsto, label)
                stats = solution.stats
                work += stats.work
                if histogram is not None:
                    self.checks.equal(
                        (sum(histogram.edge_outcomes.values()),
                         histogram.searches, histogram.search_hits),
                        (stats.work, stats.cycle_searches,
                         stats.cycles_found),
                        f"{name}/{label}: trace sink counters vs stats",
                    )
            result.count("andersen.constraints", len(system.constraints))
            result.count("andersen.vars", system.num_vars)
            result.count("andersen.pointsto_edges", pointsto.total_edges())
        if observed:
            began = result.begin()
            text = tracer.call("metrics.expose", registry.expose)
            snapshot = tracer.call("metrics.snapshot", registry.snapshot)
            tracer.call("metrics.snapshot", json.dumps, snapshot)
            result.segment(tracer, ("expose",), began, perf_counter())
            self.checks.equal(validate_exposition(text), [],
                              "exposition format errors")
            edges = next(family for family in snapshot["families"]
                         if family["name"] == "repro_solver_edges_total")
            self.checks.equal(sum(row["value"] for row in edges["series"]),
                              work, "metrics edge counter vs Work")
        return result


WORKLOADS = {
    workload.name: workload
    for workload in (AndersenMedium, Table4MediumNoLi, IncrementalMedium,
                     ObservedMedium)
}
