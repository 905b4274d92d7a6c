"""Counting sinks fold ``SolverStats`` once per solve segment.

``HistogramSink`` and ``MetricsSink`` read every counter the solver
already keeps from the ``segment_end`` event instead of counting the
per-unit events, so each unit of Work must be folded exactly once —
across budget stops, partial runs, resumes, restores and incremental
adds alike.
"""

import pytest

from repro.experiments.config import options_for
from repro.graph import CreationOrder
from repro.metrics import MetricsRegistry, MetricsSink
from repro.resilience import (
    BudgetExceededError,
    EngineCheckpoint,
    SolveBudget,
    capture,
    restore,
)
from repro.solver import (
    CyclePolicy,
    GraphForm,
    IncrementalSolver,
    SolverEngine,
    SolverOptions,
    solve,
)
from repro.trace import CollectorSink, HistogramSink, TeeSink, TraceSink
from repro.trace.sinks import combine, hook
from repro.workloads.generator import RandomSystemConfig, random_system

ALL_CONFIGS = [
    (form, policy)
    for form in (GraphForm.STANDARD, GraphForm.INDUCTIVE)
    for policy in (CyclePolicy.NONE, CyclePolicy.ONLINE,
                   CyclePolicy.ORACLE, CyclePolicy.PERIODIC)
]


def make_system(seed=5):
    return random_system(RandomSystemConfig(seed=seed, variables=28,
                                            var_var=46, feedback=0.35))


def observe(options):
    """``options`` with a HistogramSink and a MetricsSink attached."""
    histogram = HistogramSink()
    registry = MetricsRegistry()
    metrics = MetricsSink.for_options(options, registry)
    return (options.replace(sink=combine(histogram, metrics)),
            histogram, registry)


def metric(registry, name, **labels):
    family = next(f for f in registry.collect() if f.name == name)
    total = 0.0
    for values, child in family.series():
        row = dict(zip(family.labelnames, values))
        if all(row.get(key) == value for key, value in labels.items()):
            total += child.to_value()
    return total


def assert_work_folded_once(histogram, registry, work):
    assert sum(histogram.edge_outcomes.values()) == work
    assert metric(registry, "repro_solver_edges_total") == work


class TestEveryUnitFoldedOnce:
    def test_run_raised_by_budget(self):
        system = make_system()
        options, histogram, registry = observe(options_for(
            "IF-Online", budget=SolveBudget(max_work=40), check_stride=1,
        ))
        engine = SolverEngine(system, options)
        with pytest.raises(BudgetExceededError):
            engine.run()
        assert 0 < engine.stats.work
        assert_work_folded_once(histogram, registry, engine.stats.work)

    def test_partial_then_resume(self):
        system = make_system()
        options, histogram, registry = observe(options_for(
            "SF-Online", budget=SolveBudget(max_work=40),
            on_budget="partial", check_stride=1,
        ))
        engine = SolverEngine(system, options)
        solution = engine.run()
        segments = 1
        while solution.is_partial:
            assert_work_folded_once(histogram, registry, engine.stats.work)
            solution = engine.resume()
            segments += 1
        assert segments > 2
        assert_work_folded_once(histogram, registry, engine.stats.work)

    def test_checkpoint_restore_resume(self):
        system = make_system(seed=9)
        options, histogram, registry = observe(options_for("IF-Online"))
        engine = SolverEngine(system, options.replace(
            budget=SolveBudget(max_work=40), on_budget="partial",
            check_stride=1,
        ))
        assert engine.run().is_partial
        blob = capture(engine).to_bytes()
        resumed = restore(system, options, EngineCheckpoint.from_bytes(blob))
        assert not resumed.resume().is_partial
        assert resumed.stats.work > engine.stats.work
        assert_work_folded_once(histogram, registry, resumed.stats.work)

    def test_incremental_adds(self):
        options, histogram, registry = observe(SolverOptions(
            form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE,
            order=CreationOrder(),
        ))
        solver = IncrementalSolver(options)
        box = solver.constructor("box")
        variables = [solver.fresh_var(f"v{i}") for i in range(8)]
        solver.add(solver.term(box, label="b"), variables[0])
        for index, var in enumerate(variables):
            solver.add(var, variables[(index + 1) % len(variables)])
            solver.add(var, variables[(index * 3) % len(variables)])
            assert_work_folded_once(histogram, registry, solver.stats.work)
        assert histogram.search_hits > 0
        assert histogram.edge_outcomes["cycle"] == histogram.search_hits


@pytest.mark.parametrize(
    "form,policy", ALL_CONFIGS,
    ids=[f"{f.value}-{p.value}" for f, p in ALL_CONFIGS],
)
def test_folded_totals_equal_stats(form, policy):
    """Every folded counter equals the solver's, for all 8 configs
    (an Oracle's phase 1 is not charged, as in its statistics)."""
    options, histogram, registry = observe(SolverOptions(
        form=form, cycles=policy, order=CreationOrder(),
    ))
    collector = CollectorSink()
    options = options.replace(sink=combine(options.sink, collector))
    stats = solve(make_system(seed=3), options).stats
    outcomes = histogram.edge_outcomes
    assert sum(outcomes.values()) == stats.work
    # The folded outcomes are the per-event ones of the charged run
    # (the last closure; an Oracle's phase 1 comes first).
    names = [(e.name, e.args.get("name")) for e in collector.events]
    charged = len(names) - names[::-1].index(("phase.begin", "closure"))
    recorded = {}
    for event in collector.events[charged:]:
        if event.name == "edge":
            outcome = event.args["outcome"]
            recorded[outcome] = recorded.get(outcome, 0) + 1
    assert outcomes == recorded
    assert histogram.resolutions == stats.resolutions
    assert histogram.clashes == stats.clashes
    assert histogram.searches == stats.cycle_searches
    assert histogram.collapses == stats.cycles_found
    assert histogram.sweeps == stats.periodic_sweeps
    for name, field in (
        ("repro_solver_edges_total", "work"),
        ("repro_solver_resolutions_total", "resolutions"),
        ("repro_solver_clashes_total", "clashes"),
        ("repro_solver_searches_total", "cycle_searches"),
        ("repro_solver_collapses_total", "cycles_found"),
        ("repro_solver_vars_eliminated_total", "vars_eliminated"),
    ):
        assert metric(registry, name) == getattr(stats, field), name
    for outcome, count in outcomes.items():
        assert metric(registry, "repro_solver_edges_total",
                      outcome=outcome) == count


class TestDelivery:
    def test_counting_sinks_receive_no_per_unit_events(self):
        tee = combine(HistogramSink(), MetricsSink(MetricsRegistry()))
        for event in ("edge", "resolve", "clash", "search_start",
                      "search_visit", "collapse"):
            assert hook(tee, event) is None, event
        for event in ("search_end", "segment_end", "phase_begin"):
            assert hook(tee, event) is not None, event
        assert hook(None, "edge") is None
        assert hook(TraceSink(), "segment_end") is None

    def test_tee_forwards_only_to_overriding_children(self):
        class EdgeCounter(TraceSink):
            edges = 0

            def edge(self, kind, src, dst, outcome):
                self.edges += 1

        counter = EdgeCounter()
        tee = TeeSink([HistogramSink(), counter, TraceSink()])
        assert tee._routes["edge"] == [counter.edge]
        assert tee._routes["sweep"] == [tee.sinks[0].sweep]
        tee.edge("vv", 0, 1, "added")
        assert counter.edges == 1

    def test_collector_beside_histogram_sees_every_edge(self):
        histogram, collector = HistogramSink(), CollectorSink()
        solution = solve(make_system(), options_for(
            "IF-Online", sink=combine(histogram, collector),
        ))
        edges = [e for e in collector.events if e.name == "edge"]
        assert len(edges) == solution.stats.work
        assert sum(histogram.edge_outcomes.values()) == solution.stats.work

    def test_collector_records_the_segment_counters(self):
        collector = CollectorSink()
        solution = solve(make_system(), options_for(
            "SF-Online", sink=collector,
        ))
        segments = [e for e in collector.events if e.name == "segment.end"]
        assert len(segments) == 1
        assert collector.events[-1] is segments[0]
        assert segments[0].args["work"] == solution.stats.work
