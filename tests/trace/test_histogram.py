"""Histogram bucketing and HistogramSink telemetry correctness."""

import pytest

from repro import ConstraintSystem
from repro.graph import CreationOrder
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve
from repro.trace import Histogram, HistogramSink


class TestOnlineHistogram:
    """The streaming ``Histogram`` shared by trace and metrics."""

    def test_exact_below_limit(self):
        hist = Histogram()
        for value in (0, 1, 1, 3, 15):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == 20
        assert (hist.min, hist.max) == (0, 15)
        assert hist.buckets == {0: 1, 1: 2, 3: 1, 15: 1}
        assert hist.mean == 4.0

    def test_power_of_two_buckets_above_limit(self):
        hist = Histogram()
        for value in (16, 17, 31, 32, 100, 1000):
            hist.observe(value)
        assert hist.buckets == {16: 3, 32: 1, 64: 1, 512: 1}
        # count/sum/min/max stay exact even though buckets are coarse.
        assert hist.sum == 16 + 17 + 31 + 32 + 100 + 1000
        assert (hist.min, hist.max) == (16, 1000)
        rows = hist.bucket_rows()
        assert rows[0] == (16, 31, 3)
        assert rows[-1] == (512, 1023, 1)

    def test_merge_matches_combined_stream(self):
        left, right, combined = Histogram(), Histogram(), Histogram()
        for value in (1, 2, 40):
            left.observe(value)
            combined.observe(value)
        for value in (2, 17):
            right.observe(value)
            combined.observe(value)
        left.merge(right)
        assert left.buckets == combined.buckets
        assert left.count == combined.count
        assert left.sum == combined.sum
        assert (left.min, left.max) == (combined.min, combined.max)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1)


def solve_three_cycle(sink):
    """v0 <= v1 <= v2 <= v0 under IF-Online with creation order."""
    system = ConstraintSystem()
    v0, v1, v2 = system.fresh_vars(3)
    system.add(v0, v1)
    system.add(v1, v2)
    system.add(v2, v0)
    return solve(system, SolverOptions(
        form=GraphForm.INDUCTIVE,
        cycles=CyclePolicy.ONLINE,
        order=CreationOrder(),
        sink=sink,
    ))


class TestHistogramSink:
    def test_three_cycle_telemetry(self):
        sink = HistogramSink(label="3cycle")
        solution = solve_three_cycle(sink)
        stats = solution.stats
        # Histograms agree with the solver's deterministic counters.
        assert sink.searches == stats.cycle_searches
        assert sink.search_visits.count == stats.cycle_searches
        assert sink.search_visits.sum == stats.cycle_search_visits
        assert sink.search_hits == stats.cycles_found
        assert sink.mean_search_visits == stats.mean_search_visits
        # The 3-cycle collapses down to one representative.
        assert stats.vars_eliminated == 2
        assert sink.cycle_lengths.count == sink.search_hits >= 1
        assert sink.cycle_lengths.sum >= 2 * sink.search_hits
        assert sink.hit_rate == pytest.approx(
            stats.cycles_found / stats.cycle_searches
        )

    def test_edge_outcome_counts_match_stats(self):
        sink = HistogramSink()
        solution = solve_three_cycle(sink)
        stats = solution.stats
        assert sum(sink.edge_outcomes.values()) == stats.work
        assert sink.edge_outcomes.get("redundant", 0) == stats.redundant
        assert sink.edge_outcomes.get("self", 0) == stats.self_edges
        assert sink.edge_outcomes.get("cycle", 0) == sink.search_hits

    def test_phase_spans_recorded(self):
        sink = HistogramSink()
        solve_three_cycle(sink)
        assert "closure" in sink.phase_seconds
        assert "least-solution" in sink.phase_seconds
        names = [name for name, _, _ in sink.spans]
        assert "closure" in names
        for name, began, ended in sink.spans:
            assert ended >= began
        assert not sink._open_phases

    def test_unmatched_phase_end_never_raises(self):
        sink = HistogramSink()
        sink.phase_end("never-opened")
        assert sink.spans == [
            ("never-opened", sink.spans[0][1], sink.spans[0][1])
        ]

    def test_fanout_counts_added_vv_edges_only(self):
        sink = HistogramSink()
        system = ConstraintSystem()
        v1, v2, v3 = system.fresh_vars(3)
        system.add(v1, v2)
        system.add(v1, v3)
        system.add(v1, v3)  # redundant
        system.add(system.term(system.constructor("c"), label="c"), v1)
        solve(system, SolverOptions(
            form=GraphForm.STANDARD, cycles=CyclePolicy.NONE, sink=sink,
        ))
        hist = sink.fanout_histogram()
        assert hist.count == 1
        assert hist.sum == 2

    @pytest.mark.parametrize("form", list(GraphForm))
    def test_plain_fanout_is_out_degree_of_added_vv_events(self, form):
        from repro.trace import CollectorSink
        from repro.trace.sinks import combine
        from repro.workloads.generator import (
            RandomSystemConfig,
            random_system,
        )

        sink, collector = HistogramSink(), CollectorSink()
        system = random_system(RandomSystemConfig(seed=4, variables=30,
                                                  var_var=60))
        solve(system, SolverOptions(
            form=form, cycles=CyclePolicy.NONE,
            sink=combine(sink, collector),
        ))
        degrees = {}
        for event in collector.events:
            args = event.args
            if (event.name == "edge" and args["kind"] == "vv"
                    and args["outcome"] == "added"):
                degrees[args["src"]] = degrees.get(args["src"], 0) + 1
        expected = Histogram()
        for degree in degrees.values():
            expected.observe(degree)
        assert expected.count > 5
        assert sink.fanout_histogram().to_dict() == expected.to_dict()

    def test_merged_fanout_keeps_programs_apart(self):
        """Variable 0 of two programs: degrees 2 and 1, never 3."""
        runs = []
        for targets in (2, 1):
            system = ConstraintSystem()
            v0, *rest = system.fresh_vars(1 + targets)
            for var in rest:
                system.add(v0, var)
            runs.append(HistogramSink())
            solve(system, SolverOptions(
                form=GraphForm.STANDARD, cycles=CyclePolicy.NONE,
                sink=runs[-1],
            ))
        merged = HistogramSink()
        for run in runs:
            merged.merge(run)
        assert merged.fanout_histogram().buckets == {1: 1, 2: 1}

    def test_merge_combines_runs(self):
        first, second = HistogramSink(), HistogramSink()
        solve_three_cycle(first)
        solve_three_cycle(second)
        merged = HistogramSink(label="merged")
        merged.merge(first)
        merged.merge(second)
        assert merged.searches == first.searches + second.searches
        assert merged.search_visits.sum == (
            first.search_visits.sum + second.search_visits.sum
        )
        assert merged.mean_search_visits == pytest.approx(
            first.mean_search_visits
        )
        assert len(merged.spans) == len(first.spans) + len(second.spans)

    def test_summary_is_json_ready(self):
        import json

        sink = HistogramSink(label="s")
        solve_three_cycle(sink)
        summary = sink.summary()
        json.dumps(summary)  # must not raise
        assert summary["label"] == "s"
        assert summary["searches"] == sink.searches
        assert summary["search_visits"]["count"] == sink.searches
