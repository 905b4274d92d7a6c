"""Behavioural tests for the standard-form graph (paper Section 2.3)."""

from repro import Variance
from repro.graph import CreationOrder
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve


def sf_options(**overrides):
    base = dict(form=GraphForm.STANDARD, cycles=CyclePolicy.NONE,
                order=CreationOrder())
    base.update(overrides)
    return SolverOptions(**base)


def make_source(system, label):
    c = system.constructor("c", (Variance.COVARIANT,))
    return system.term(c, (system.zero,), label=label)


class TestClosure:
    def test_source_propagates_forward(self, system):
        x, y, z = system.fresh_vars(3)
        src = make_source(system, "s")
        system.add(src, x)
        system.add(x, y)
        system.add(y, z)
        solution = solve(system, sf_options())
        for v in (x, y, z):
            assert solution.least_solution(v) == frozenset({src})

    def test_least_solution_explicit_in_sources(self, system):
        x, y = system.fresh_vars(2)
        src = make_source(system, "s")
        system.add(src, x)
        system.add(x, y)
        solution = solve(system, sf_options())
        # In SF the source set of every variable IS its least solution.
        rep = solution.representative(y)
        assert set(solution.graph.sources[rep]) == {src}

    def test_all_var_var_edges_are_successors(self, system):
        x, y, z = system.fresh_vars(3)
        system.add(x, y)
        system.add(z, y)  # would be a pred edge in IF for some orders
        solution = solve(system, sf_options())
        graph = solution.graph
        assert graph.canonical_successors(x.index) == {y.index}
        assert graph.canonical_successors(z.index) == {y.index}
        assert graph.canonical_predecessors(y.index) == set()

    def test_source_meets_sink_resolves(self, system):
        c = system.constructor("c", (Variance.COVARIANT,))
        x, inner, out = system.fresh_vars(3)
        system.add(system.term(c, (inner,), label="s"), x)
        system.add(x, system.term(c, (out,)))
        system.add(make_source(system, "payload"), inner)
        solution = solve(system, sf_options())
        # c(inner) <= c(out) gives inner <= out, carrying the payload.
        assert any(t.label == "payload"
                   for t in solution.least_solution(out))

    def test_redundant_addition_counted(self, system):
        x, y = system.fresh_vars(2)
        system.add(x, y)
        system.add(x, y)
        solution = solve(system, sf_options())
        assert solution.stats.redundant >= 1
        assert solution.stats.final_var_var_edges == 1

    def test_self_constraint_dropped(self, system):
        x = system.fresh_var()
        system.add(x, x)
        solution = solve(system, sf_options())
        assert solution.stats.self_edges == 1
        assert solution.stats.final_var_var_edges == 0

    def test_diamond_counts_redundant_work(self, system):
        # src -> x -> {a, b} -> y: the source reaches y twice.
        x, a, b, y = system.fresh_vars(4)
        src = make_source(system, "s")
        system.add(src, x)
        for mid in (a, b):
            system.add(x, mid)
            system.add(mid, y)
        solution = solve(system, sf_options())
        assert solution.least_solution(y) == frozenset({src})
        assert solution.stats.redundant >= 1


class TestOnlineCycles:
    def test_two_cycle_collapsed(self, system):
        # SF's decreasing search finds the cycle when the closing edge
        # runs from a low-ranked to a high-ranked variable, so insert
        # y <= x first and close with x <= y.
        x, y = system.fresh_vars(2)
        system.add(y, x)
        system.add(x, y)
        solution = solve(system, sf_options(cycles=CyclePolicy.ONLINE))
        assert solution.same_component(x, y)
        assert solution.stats.vars_eliminated == 1
        assert solution.stats.cycles_found == 1

    def test_witness_is_lowest_rank(self, system):
        x, y = system.fresh_vars(2)
        system.add(y, x)
        system.add(x, y)
        solution = solve(system, sf_options(cycles=CyclePolicy.ONLINE))
        # CreationOrder: x has the lower rank and must be the witness.
        assert solution.representative(y) == x.index

    def test_collapsed_cycle_shares_solution(self, system):
        x, y, z = system.fresh_vars(3)
        src = make_source(system, "s")
        system.add(x, y)
        system.add(y, z)
        system.add(z, x)
        system.add(src, y)
        solution = solve(system, sf_options(cycles=CyclePolicy.ONLINE))
        for v in (x, y, z):
            assert solution.least_solution(v) == frozenset({src})

    def test_detection_is_partial(self, system):
        # The closing edge v1->v2 searches from v2 along successors of
        # decreasing rank: v2->v0 qualifies but v0->v1 increases, so
        # this 3-cycle is missed — SF detection is partial by design.
        v0, v1, v2 = system.fresh_vars(3)
        system.add(v2, v0)
        system.add(v0, v1)
        system.add(v1, v2)
        solution = solve(system, sf_options(cycles=CyclePolicy.ONLINE))
        assert solution.stats.vars_eliminated == 0

    def test_increasing_mode_runs_searches(self, system):
        from repro.graph import SearchMode

        v0, v1, v2 = system.fresh_vars(3)
        system.add(v2, v0)
        system.add(v0, v1)
        system.add(v1, v2)
        solution = solve(system, sf_options(
            cycles=CyclePolicy.ONLINE, search_mode=SearchMode.INCREASING
        ))
        assert solution.stats.cycle_searches >= 1

    def test_increasing_mode_detects_inverted_case(self, system):
        # Mirror image of the partial case: with the closing edge going
        # from high rank to low, the increasing-chain ablation finds the
        # cycle that the decreasing search misses.
        v0, v1, v2 = system.fresh_vars(3)
        system.add(v0, v1)
        system.add(v1, v2)
        system.add(v2, v0)
        from repro.graph import SearchMode

        decreasing = solve(
            system, sf_options(cycles=CyclePolicy.ONLINE)
        )
        increasing = solve(system, sf_options(
            cycles=CyclePolicy.ONLINE, search_mode=SearchMode.INCREASING
        ))
        assert decreasing.stats.vars_eliminated == 0
        assert increasing.stats.vars_eliminated == 2
