"""Tests for shared constraint-graph machinery (collapse, accounting)."""

from repro import ConstraintSystem, Variance
from repro.graph import CreationOrder
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve


def options(form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE):
    return SolverOptions(form=form, cycles=cycles, order=CreationOrder())


class TestCollapse:
    def build_cycle(self, extra=()):
        system = ConstraintSystem()
        box = system.constructor("box", (Variance.COVARIANT,))
        a, b, c = system.fresh_vars(3)
        system.add(a, b)
        system.add(b, a)
        for left, right in extra:
            variables = {0: a, 1: b, 2: c}
            system.add(variables[left], variables[right])
        return system, (a, b, c), box

    def test_witness_inherits_adjacency(self):
        system, (a, b, c), box = self.build_cycle(extra=[(1, 2)])
        src = system.term(box, (system.zero,), label="s")
        system.add(src, a)
        solution = solve(system, options())
        # a is the witness (lowest creation rank); b's edge to c must
        # now serve a.
        assert solution.representative(b) == a.index
        assert solution.least_solution(c) == frozenset({src})

    def test_incoming_stale_edges_still_flow(self):
        system, (a, b, c), box = self.build_cycle(extra=[(2, 1)])
        src = system.term(box, (system.zero,), label="s")
        system.add(src, c)  # c <= b (stale after b collapses into a)
        solution = solve(system, options())
        assert solution.least_solution(a) == frozenset({src})
        assert solution.least_solution(b) == frozenset({src})

    def test_absorbed_node_storage_cleared(self):
        system, (a, b, _), box = self.build_cycle()
        system.add(system.term(box, (system.zero,), label="s"), b)
        solution = solve(system, options())
        absorbed = (
            b.index
            if solution.representative(b) == a.index
            else a.index
        )
        graph = solution.graph
        assert set(graph.sources[absorbed]) == set()
        assert set(graph.succ_vars[absorbed]) == set()
        assert set(graph.pred_vars[absorbed]) == set()

    def test_collapse_path_counts_once_per_cycle(self):
        system, _, _ = self.build_cycle()
        solution = solve(system, options())
        assert solution.stats.cycles_found == 1
        assert solution.stats.vars_eliminated == 1


class TestFinalAccounting:
    def test_canonical_sets_dedupe_collapsed_targets(self):
        system = ConstraintSystem()
        a, b, x = system.fresh_vars(3)
        # x flows into both a and b; then a and b collapse (the order
        # b <= a, a <= b is the one SF's partial search detects).
        system.add(x, a)
        system.add(x, b)
        system.add(b, a)
        system.add(a, b)
        solution = solve(system, options(form=GraphForm.STANDARD))
        successors = solution.graph.canonical_successors(x.index)
        assert len(successors) == 1

    def test_finalize_counts_by_kind(self):
        system = ConstraintSystem()
        box = system.constructor("box", (Variance.COVARIANT,))
        x, y = system.fresh_vars(2)
        system.add(system.term(box, (system.zero,), label="s"), x)
        system.add(x, y)
        system.add(y, system.term(box, (system.one,)))
        solution = solve(
            system, options(form=GraphForm.STANDARD,
                            cycles=CyclePolicy.NONE)
        )
        stats = solution.stats
        assert stats.final_var_var_edges == 1
        # The source propagates to y as well: 2 source edges.
        assert stats.final_source_edges == 2
        assert stats.final_sink_edges == 1

    def test_if_final_edges_split_between_sides(self):
        system = ConstraintSystem()
        x, y, z = system.fresh_vars(3)
        system.add(x, y)  # pred edge (creation order)
        system.add(z, y)  # y stored where rank is higher
        solution = solve(
            system, options(cycles=CyclePolicy.NONE)
        )
        stats = solution.stats
        assert stats.final_var_var_edges == 2


class TestGrow:
    def test_grow_extends_all_stores(self):
        from repro.graph import SolverStats, VariableOrder
        from repro.graph.inductive import InductiveGraph

        graph = InductiveGraph(
            2, VariableOrder(CreationOrder(), 2), SolverStats(),
            emit=lambda op: None,
        )
        graph.grow(5)
        assert graph.num_vars == 5
        assert len(graph.succ_vars) == 5
        assert len(graph.unionfind) == 5
        assert graph.rank(4) == 4

    def test_grow_is_idempotent(self):
        from repro.graph import SolverStats, VariableOrder
        from repro.graph.standard import StandardGraph

        graph = StandardGraph(
            3, VariableOrder(CreationOrder(), 3), SolverStats(),
            emit=lambda op: None,
        )
        graph.grow(3)
        graph.grow(2)
        assert graph.num_vars == 3
