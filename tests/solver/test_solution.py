"""Tests for the Solution object."""

import pytest

from repro import ConstraintSystem, Variance
from repro.resilience import SolveBudget
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve


def solved_cycle():
    system = ConstraintSystem()
    c = system.constructor("c", (Variance.COVARIANT,))
    src = system.term(c, (system.zero,), label="s")
    x, y, z = system.fresh_vars(3)
    system.add(x, y)
    system.add(y, x)
    system.add(src, x)
    system.add(y, z)
    options = SolverOptions(
        form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE,
    )
    return system, (x, y, z), src, solve(system, options)


class TestSolutionQueries:
    def test_least_solution_by_index(self):
        _, (x, _, _), src, solution = solved_cycle()
        assert solution.least_solution_by_index(x.index) == frozenset({src})

    def test_unconstrained_var_is_empty(self):
        system = ConstraintSystem()
        x = system.fresh_var()
        solution = solve(system, SolverOptions())
        assert solution.least_solution(x) == frozenset()

    def test_same_component_after_collapse(self):
        _, (x, y, z), _, solution = solved_cycle()
        assert solution.same_component(x, y)
        assert not solution.same_component(x, z)

    def test_representative_is_stable(self):
        _, (x, y, _), _, solution = solved_cycle()
        assert solution.representative(x) == solution.representative(y)

    def test_repr_mentions_label(self):
        _, _, _, solution = solved_cycle()
        assert "IF-Online" in repr(solution)

    def test_ok_when_no_diagnostics(self):
        _, _, _, solution = solved_cycle()
        assert solution.ok
        solution.raise_on_errors()  # must not raise


def cycle_system():
    system = ConstraintSystem()
    x, y, z = system.fresh_vars(3)
    system.add(x, y)
    system.add(y, x)
    system.add(y, z)
    return system


class TestSccSummary:
    def test_summary_counts_cycle(self):
        for form in (GraphForm.STANDARD, GraphForm.INDUCTIVE):
            solution = solve(cycle_system(), SolverOptions(
                form=form, cycles=CyclePolicy.NONE,
            ))
            summary = solution.final_scc_summary()
            assert summary.vars_in_cycles == 2, form
            assert summary.max_scc_size == 2, form
            assert summary.nontrivial_sccs == 1, form

    def test_summary_refuses_collapsing_runs(self):
        for cycles in (CyclePolicy.ONLINE, CyclePolicy.ORACLE,
                       CyclePolicy.PERIODIC):
            solution = solve(cycle_system(), SolverOptions(cycles=cycles))
            with pytest.raises(ValueError, match="collapses"):
                solution.final_scc_summary()

    def test_summary_refuses_partial_runs(self):
        solution = solve(cycle_system(), SolverOptions(
            form=GraphForm.STANDARD, cycles=CyclePolicy.NONE,
            budget=SolveBudget(max_work=1), on_budget="partial",
            check_stride=1,
        ))
        assert solution.is_partial
        with pytest.raises(ValueError, match="complete run"):
            solution.final_scc_summary()
