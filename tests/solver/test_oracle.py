"""Tests for the two-phase oracle (paper Section 4)."""

import pytest

from repro import ConstraintSystem, Variance
from repro.graph.scc import witness_map
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve
from repro.workloads.suite import suite


def cyclic_system():
    system = ConstraintSystem()
    c = system.constructor("c", (Variance.COVARIANT,))
    src = system.term(c, (system.zero,), label="s")
    v = system.fresh_vars(6)
    system.add(src, v[0])
    # Two separate cycles and a connecting chain.
    system.add(v[0], v[1])
    system.add(v[1], v[0])
    system.add(v[1], v[2])
    system.add(v[2], v[3])
    system.add(v[3], v[4])
    system.add(v[4], v[3])
    system.add(v[4], v[5])
    return system, v, src


def oracle_options(form):
    return SolverOptions(form=form, cycles=CyclePolicy.ORACLE)


class TestOracle:
    def test_same_answers_as_plain(self):
        system, variables, src = cyclic_system()
        for form in (GraphForm.STANDARD, GraphForm.INDUCTIVE):
            plain = solve(system, SolverOptions(
                form=form, cycles=CyclePolicy.NONE))
            oracle = solve(system, oracle_options(form))
            for v in variables:
                assert oracle.least_solution(v) == plain.least_solution(v)

    def test_phase1_attached(self):
        system, _, _ = cyclic_system()
        for form in (GraphForm.STANDARD, GraphForm.INDUCTIVE):
            oracle = solve(system, oracle_options(form))
            # Both oracle forms read the partition off one SF-Plain run.
            assert oracle.oracle_phase1 is not None
            assert oracle.oracle_phase1.options.label == "SF-Plain"
            summary = oracle.oracle_phase1.final_scc_summary()
            assert summary.vars_in_cycles == 4
            assert summary.nontrivial_sccs == 2

    def test_witnessed_counts_cycle_members(self):
        system, _, _ = cyclic_system()
        oracle = solve(system, oracle_options(GraphForm.STANDARD))
        # Two 2-cycles: one member of each is forwarded.
        assert oracle.oracle_witnessed == 2

    def test_oracle_graph_is_acyclic(self):
        system, variables, _ = cyclic_system()
        oracle = solve(system, oracle_options(GraphForm.INDUCTIVE))
        # Members of each cycle share a representative from the start.
        assert oracle.same_component(variables[0], variables[1])
        assert oracle.same_component(variables[3], variables[4])
        assert not oracle.same_component(variables[0], variables[3])

    def test_oracle_does_no_more_work_than_plain(self):
        system, _, _ = cyclic_system()
        for form in (GraphForm.STANDARD, GraphForm.INDUCTIVE):
            plain = solve(system, SolverOptions(
                form=form, cycles=CyclePolicy.NONE))
            oracle = solve(system, oracle_options(form))
            assert oracle.stats.work <= plain.stats.work

    def test_label_preserved(self):
        system, _, _ = cyclic_system()
        oracle = solve(system, oracle_options(GraphForm.INDUCTIVE))
        assert oracle.options.label == "IF-Oracle"

    def test_oracle_on_acyclic_system_is_plain(self):
        system = ConstraintSystem()
        x, y = system.fresh_vars(2)
        system.add(x, y)
        oracle = solve(system, oracle_options(GraphForm.STANDARD))
        plain = solve(system, SolverOptions(
            form=GraphForm.STANDARD, cycles=CyclePolicy.NONE))
        assert oracle.oracle_witnessed == 0
        assert oracle.stats.work == plain.stats.work


def oracle_witnesses(solution):
    """The witness map phase 2 pre-collapsed, read back off its graph."""
    find = solution.graph.find
    return {
        index: find(index)
        for index in range(solution.graph.num_vars)
        if find(index) != index
    }


def assert_if_oracle_matches_if_plain(benchmarks):
    for bench in benchmarks:
        system = bench.program.system
        plain = solve(system, SolverOptions(
            form=GraphForm.INDUCTIVE, cycles=CyclePolicy.NONE))
        expected = witness_map(
            range(system.num_vars), plain.graph.var_var_edges())
        oracle = solve(system, oracle_options(GraphForm.INDUCTIVE))
        assert oracle_witnesses(oracle) == expected, bench.name
        assert oracle.oracle_witnessed == len(expected), bench.name


class TestSfPhase1ServesIf:
    """The SF-Plain partition is the one an IF-Plain graph shows."""

    def test_quick_suite(self):
        assert_if_oracle_matches_if_plain(suite("quick"))

    @pytest.mark.slow
    def test_medium_suite(self):
        assert_if_oracle_matches_if_plain(suite("medium"))
