"""Scenario tests contrasting the two forms on the same constraints.

These encode the worked examples of docs/ALGORITHMS.md: the paper's
Figure 2 chain (SF copies sources, IF defers to the sweep), the SF
detection miss, and the IF detection of the same cycle.
"""

from repro import ConstraintSystem, Variance
from repro.graph import CreationOrder
from repro.solver import CyclePolicy, GraphForm, SolverOptions, solve


def figure2_system(k=3, l=4, m=2):
    """Paper Figure 2: L_1..L_k <= X <= Y_1..Y_l <= Z <= R_1..R_m.

    Variables are created X, Z, Y_1..Y_l so that under CreationOrder
    the ranks satisfy o(X) < o(Z) < o(Y_i) — the ordering the paper's
    example assumes, which makes IF add the transitive X <= Z edge.
    """
    system = ConstraintSystem()
    c = system.constructor("c", (Variance.COVARIANT,))
    x = system.fresh_var("X")
    z = system.fresh_var("Z")
    ys = system.fresh_vars(l, "Y")
    for i in range(k):
        system.add(system.term(c, (system.zero,), label=f"L{i}"), x)
    for y in ys:
        system.add(x, y)
        system.add(y, z)
    sink_args = system.fresh_vars(m, "r")
    for arg in sink_args:
        system.add(z, system.term(c, (arg,)))
    return system, x, ys, z


def run(system, form, cycles=CyclePolicy.NONE):
    return solve(system, SolverOptions(
        form=form, cycles=cycles, order=CreationOrder()))


class TestFigure2:
    def test_sf_copies_sources_everywhere(self):
        system, x, ys, z = figure2_system()
        solution = run(system, GraphForm.STANDARD)
        graph = solution.graph
        for var in (x, *ys, z):
            assert len(graph.sources[var.index]) == 3

    def test_if_defers_to_sweep(self):
        system, x, ys, z = figure2_system()
        solution = run(system, GraphForm.INDUCTIVE)
        graph = solution.graph
        # Sources live only at X (the lowest-ordered variable).
        assert len(graph.sources[x.index]) == 3
        assert set(graph.sources[z.index]) == set()
        # Yet the least solution is identical.
        assert solution.least_solution(z) == \
            run(system, GraphForm.STANDARD).least_solution(z)

    def test_sf_redundant_additions_scale_with_paths(self):
        wide_system, *_ = figure2_system(l=8)
        narrow_system, *_ = figure2_system(l=2)
        wide = run(wide_system, GraphForm.STANDARD)
        narrow = run(narrow_system, GraphForm.STANDARD)
        # Each extra Y adds k redundant source re-additions at Z.
        assert wide.stats.redundant > narrow.stats.redundant

    def test_if_adds_transitive_var_var_edge(self):
        system, x, ys, z = figure2_system()
        solution = run(system, GraphForm.INDUCTIVE)
        # Closure adds X <= Z through any Y (paper: "note the extra
        # variable-variable edge X -> Z").
        assert x.index in solution.graph.canonical_predecessors(z.index)


class TestDetectionContrast:
    EDGES = [(2, 0), (0, 1), (1, 2)]  # 3-cycle, tricky insertion order

    def build(self):
        system = ConstraintSystem()
        variables = system.fresh_vars(3)
        for left, right in self.EDGES:
            system.add(variables[left], variables[right])
        return system, variables

    def test_sf_misses_this_cycle(self):
        system, _ = self.build()
        solution = run(system, GraphForm.STANDARD, CyclePolicy.ONLINE)
        assert solution.stats.vars_eliminated == 0

    def test_if_catches_at_least_a_subcycle(self):
        # The §2.5 theorem guarantees a two-cycle is exposed — not that
        # the whole SCC collapses at once.  Here IF's closure adds the
        # transitive v1 <= v0 edge whose insertion reveals (v0, v1).
        system, variables = self.build()
        solution = run(system, GraphForm.INDUCTIVE, CyclePolicy.ONLINE)
        assert solution.stats.vars_eliminated >= 1
        assert solution.same_component(variables[0], variables[1])

    def test_answers_agree_despite_the_miss(self):
        system, variables = self.build()
        c = system.constructor("c", (Variance.COVARIANT,))
        system.add(system.term(c, (system.zero,), label="s"),
                   variables[1])
        sf = run(system, GraphForm.STANDARD, CyclePolicy.ONLINE)
        if_ = run(system, GraphForm.INDUCTIVE, CyclePolicy.ONLINE)
        for var in variables:
            assert sf.least_solution(var) == if_.least_solution(var)
