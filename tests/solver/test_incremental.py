"""Tests for the incremental solver front-end."""

import pytest

from repro import ConstraintSystem, Variance
from repro.resilience import CancellationToken, SolveBudget
from repro.solver import (
    CyclePolicy,
    GraphForm,
    SolverOptions,
    solve,
)
from repro.solver.incremental import IncrementalSolver


def make_solver(**overrides):
    base = dict(form=GraphForm.INDUCTIVE, cycles=CyclePolicy.ONLINE)
    base.update(overrides)
    return IncrementalSolver(SolverOptions(**base))


class TestIncremental:
    def test_query_between_additions(self):
        solver = make_solver()
        box = solver.constructor("box", (Variance.COVARIANT,))
        x, y = solver.fresh_var("x"), solver.fresh_var("y")
        payload = solver.term(box, (solver.zero,), label="p")
        solver.add(payload, x)
        assert solver.least_solution(x) == frozenset({payload})
        assert solver.least_solution(y) == frozenset()
        solver.add(x, y)
        assert solver.least_solution(y) == frozenset({payload})

    def test_matches_batch_solving(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]
        # Batch.
        system = ConstraintSystem()
        box = system.constructor("box", (Variance.COVARIANT,))
        batch_vars = system.fresh_vars(4)
        source = system.term(box, (system.zero,), label="s")
        system.add(source, batch_vars[0])
        for left, right in edges:
            system.add(batch_vars[left], batch_vars[right])
        batch = solve(system, SolverOptions())
        # Incremental, one constraint at a time.
        solver = make_solver()
        solver.constructor("box", (Variance.COVARIANT,))
        inc_vars = [solver.fresh_var() for _ in range(4)]
        inc_source = solver.term("box", (solver.zero,), label="s")
        solver.add(inc_source, inc_vars[0])
        for left, right in edges:
            solver.add(inc_vars[left], inc_vars[right])
        for batch_var, inc_var in zip(batch_vars, inc_vars):
            assert {str(t) for t in batch.least_solution(batch_var)} == {
                str(t) for t in solver.least_solution(inc_var)
            }

    def test_online_collapse_happens_incrementally(self):
        solver = make_solver()
        x, y = solver.fresh_var(), solver.fresh_var()
        solver.add(x, y)
        assert not solver.same_component(x, y)
        solver.add(y, x)
        assert solver.same_component(x, y)
        assert solver.stats.vars_eliminated == 1

    def test_late_variables(self):
        solver = make_solver()
        box = solver.constructor("box", (Variance.COVARIANT,))
        x = solver.fresh_var()
        solver.add(solver.term(box, (solver.zero,), label="p"), x)
        # Create a variable only after solving has begun.
        y = solver.fresh_var()
        solver.add(x, y)
        assert len(solver.least_solution(y)) == 1

    def test_standard_form_supported(self):
        solver = make_solver(form=GraphForm.STANDARD)
        box = solver.constructor("box", (Variance.COVARIANT,))
        x, y = solver.fresh_var(), solver.fresh_var()
        solver.add(solver.term(box, (solver.zero,), label="p"), x)
        solver.add(x, y)
        assert len(solver.least_solution(y)) == 1

    def test_oracle_rejected(self):
        with pytest.raises(ValueError):
            IncrementalSolver(SolverOptions(cycles=CyclePolicy.ORACLE))

    @pytest.mark.parametrize("unsupervised", [
        {"budget": SolveBudget(max_work=3)},
        {"cancellation": CancellationToken()},
        {"audit": "stride-10"},
        {"audit": "final"},
    ], ids=["budget", "cancellation", "stride-audit", "final-audit"])
    def test_unenforceable_resilience_options_rejected(self, unsupervised):
        """``add`` closes the graph without budget, cancellation or
        audit checks, so asking for them is an error, not a no-op."""
        with pytest.raises(ValueError, match="unsupervised"):
            IncrementalSolver(SolverOptions(**unsupervised))

    def test_unbounded_budget_accepted(self):
        solver = IncrementalSolver(SolverOptions(budget=SolveBudget()))
        x, y = solver.fresh_var(), solver.fresh_var()
        solver.add(x, y)
        assert solver.stats.work > 0

    def test_diagnostics_accumulate(self):
        solver = make_solver()
        a = solver.constructor("a", ())
        b = solver.constructor("b", ())
        x = solver.fresh_var()
        solver.add(solver.term(a), x)
        assert not solver.diagnostics
        solver.add(x, solver.term(b))
        assert solver.diagnostics

    def test_add_all(self):
        solver = make_solver()
        x, y, z = (solver.fresh_var() for _ in range(3))
        solver.add_all([(x, y), (y, z)])
        box = solver.constructor("box", (Variance.COVARIANT,))
        solver.add(solver.term(box, (solver.zero,)), x)
        assert len(solver.least_solution(z)) == 1


def _apply_script(script, add, term_for, variables):
    """Replay a construction script against one solver front-end."""
    for op in script:
        if op[0] == "edge":
            add(variables[op[1]], variables[op[2]])
        elif op[0] == "source":
            add(term_for(op[2]), variables[op[1]])
        else:  # sink
            add(variables[op[1]], term_for(op[2]))


def _make_script(seed, var_count=14, steps=60):
    import random

    rng = random.Random(seed)
    script = []
    for step in range(steps):
        roll = rng.random()
        if roll < 0.22:
            script.append(("source", rng.randrange(var_count), step))
        elif roll < 0.30:
            script.append(("sink", rng.randrange(var_count), step))
        else:
            script.append((
                "edge",
                rng.randrange(var_count),
                rng.randrange(var_count),
            ))
    return script, var_count


class TestStandardFormDifferential:
    """Pin SF-Online interleaved queries against the reference solver.

    Regression guard for ``least_solution`` under standard form: the
    solution must be read through ``find`` (accumulating every
    variable's source bucket onto its representative), not off
    ``sources[rep]`` directly, or queries issued between batches can
    miss terms after an online collapse.
    """

    def _run_differential(self, seed, query_stride):
        from repro.solver import solve_reference
        from repro import ConstraintSystem

        script, var_count = _make_script(seed)
        solver = make_solver(form=GraphForm.STANDARD)
        box = solver.constructor("box", (Variance.COVARIANT,))
        inc_vars = [solver.fresh_var(f"v{i}") for i in range(var_count)]

        def inc_term(step):
            return solver.term("box", (solver.zero,), label=f"t{step}")

        for prefix_end in range(1, len(script) + 1):
            op = script[prefix_end - 1]
            _apply_script([op], solver.add, inc_term, inc_vars)
            if prefix_end % query_stride and prefix_end != len(script):
                continue
            # Batch-solve the same prefix with the naive reference.
            batch = ConstraintSystem()
            batch.constructor("box", (Variance.COVARIANT,))
            batch_vars = batch.fresh_vars(var_count)

            def batch_term(step):
                return batch.term("box", (batch.zero,), label=f"t{step}")

            _apply_script(script[:prefix_end], batch.add, batch_term,
                          batch_vars)
            reference = solve_reference(batch)
            for inc_var, batch_var in zip(inc_vars, batch_vars):
                got = {str(t) for t in solver.least_solution(inc_var)}
                want = {
                    str(t) for t in reference.least_solution(batch_var)
                }
                assert got == want, (
                    f"seed={seed} prefix={prefix_end} var={inc_var}"
                )
        return solver

    def test_interleaved_queries_match_reference(self):
        cycles_seen = 0
        for seed in range(4):
            solver = self._run_differential(seed, query_stride=7)
            cycles_seen += solver.stats.cycles_found
        assert cycles_seen > 0, (
            "the differential never exercised an online collapse"
        )

    def test_query_immediately_after_collapse(self):
        """Crafted worst case: query the instant a collapse absorbs a
        variable that owns source terms."""
        solver = make_solver(form=GraphForm.STANDARD)
        box = solver.constructor("box", (Variance.COVARIANT,))
        a, b, c = (solver.fresh_var(n) for n in "abc")
        pa = solver.term(box, (solver.zero,), label="pa")
        pb = solver.term(box, (solver.one,), label="pb")
        # Sources live on the variables the collapse will absorb; the
        # c -> b -> a chain descends in rank, so closing a -> c is the
        # case SF-Online's partial (rank-decreasing) search must catch.
        solver.add(pa, c)
        solver.add(pb, b)
        solver.add(c, b)
        solver.add(b, a)
        before = {str(t) for t in solver.least_solution(a)}
        assert before == {"box[pa](0)", "box[pb](1)"}
        solver.add(a, c)
        assert solver.stats.cycles_found == 1
        assert solver.same_component(a, c)
        # The witness (a) absorbed b and c; their source buckets must
        # still be visible through every original variable.
        for var in (a, b, c):
            assert {str(t) for t in solver.least_solution(var)} \
                == {"box[pa](0)", "box[pb](1)"}, str(var)
