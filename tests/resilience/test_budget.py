"""Budgets, cancellation, partial solutions, and their soundness."""

import pytest

from repro.bench.measure import counters_of
from repro.resilience import (
    BudgetExceededError,
    CancellationToken,
    SolveBudget,
    SolveCancelledError,
    SolveStatus,
    edge_estimate,
)
from repro.solver import SolverEngine, SolverOptions, solve
from repro.workloads.generator import RandomSystemConfig, random_system


def make_system(seed=3):
    # Sink-free profile: always consistent, plenty of propagation work.
    return random_system(RandomSystemConfig(
        seed=seed, variables=30, var_var=50, sinks=0, structural=0,
        extremes=0.0, feedback=0.4,
    ))


class TestSolveBudget:
    def test_rejects_nonpositive_limits(self):
        for kwargs in (
            dict(max_work=0),
            dict(max_work=-1),
            dict(deadline_seconds=0),
            dict(max_edges=-5),
        ):
            with pytest.raises(ValueError):
                SolveBudget(**kwargs)

    def test_bounded(self):
        assert not SolveBudget().bounded
        assert SolveBudget(max_work=10).bounded
        assert SolveBudget(deadline_seconds=1.0).bounded
        assert SolveBudget(max_edges=100).bounded

    def test_unbounded_budget_never_exceeded(self):
        solution = solve(make_system(), SolverOptions(budget=SolveBudget()))
        assert solution.status is SolveStatus.COMPLETE

    def test_edge_estimate_bounds_stored_edges(self):
        solution = solve(make_system())
        stats = solution.stats
        assert edge_estimate(stats) >= stats.final_edges


class TestCancellationToken:
    def test_lifecycle(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        assert token.cancelled
        token.reset()
        assert not token.cancelled
        assert "armed" in repr(token)


class TestRaisePolicy:
    def test_work_budget_raises_structured_error(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            solve(make_system(), SolverOptions(
                budget=SolveBudget(max_work=20), check_stride=1
            ))
        error = excinfo.value
        assert error.reason == "work"
        assert error.limit == 20
        assert error.value >= 20
        assert error.work_done == error.value

    def test_cancellation_raises(self):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(SolveCancelledError):
            solve(make_system(), SolverOptions(
                cancellation=token, check_stride=1
            ))

    def test_bad_on_budget_rejected(self):
        with pytest.raises(ValueError):
            SolverEngine(make_system(), SolverOptions(on_budget="ignore"))


class TestPartialPolicy:
    def test_partial_status_budget(self):
        solution = solve(make_system(), SolverOptions(
            budget=SolveBudget(max_work=20),
            on_budget="partial",
            check_stride=1,
        ))
        assert solution.status is SolveStatus.BUDGET_EXHAUSTED
        assert solution.is_partial
        assert "budget-exhausted" in repr(solution)

    def test_partial_status_cancelled(self):
        token = CancellationToken()
        token.cancel()
        solution = solve(make_system(), SolverOptions(
            cancellation=token, on_budget="partial", check_stride=1
        ))
        assert solution.status is SolveStatus.CANCELLED
        assert solution.is_partial

    def test_partial_least_solution_is_sound_lower_bound(self):
        """Everything a partial run reports is in the true solution."""
        system = make_system()
        full = solve(system, SolverOptions())
        for budget in (10, 40, 160):
            partial = solve(system, SolverOptions(
                budget=SolveBudget(max_work=budget),
                on_budget="partial",
                check_stride=1,
            ))
            if not partial.is_partial:
                continue
            for var in system.variables:
                assert partial.least_solution(var) <= full.least_solution(
                    var
                ), f"partial LS({var}) is not a subset at budget {budget}"

    def test_partial_true_collapses_are_correct(self):
        system = make_system()
        full = solve(system, SolverOptions())
        partial = solve(system, SolverOptions(
            budget=SolveBudget(max_work=60),
            on_budget="partial",
            check_stride=1,
        ))
        for a in system.variables:
            for b in system.variables:
                if partial.same_component(a, b):
                    assert full.same_component(a, b)

    def test_resume_after_partial_matches_uninterrupted(self):
        """Resuming a partial engine finishes with identical counters."""
        system = make_system()
        baseline = counters_of(
            solve(system, SolverOptions())
        )
        engine = SolverEngine(system, SolverOptions(
            budget=SolveBudget(max_work=30),
            on_budget="partial",
            check_stride=1,
        ))
        solution = engine.run()
        resumes = 0
        while solution.is_partial:
            resumes += 1
            solution = engine.resume()
            assert resumes < 1000
        assert resumes > 0
        assert counters_of(solution) == baseline


class TestZeroOverheadIdentity:
    """Budgeted runs produce bit-identical counters to unbudgeted ones."""

    def test_counters_identical_under_generous_budget(self):
        system = make_system()
        plain = counters_of(solve(system, SolverOptions()))
        guarded = counters_of(solve(system, SolverOptions(
            budget=SolveBudget(max_work=10**9, deadline_seconds=3600),
            cancellation=CancellationToken(),
            check_stride=1,
        )))
        assert plain == guarded
