"""The resolution engine.

One engine drives all six experiment configurations: it drains a
worklist of atomic operations, dispatching to the active graph
representation, which in turn emits further operations.  Every processed
``vv``/``sv``/``vs`` operation is one unit of Work — the paper's cost
metric — and ``rr`` operations apply the resolution rules ``R`` to a
source/sink pair.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import replace
from typing import Callable, Deque, Dict, FrozenSet, List, Tuple, TypeVar

from ..constraints.errors import ConstraintDiagnostic
from ..constraints.expressions import SetExpression, Term
from ..constraints.resolution import decompose
from ..constraints.system import ConstraintSystem
from ..graph.base import (
    OP_RESOLVE,
    OP_SINK,
    OP_SOURCE,
    OP_VAR_VAR,
    Op,
)
from ..graph.inductive import InductiveGraph
from ..graph.order import VariableOrder
from ..graph.standard import StandardGraph
from ..graph.stats import SolverStats
from ..resilience.audit import AuditPolicy, audit_graph
from ..resilience.budget import SolveStatus, edge_estimate
from ..resilience.errors import (
    BudgetExceededError,
    GraphInvariantError,
    SolveCancelledError,
)
from ..trace.sinks import hook
from .options import CyclePolicy, GraphForm, SolverOptions
from .solution import Solution

T = TypeVar("T")


class SolverEngine:
    """Solve one constraint system under one configuration.

    Engines are single-use: construct, :meth:`run`, discard.  The oracle
    policy is handled one level up (:func:`repro.solver.solve`) because
    it needs two engine runs.
    """

    def __init__(self, system: ConstraintSystem,
                 options: SolverOptions) -> None:
        if (options.cycles is CyclePolicy.ORACLE
                and options.alias_map is None):
            raise ValueError(
                "oracle runs must go through repro.solver.solve, which "
                "performs the two-phase witness computation"
            )
        self.system = system
        self.options = options
        self.stats = SolverStats()
        self.diagnostics: List[ConstraintDiagnostic] = []
        self.pending: Deque[Op] = deque()
        self.sink = options.sink
        self._on_resolve = hook(self.sink, "resolve")
        self._on_segment_end = hook(self.sink, "segment_end")
        order = VariableOrder(options.order_spec(), system.num_vars)
        graph_class = (
            StandardGraph
            if options.form is GraphForm.STANDARD
            else InductiveGraph
        )
        self.graph = graph_class(
            system.num_vars,
            order,
            self.stats,
            self.pending.append,
            online_cycles=options.cycles is CyclePolicy.ONLINE,
            search_mode=options.search_mode,
            max_search_visits=options.max_search_visits,
            sink=self.sink,
        )
        self._periodic = options.cycles is CyclePolicy.PERIODIC
        self._periodic_interval = max(1, options.periodic_interval)
        self._since_sweep = 0
        # --- resilience layer -----------------------------------------
        # All of this is inert (and off the closure hot path: the fast
        # `_drain` is taken) unless a budget, cancellation token, or
        # stride audit is configured.
        if options.on_budget not in ("raise", "partial"):
            raise ValueError(
                f"SolverOptions.on_budget must be 'raise' or 'partial', "
                f"got {options.on_budget!r}"
            )
        budget = options.budget
        self._budget = (
            budget if budget is not None and budget.bounded else None
        )
        self._cancellation = options.cancellation
        self._on_budget_partial = options.on_budget == "partial"
        self._check_stride = max(1, options.check_stride)
        self._audit_policy = AuditPolicy.parse(options.audit)
        self._guarded = (
            self._budget is not None
            or self._cancellation is not None
            or self._audit_policy.stride is not None
        )
        self._closure_started = 0.0
        self._segment_work = 0
        self._segment_edges = 0
        #: how the run ended so far; partial statuses are set by the
        #: guarded drain, final statuses by :meth:`_complete`
        self.status = SolveStatus.COMPLETE
        if options.alias_map:
            for var_index, witness_index in options.alias_map.items():
                self.graph.alias(var_index, witness_index)

    # ------------------------------------------------------------------
    def run(self) -> Solution:
        """Close the graph and compute the least solution."""
        if self.options.validate:
            self.system.validate()
        append = self.pending.append
        for left, right in self.system.constraints:
            append((OP_RESOLVE, left, right))
        return self._segment(self._complete)

    def resume(self) -> Solution:
        """Finish a run from the engine's current state.

        Used after a partial stop (``on_budget="partial"``) or on an
        engine rebuilt by :func:`repro.resilience.checkpoint.restore`:
        drains whatever is pending and finalizes.  Budget limits are
        per segment (see :class:`~repro.resilience.budget.SolveBudget`),
        so each resume gets a fresh allowance and makes progress.
        """
        self.status = SolveStatus.COMPLETE
        return self._segment(self._complete)

    def _segment(self, body: Callable[[], T]) -> T:
        """Run ``body`` as one solve segment, then — even if it raised —
        fold the segment's counter delta into the sink."""
        on_segment_end = self._on_segment_end
        if on_segment_end is None:
            return body()
        before = replace(self.stats)
        try:
            return body()
        finally:
            on_segment_end(self.stats.since(before), self.graph)

    def _complete(self) -> Solution:
        """Drain the pending worklist, finalize, and build the solution."""
        sink = self.sink
        started = time.perf_counter()
        self._closure_started = started
        # Segment baselines: budget limits bound this drain's growth,
        # not the cumulative (possibly restored) counters.
        self._segment_work = self.stats.work
        self._segment_edges = edge_estimate(self.stats)
        if sink is not None:
            sink.phase_begin("closure")
        try:
            if self._guarded:
                self._drain_guarded()
            else:
                self._drain()
        finally:
            # += so interrupted closure time survives checkpoint/resume
            # and accumulates across incremental batches.
            self.stats.closure_seconds += time.perf_counter() - started
            if sink is not None:
                sink.phase_end("closure")
        if sink is not None:
            sink.phase_begin("finalize")
        self.graph.finalize_statistics()
        if sink is not None:
            sink.phase_end("finalize")
        if not self.status.is_partial:
            if self._audit_policy.final:
                self._run_audit()
            self.status = (
                SolveStatus.INCONSISTENT
                if self.diagnostics
                else SolveStatus.COMPLETE
            )
        if self.options.strict and self.diagnostics:
            solution = self._make_solution({})
            solution.raise_on_errors()
        started = time.perf_counter()
        if sink is not None:
            sink.phase_begin("least-solution")
        least = self._least_solution()
        self.stats.least_solution_seconds = time.perf_counter() - started
        if sink is not None:
            sink.phase_end("least-solution")
        return self._make_solution(least)

    # ------------------------------------------------------------------
    def _drain(self) -> None:
        pending = self.pending
        popleft = pending.popleft
        graph = self.graph
        add_var_var = graph.add_var_var
        add_source = graph.add_source
        add_sink = graph.add_sink
        resolve = self._resolve
        if not self._periodic:
            # Fast drain: identical dispatch without the per-operation
            # periodic sweep check (the overwhelmingly common case).
            while pending:
                tag, first, second = popleft()
                if tag == OP_VAR_VAR:
                    add_var_var(first, second)
                elif tag == OP_SOURCE:
                    add_source(first, second)
                elif tag == OP_SINK:
                    add_sink(first, second)
                else:
                    resolve(first, second)
            return
        while pending:
            tag, first, second = popleft()
            if tag == OP_VAR_VAR:
                add_var_var(first, second)
                self._periodic_tick()
            elif tag == OP_SOURCE:
                add_source(first, second)
            elif tag == OP_SINK:
                add_sink(first, second)
            else:
                resolve(first, second)

    def _drain_guarded(self) -> None:
        """Drain under budget / cancellation / stride-audit supervision.

        Dispatches identically to :meth:`_drain` (including the periodic
        path), but every ``check_stride`` operations it polls the budget
        and cancellation token, and every ``stride-N`` operations it
        audits the graph invariants.  The
        checks observe and stop — they never reorder or skip operations
        — so counters stay bit-identical to an unguarded run.

        On a limit, either raises (``on_budget="raise"``) or sets a
        partial :attr:`status` and returns with the remaining worklist
        intact, ready for :func:`repro.resilience.checkpoint.capture`
        or :meth:`resume`.
        """
        pending = self.pending
        popleft = pending.popleft
        graph = self.graph
        add_var_var = graph.add_var_var
        add_source = graph.add_source
        add_sink = graph.add_sink
        resolve = self._resolve
        periodic = self._periodic
        stride = self._check_stride
        audit_stride = self._audit_policy.stride
        limits = self._budget is not None or self._cancellation is not None
        since_check = 0
        since_audit = 0
        while pending:
            if limits:
                since_check += 1
                if since_check >= stride:
                    since_check = 0
                    if not self._check_limits():
                        return
            if audit_stride is not None:
                since_audit += 1
                if since_audit >= audit_stride:
                    since_audit = 0
                    self._run_audit()
            tag, first, second = popleft()
            if tag == OP_VAR_VAR:
                add_var_var(first, second)
                if periodic:
                    self._periodic_tick()
            elif tag == OP_SOURCE:
                add_source(first, second)
            elif tag == OP_SINK:
                add_sink(first, second)
            else:
                resolve(first, second)

    def _periodic_tick(self) -> None:
        """Count one var-var addition; sweep every SCC each interval."""
        self._since_sweep += 1
        if self._since_sweep >= self._periodic_interval:
            self._since_sweep = 0
            self.stats.periodic_sweeps += 1
            eliminated = self.graph.collapse_all_sccs()
            if self.sink is not None:
                self.sink.sweep(eliminated)

    def _check_limits(self) -> bool:
        """Poll cancellation and budget; False means stop (partial)."""
        sink = self.sink
        cancellation = self._cancellation
        if cancellation is not None and cancellation.cancelled:
            if sink is not None:
                sink.budget_stop("cancelled", 0.0, self.stats.work)
            if self._on_budget_partial:
                self.status = SolveStatus.CANCELLED
                return False
            raise SolveCancelledError(self.stats.work)
        budget = self._budget
        if budget is not None:
            elapsed = time.perf_counter() - self._closure_started
            hit = budget.exceeded(
                self.stats.work - self._segment_work,
                edge_estimate(self.stats) - self._segment_edges,
                elapsed,
            )
            if hit is not None:
                reason, limit, value = hit
                if sink is not None:
                    sink.budget_stop(reason, limit, value)
                if self._on_budget_partial:
                    self.status = SolveStatus.BUDGET_EXHAUSTED
                    return False
                raise BudgetExceededError(
                    reason, limit, value, self.stats.work
                )
        return True

    def _run_audit(self) -> None:
        """Audit graph invariants; report failures and raise on any."""
        failures = audit_graph(self.graph)
        if not failures:
            return
        sink = self.sink
        if sink is not None:
            for failure in failures:
                sink.audit_failure(failure)
        raise GraphInvariantError(failures)

    def _resolve(self, left: SetExpression, right: SetExpression) -> None:
        """Apply the resolution rules R and enqueue the atomic results."""
        self.stats.resolutions += 1
        on_resolve = self._on_resolve
        if on_resolve is not None:
            on_resolve(left, right)
        atoms: List[Tuple[str, object, object]] = []
        before = len(self.diagnostics)
        decompose(left, right, atoms, self.diagnostics)
        new_clashes = len(self.diagnostics) - before
        self.stats.clashes += new_clashes
        if new_clashes and self.sink is not None:
            for diagnostic in self.diagnostics[before:]:
                self.sink.clash(diagnostic)
        append = self.pending.append
        for tag, a, b in atoms:
            if tag == OP_VAR_VAR:
                append((OP_VAR_VAR, a.index, b.index))
            elif tag == OP_SOURCE:
                append((OP_SOURCE, a, b.index))
            else:
                append((OP_SINK, a.index, b))

    def _least_solution(self) -> Dict[int, FrozenSet[Term]]:
        # Both graph forms implement compute_least_solution: IF sweeps
        # predecessors in rank order (equation (1)); SF reads the
        # explicit source buckets, canonicalized through find.
        return self.graph.compute_least_solution()

    def _make_solution(self, least: Dict[int, FrozenSet[Term]]) -> Solution:
        return Solution(
            self.options,
            self.graph,
            least,
            self.stats,
            self.diagnostics,
            status=self.status,
        )
