"""Incremental solving.

The whole point of *online* cycle elimination is that the solver never
needs to see the constraint set up front — so expose that: an
:class:`IncrementalSolver` accepts constraints one at a time (closing
the graph after each batch) and answers least-solution queries between
additions.  Batch solving is the special case of one big batch.

Restrictions: the oracle policy needs the final graph and therefore
cannot run incrementally (use NONE or ONLINE); each :meth:`add` closes
the graph without supervision, so solve budgets, cancellation tokens
and graph audits are refused rather than silently ignored; and
variables must be created through :meth:`fresh_var` so the graph can
grow with them.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional

from ..constraints.errors import ConstraintDiagnostic
from ..constraints.expressions import SetExpression, Term, Var
from ..constraints.system import ConstraintSystem
from ..graph.base import OP_RESOLVE
from ..resilience.audit import AuditPolicy
from .engine import SolverEngine
from .options import CyclePolicy, SolverOptions


class IncrementalSolver:
    """Add constraints and query solutions at any time."""

    def __init__(self, options: Optional[SolverOptions] = None) -> None:
        if options is None:
            options = SolverOptions()
        if options.cycles is CyclePolicy.ORACLE:
            raise ValueError(
                "the oracle needs the complete constraint set; use "
                "CyclePolicy.NONE or CyclePolicy.ONLINE incrementally"
            )
        budget = options.budget
        if ((budget is not None and budget.bounded)
                or options.cancellation is not None
                or AuditPolicy.parse(options.audit).enabled):
            raise ValueError(
                "IncrementalSolver.add closes the graph unsupervised: "
                "budgets, cancellation tokens and audits would never be "
                "checked; solve the system in batch to use them"
            )
        self.system = ConstraintSystem("incremental")
        self.options = options
        self._engine = SolverEngine(self.system, options)
        self._least: Optional[Dict[int, FrozenSet[Term]]] = None

    # ------------------------------------------------------------------
    # Construction API (delegates to the underlying system)
    # ------------------------------------------------------------------
    def constructor(self, name, signature=()):
        return self.system.constructor(name, signature)

    def term(self, constructor, args=(), label=None) -> Term:
        return self.system.term(constructor, args, label)

    def fresh_var(self, name: str = "") -> Var:
        var = self.system.fresh_var(name)
        self._engine.graph.grow(self.system.num_vars)
        return var

    @property
    def zero(self) -> Term:
        return self.system.zero

    @property
    def one(self) -> Term:
        return self.system.one

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def add(self, left: SetExpression, right: SetExpression) -> None:
        """Add one constraint and immediately close the graph."""
        self.system.add(left, right)
        self._engine.pending.append((OP_RESOLVE, left, right))
        self._engine._segment(self._close)
        self._least = None  # invalidate

    def _close(self) -> None:
        """Drain the pending worklist: one solve segment."""
        started = time.perf_counter()
        self._engine._drain()
        self._engine.stats.closure_seconds += time.perf_counter() - started

    def add_all(self, pairs) -> None:
        for left, right in pairs:
            self.add(left, right)

    def least_solution(self, var: Var) -> FrozenSet[Term]:
        """Current least solution of ``var`` (recomputed lazily).

        Shares :meth:`~repro.graph.base.ConstraintGraphBase.
        compute_least_solution` with the batch engine; for standard
        form that accumulates source buckets through ``find`` instead
        of reading ``sources[rep]`` directly, so a query between
        batches cannot miss terms still attached to a vertex an online
        collapse absorbed (the SF-Online differential tests pin this
        against the reference solver).
        """
        if self._least is None:
            self._least = self._engine.graph.compute_least_solution()
        rep = self._engine.graph.find(var.index)
        return self._least.get(rep, frozenset())

    # ------------------------------------------------------------------
    # Checkpoint / restore between batches
    # ------------------------------------------------------------------
    def checkpoint(self):
        """Snapshot the engine between batches (see
        :mod:`repro.resilience.checkpoint`)."""
        from ..resilience.checkpoint import capture

        return capture(self._engine)

    def restore(self, checkpoint) -> None:
        """Replace the engine with one rebuilt from ``checkpoint``.

        The system may have grown (``fresh_var``) since the capture;
        restore keeps the checkpoint's materialized variable order for
        the saved prefix and extends it deterministically, so
        continuing to ``add`` after a restore reproduces the exact
        counters of a never-interrupted run.
        """
        from ..resilience.checkpoint import restore as restore_engine

        self._engine = restore_engine(
            self.system, self.options, checkpoint
        )
        self._least = None  # invalidate

    def same_component(self, a: Var, b: Var) -> bool:
        return (
            self._engine.graph.find(a.index)
            == self._engine.graph.find(b.index)
        )

    @property
    def stats(self):
        return self._engine.stats

    @property
    def diagnostics(self) -> List[ConstraintDiagnostic]:
        return self._engine.diagnostics
