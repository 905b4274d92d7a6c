"""Solved constraint systems.

A :class:`Solution` bundles the least solution, the final graph, the
statistics of the run, and any inconsistency diagnostics.  It is
immutable from the caller's perspective; all queries are read-only.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from ..constraints.errors import (
    ConstraintDiagnostic,
    InconsistentConstraintError,
)
from ..constraints.expressions import Term, Var
from ..graph.base import ConstraintGraphBase
from ..graph.scc import SccSummary, summarize_sccs
from ..graph.stats import SolverStats
from ..resilience.budget import SolveStatus
from .options import CyclePolicy, SolverOptions


class Solution:
    """The result of solving a constraint system.

    :attr:`status` records how the run ended.  For a partial status
    (:attr:`SolveStatus.is_partial` — budget exhausted or cancelled) the
    graph may not be fully closed, and every query degrades to a *sound
    lower bound*: :meth:`least_solution` returns a subset of the true
    least solution (closure only derives facts implied by the input, so
    nothing reported can be wrong — but facts may be missing), and
    :meth:`same_component` may answer ``False`` for variables a complete
    run would have collapsed (``True`` answers remain correct).
    Diagnostics recorded so far are genuine inconsistencies, but absence
    of diagnostics on a partial run proves nothing.
    """

    def __init__(
        self,
        options: SolverOptions,
        graph: ConstraintGraphBase,
        least: Dict[int, FrozenSet[Term]],
        stats: SolverStats,
        diagnostics: List[ConstraintDiagnostic],
        status: SolveStatus = SolveStatus.COMPLETE,
    ) -> None:
        self.options = options
        self.graph = graph
        self._least = least
        self.stats = stats
        self.diagnostics = diagnostics
        #: how the run ended (see the class docstring for the partial
        #: soundness contract)
        self.status = status
        #: filled by solve_with_oracle: the phase-1 (SF-Plain) solution
        self.oracle_phase1: Optional["Solution"] = None
        #: number of variables pre-collapsed by the oracle witness map
        self.oracle_witnessed: int = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def least_solution(self, var: Var) -> FrozenSet[Term]:
        """The least solution of ``var``: a set of source terms."""
        rep = self.graph.find(var.index)
        return self._least.get(rep, frozenset())

    def least_solution_by_index(self, index: int) -> FrozenSet[Term]:
        rep = self.graph.find(index)
        return self._least.get(rep, frozenset())

    def representative(self, var: Var) -> int:
        """The witness index ``var`` was collapsed onto (itself if none)."""
        return self.graph.find(var.index)

    def same_component(self, a: Var, b: Var) -> bool:
        """Whether two variables were collapsed together."""
        return self.graph.find(a.index) == self.graph.find(b.index)

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def is_partial(self) -> bool:
        """Whether the run stopped before reaching a fixed point."""
        return self.status.is_partial

    def raise_on_errors(self) -> None:
        """Raise on the first recorded inconsistency, if any."""
        if self.diagnostics:
            raise InconsistentConstraintError(self.diagnostics[0])

    # ------------------------------------------------------------------
    # Final-graph SCC statistics (Table 1 / Figure 11 denominators)
    # ------------------------------------------------------------------
    def final_scc_summary(self) -> SccSummary:
        """SCC summary of the final var-var constraint graph.

        Read off the graph, so only a complete plain run can answer;
        any other run raises :class:`ValueError`.
        """
        if self.options.cycles is not CyclePolicy.NONE:
            raise ValueError(f"{self.options.label} collapses variables")
        if self.status.is_partial:
            raise ValueError(f"not a complete run ({self.status.value})")
        graph = self.graph
        return summarize_sccs(range(graph.num_vars), graph.var_var_edges())

    def __repr__(self) -> str:
        if self.status is not SolveStatus.COMPLETE:
            return (
                f"Solution({self.options.label}, "
                f"status={self.status.value}, work={self.stats.work}, "
                f"edges={self.stats.final_edges}, "
                f"eliminated={self.stats.vars_eliminated})"
            )
        return (
            f"Solution({self.options.label}, work={self.stats.work}, "
            f"edges={self.stats.final_edges}, "
            f"eliminated={self.stats.vars_eliminated})"
        )
