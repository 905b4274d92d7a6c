"""Inductive form (IF) — paper Section 2.4.

A variable-variable constraint ``X <= Y`` is stored according to the
total order ``o(.)``:

* ``o(X) > o(Y)``: successor edge ``Y in succ(X)``;
* ``o(X) < o(Y)``: predecessor edge ``X in pred(Y)``.

Either way the edge lives at the *higher*-ordered endpoint, which is
what makes the graph "inductive".  The closure rule pairs the
predecessors of a variable (sources **or** variables) with its
successors (sinks **or** variables):

    L ...-> X -> R   =>   L <= R

so — unlike SF — closure adds transitive variable-variable edges.  The
least solution is *not* explicit; it is computed afterwards by equation
(1) of the paper, sweeping variables in increasing order.

Online cycle elimination (Figure 3): inserting a successor edge
``X -> Y`` searches the predecessor chains of ``X`` for ``Y``;
inserting a predecessor edge searches the successor chains.  The
decreasing-rank restriction is implied by the representation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from ..constraints.expressions import Term
from .base import (
    ConstraintGraphBase,
    OP_RESOLVE,
    OP_SINK,
    OP_SOURCE,
    OP_VAR_VAR,
)
from .cycles import SearchMode


class InductiveGraph(ConstraintGraphBase):
    """Constraint graph in inductive form."""

    form_name = "inductive"

    def add_var_var(self, left: int, right: int) -> None:
        """Process ``X <= Y``, routing the edge by the variable order.

        The bodies of ``_add_successor`` / ``_add_predecessor`` are
        inlined here: this method runs once per ``vv`` worklist
        operation — by far the most frequent operation under IF, whose
        closure adds transitive var-var edges — and the extra method
        call plus repeated `find` frames were measurable in profiles.
        """
        stats = self.stats
        stats.work += 1
        on_edge = self._on_edge
        parent = self._uf_parent
        if parent[left] != left:
            left = self.find(left)
        if parent[right] != right:
            right = self.find(right)
        if left == right:
            stats.self_edges += 1
            if on_edge is not None:
                on_edge("vv", left, right, "self")
            return
        ranks = self._ranks
        if ranks[left] > ranks[right]:
            # Successor edge stored at `left`.
            bucket = self.succ_vars[left]
            if right in bucket:
                stats.redundant += 1
                if on_edge is not None:
                    on_edge("vv", left, right, "redundant")
                return
            if self.online_cycles:
                # A predecessor chain right -> ... -> left plus the new
                # edge left -> right closes a cycle.
                if self._search_and_collapse(
                    self.pred_vars, left, right, SearchMode.DECREASING
                ):
                    if on_edge is not None:
                        on_edge("vv", left, right, "cycle")
                    return
            bucket[right] = None
            if on_edge is not None:
                on_edge("vv", left, right, "added")
            emit = self.emit
            for pred in self.pred_vars[left]:
                emit((OP_VAR_VAR, pred, right))
            for term in self.sources[left]:
                emit((OP_SOURCE, term, right))
        else:
            # Predecessor edge stored at `right`.
            bucket = self.pred_vars[right]
            if left in bucket:
                stats.redundant += 1
                if on_edge is not None:
                    on_edge("vv", left, right, "redundant")
                return
            if self.online_cycles:
                # A successor chain right -> ... -> left plus the new
                # edge closes a cycle.
                if self._search_and_collapse(
                    self.succ_vars, right, left, SearchMode.DECREASING
                ):
                    if on_edge is not None:
                        on_edge("vv", left, right, "cycle")
                    return
            bucket[left] = None
            if on_edge is not None:
                on_edge("vv", left, right, "added")
            emit = self.emit
            for succ in self.succ_vars[right]:
                emit((OP_VAR_VAR, left, succ))
            for term in self.sinks[right]:
                emit((OP_SINK, left, term))

    def add_source(self, term: Term, var_index: int) -> None:
        """Process ``c(...) <= X`` (sources sit in predecessor position)."""
        stats = self.stats
        stats.work += 1
        on_edge = self._on_edge
        if self._uf_parent[var_index] != var_index:
            var_index = self.find(var_index)
        bucket = self.sources[var_index]
        # Single-probe redundancy check (see StandardGraph.add_source).
        size = len(bucket)
        bucket[term] = None
        if len(bucket) == size:
            stats.redundant += 1
            if on_edge is not None:
                on_edge("sv", term, var_index, "redundant")
            return
        if on_edge is not None:
            on_edge("sv", term, var_index, "added")
        emit = self.emit
        for succ in self.succ_vars[var_index]:
            emit((OP_SOURCE, term, succ))
        for sink in self.sinks[var_index]:
            emit((OP_RESOLVE, term, sink))

    def add_sink(self, var_index: int, term: Term) -> None:
        """Process ``X <= c(...)`` (sinks sit in successor position)."""
        stats = self.stats
        stats.work += 1
        on_edge = self._on_edge
        if self._uf_parent[var_index] != var_index:
            var_index = self.find(var_index)
        bucket = self.sinks[var_index]
        size = len(bucket)
        bucket[term] = None
        if len(bucket) == size:
            stats.redundant += 1
            if on_edge is not None:
                on_edge("vs", var_index, term, "redundant")
            return
        if on_edge is not None:
            on_edge("vs", var_index, term, "added")
        emit = self.emit
        for pred in self.pred_vars[var_index]:
            emit((OP_SINK, pred, term))
        for source in self.sources[var_index]:
            emit((OP_RESOLVE, source, term))

    # ------------------------------------------------------------------
    # Least solution — equation (1) of the paper.
    # ------------------------------------------------------------------
    def compute_least_solution(self) -> Dict[int, FrozenSet[Term]]:
        """Compute ``LS`` for every representative variable.

        ``LS(Y) = sources(Y) ∪ ⋃ { LS(X) | X in pred(Y) }`` evaluated in
        increasing order of ``o(.)`` — every variable predecessor has a
        strictly smaller rank, so a single sweep suffices.
        """
        reps: List[int] = [
            rep for rep in self.unionfind.representatives()
            if rep < self.num_vars
        ]
        reps.sort(key=self.rank)
        solution: Dict[int, FrozenSet[Term]] = {}
        for rep in reps:
            preds = self.canonical_predecessors(rep)
            if not preds:
                solution[rep] = frozenset(self.sources[rep])
                continue
            merged = set(self.sources[rep])
            for pred in preds:
                merged.update(solution[pred])
            solution[rep] = frozenset(merged)
        return solution
