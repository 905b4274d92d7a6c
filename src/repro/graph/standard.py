"""Standard form (SF) — paper Section 2.3.

All variable-variable constraints are successor edges; sources live in
predecessor position, sinks in successor position.  The closure rule

    L ...-> X -> R   =>   L <= R      (L always a source term)

propagates source terms forward to every reachable variable, so the
final graph contains the least solution explicitly: ``LS(X)`` is exactly
the source set of ``X``.

Online cycle elimination for SF (Section 2.5): when adding a successor
edge ``X -> Y``, search along successor edges *from Y* for a successor
chain back to ``X``, following only edges that point to lower-indexed
variables.  The paper's "increasing chains" ablation flips that
restriction.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..constraints.expressions import Term
from .base import (
    ConstraintGraphBase,
    OP_RESOLVE,
    OP_SOURCE,
)


class StandardGraph(ConstraintGraphBase):
    """Constraint graph in standard form."""

    form_name = "standard"

    def add_var_var(self, left: int, right: int) -> None:
        """Process the atomic constraint ``X <= Y`` (a successor edge)."""
        stats = self.stats
        stats.work += 1
        on_edge = self._on_edge
        parent = self._uf_parent
        find = self.find
        if parent[left] != left:
            left = find(left)
        if parent[right] != right:
            right = find(right)
        if left == right:
            stats.self_edges += 1
            if on_edge is not None:
                on_edge("vv", left, right, "self")
            return
        bucket = self.succ_vars[left]
        if right in bucket:
            stats.redundant += 1
            if on_edge is not None:
                on_edge("vv", left, right, "redundant")
            return
        if self.online_cycles:
            # Search for a successor chain right -> ... -> left; together
            # with the new edge left -> right it forms a cycle.
            collapsed = self._search_and_collapse(
                self.succ_vars, right, left, self.search_mode
            )
            if collapsed:
                # left and right are now the same vertex; the new edge
                # would be a self loop.
                left = find(left)
                right = find(right)
                if left == right:
                    if on_edge is not None:
                        on_edge("vv", left, right, "cycle")
                    return
                bucket = self.succ_vars[left]
        bucket[right] = None
        if on_edge is not None:
            on_edge("vv", left, right, "added")
        emit = self.emit
        for term in self.sources[left]:
            emit((OP_SOURCE, term, right))

    def add_source(self, term: Term, var_index: int) -> None:
        """Process ``c(...) <= X``: record and propagate forward."""
        stats = self.stats
        stats.work += 1
        on_edge = self._on_edge
        if self._uf_parent[var_index] != var_index:
            var_index = self.find(var_index)
        bucket = self.sources[var_index]
        # Single-probe redundancy check: storing a duplicate key leaves
        # the size unchanged, sparing the separate `in` lookup.
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
        """Process ``X <= c(...)``: record and resolve against sources."""
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
        for source in self.sources[var_index]:
            emit((OP_RESOLVE, source, term))

    # ------------------------------------------------------------------
    # Least solution: explicit in SF.
    # ------------------------------------------------------------------
    def compute_least_solution(self) -> Dict[int, FrozenSet[Term]]:
        """``LS`` for every representative — explicit in standard form.

        Canonicalized through ``find``: source terms are accumulated
        from *every* variable's bucket onto its representative, not
        read off ``sources[rep]`` alone, so the result is correct even
        if a collapse has absorbed a source-carrying vertex whose
        bucket migration is still pending on the worklist (``_absorb``
        re-emits absorbed sources as worklist operations rather than
        moving them synchronously).  Pure read — no counters are
        touched.
        """
        find = self.find
        sources = self.sources
        merged: Dict[int, set] = {
            rep: set()
            for rep in self.unionfind.representatives()
            if rep < self.num_vars
        }
        for index in range(self.num_vars):
            bucket = sources[index]
            if bucket:
                merged[find(index)].update(bucket)
        return {
            rep: frozenset(terms) for rep, terms in merged.items()
        }
