"""Shared machinery of the two constraint-graph representations.

Both standard form and inductive form keep, per variable:

* ``sources`` — source terms known to flow into the variable,
* ``sinks`` — sink terms the variable flows into,
* ``succ_vars`` / ``pred_vars`` — variable-variable adjacency (SF uses
  only successor lists; IF splits edges by the order ``o(.)``).

Each bucket is an insertion-ordered ``dict`` used as a set (key →
``None``): propagation iterates buckets, and the order operations are
emitted in decides the Work count, so iterating in insertion order
makes Work a function of the constraint system and the variable order
alone — not of string hashing, which varies between processes.

Adjacency buckets store raw integer variable ids.  Collapsed variables
are forwarded through a union-find; stale ids in adjacency buckets are
resolved lazily via ``find`` whenever they are read.  Propagation never
mutates the graph directly — it *emits* atomic operations onto the
engine's worklist, which keeps the closure incremental and makes the
Work metric (one unit per processed operation) well defined.

A fan-out loop — one new edge paired with every member of a bucket —
emits a single *batch* entry instead of one op per member: the batch
tag plus a ``tuple`` snapshot of the bucket on one side (buckets keep
growing, and ``_absorb`` replaces them).  :func:`expand` turns a batch
back into its single ops.  The engine runs them in order when the
entry is popped — var-var batches through :meth:`add_var_vars_left` /
:meth:`add_var_vars_right`, which inductive form overrides — and they
would have sat next to each other in the FIFO worklist, so the op
sequence, and with it every counter, is the same as if each had been
queued on its own.  Work counts expanded single ops; a batch entry is
not a unit.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..constraints.expressions import Term
from ..trace.sinks import TraceSink, hook
from .cycles import SearchMode, find_chain_path
from .order import VariableOrder
from .stats import SolverStats
from .unionfind import UnionFind

#: Operation tags understood by the solver engine's worklist.
OP_VAR_VAR = "vv"
OP_SOURCE = "sv"
OP_SINK = "vs"
OP_RESOLVE = "rr"

#: Batch tags: the bucket snapshot is a tuple in the left (``<``) or
#: right (``>``) slot, e.g. ``(OP_VAR_VARS_LEFT, (x1, x2), y)`` stands
#: for ``("vv", x1, y), ("vv", x2, y)``.
OP_VAR_VARS_LEFT = "vv<"
OP_VAR_VARS_RIGHT = "vv>"
OP_SOURCES_LEFT = "sv<"
OP_SOURCES_RIGHT = "sv>"
OP_SINKS_LEFT = "vs<"
OP_SINKS_RIGHT = "vs>"

#: batch tag -> (single-op tag, whether the tuple is in the left slot)
BATCH_TAGS: Dict[str, Tuple[str, bool]] = {
    OP_VAR_VARS_LEFT: (OP_VAR_VAR, True),
    OP_VAR_VARS_RIGHT: (OP_VAR_VAR, False),
    OP_SOURCES_LEFT: (OP_SOURCE, True),
    OP_SOURCES_RIGHT: (OP_SOURCE, False),
    OP_SINKS_LEFT: (OP_SINK, True),
    OP_SINKS_RIGHT: (OP_SINK, False),
}

#: A worklist entry: (tag, payload, payload).  Under a single-op tag
#: both payloads are operands; under a batch tag one is a tuple of
#: operands, each paired with the other payload.
Op = Tuple[str, object, object]


def expand(entry: Op) -> Iterator[Op]:
    """Yield the single ops of ``entry``, in order (itself if single)."""
    tag, first, second = entry
    batch = BATCH_TAGS.get(tag)
    if batch is None:
        yield entry
        return
    single, spread_left = batch
    if spread_left:
        for item in first:
            yield (single, item, second)
    else:
        for item in second:
            yield (single, first, item)


class ConstraintGraphBase:
    """State and behaviour common to SF and IF graphs."""

    #: set by subclasses; used in reports
    form_name = "base"

    def __init__(
        self,
        num_vars: int,
        order: VariableOrder,
        stats: SolverStats,
        emit: Callable[[Op], None],
        online_cycles: bool = False,
        search_mode: SearchMode = SearchMode.DECREASING,
        max_search_visits: Optional[int] = None,
        sink: Optional[TraceSink] = None,
    ) -> None:
        self.num_vars = num_vars
        self.order = order
        self.stats = stats
        self.emit = emit
        self.online_cycles = online_cycles
        self.search_mode = search_mode
        self.max_search_visits = max_search_visits
        self.sink = sink
        # Per-unit events go only to a sink that overrides them; call
        # sites test these for None.
        self._on_edge = hook(sink, "edge")
        self._on_collapse = hook(sink, "collapse")
        self._on_search_start = hook(sink, "search_start")
        self._on_search_visit = hook(sink, "search_visit")
        self._on_search_end = hook(sink, "search_end")
        self.unionfind = UnionFind(num_vars)
        # Hot-path bindings: `find` and `rank` are called several times
        # per worklist operation, so shadow the convenience methods below
        # with direct bound callables (one call frame less per lookup).
        # `_uf_parent` and `_ranks` alias the underlying arrays so the
        # add_* fast paths can test "is already a representative" and
        # compare ranks with plain list indexing instead of a call.  All
        # of these stay valid across `grow` because UnionFind and
        # VariableOrder extend their backing lists in place.
        self.find = self.unionfind.find
        self.rank = order.ranks.__getitem__
        self._uf_parent = self.unionfind._parent
        self._ranks = order.ranks
        self.succ_vars: List[Dict[int, None]] = [
            {} for _ in range(num_vars)
        ]
        self.pred_vars: List[Dict[int, None]] = [
            {} for _ in range(num_vars)
        ]
        self.sources: List[Dict[Term, None]] = [{} for _ in range(num_vars)]
        self.sinks: List[Dict[Term, None]] = [{} for _ in range(num_vars)]

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def find(self, var_index: int) -> int:  # shadowed in __init__
        return self.unionfind.find(var_index)

    def rank(self, var_index: int) -> int:  # shadowed in __init__
        return self.order.ranks[var_index]

    def grow(self, num_vars: int) -> None:
        """Admit late-created variables (used by incremental clients)."""
        if num_vars <= self.num_vars:
            return
        self.order.ensure(num_vars)
        self.unionfind.grow(num_vars)
        for collection in (
            self.succ_vars,
            self.pred_vars,
            self.sources,
            self.sinks,
        ):
            while len(collection) < num_vars:
                collection.append({})
        self.num_vars = num_vars

    def alias(self, var_index: int, witness_index: int) -> None:
        """Pre-collapse a variable onto a witness (oracle experiments).

        Must be called before any constraint touching ``var_index`` is
        processed; no constraint migration is performed.
        """
        self.unionfind.union_into(witness_index, var_index)

    # ------------------------------------------------------------------
    # Representation hooks (implemented by SF / IF)
    # ------------------------------------------------------------------
    def add_var_var(self, left: int, right: int) -> None:
        raise NotImplementedError

    def add_source(self, term: Term, var_index: int) -> None:
        raise NotImplementedError

    def add_sink(self, var_index: int, term: Term) -> None:
        raise NotImplementedError

    def add_var_vars_left(self, lefts: Iterable[int], right: int) -> None:
        """``add_var_var(left, right)`` for each of ``lefts``, in order:
        the single ops of an ``OP_VAR_VARS_LEFT`` batch."""
        add_var_var = self.add_var_var
        for left in lefts:
            add_var_var(left, right)

    def add_var_vars_right(self, left: int, rights: Iterable[int]) -> None:
        """``add_var_var(left, right)`` for each of ``rights``, in order:
        the single ops of an ``OP_VAR_VARS_RIGHT`` batch."""
        add_var_var = self.add_var_var
        for right in rights:
            add_var_var(left, right)

    # ------------------------------------------------------------------
    # Cycle collapse (shared by both forms)
    # ------------------------------------------------------------------
    def collapse_path(self, path: Sequence[int]) -> int:
        """Collapse the distinct representatives on ``path``.

        The witness is the lowest vertex in the order ``o(.)`` (this
        preserves inductive form, Section 2.5).  Every absorbed vertex's
        constraints are re-emitted against the witness through the normal
        insertion path, so the closure remains correct without a special
        cross-product step.  Returns the witness id.
        """
        nodes = []
        seen = set()
        for raw in path:
            node = self.find(raw)
            if node not in seen:
                seen.add(node)
                nodes.append(node)
        witness = min(nodes, key=self.rank)
        self.stats.cycles_found += 1
        if self._on_collapse is not None and len(nodes) > 1:
            self._on_collapse(witness, tuple(nodes))
        for node in nodes:
            if node != witness:
                self._absorb(node, witness)
        return witness

    def _absorb(self, absorbed: int, witness: int) -> None:
        """Forward ``absorbed`` into ``witness`` and re-emit its edges."""
        self.unionfind.union_into(witness, absorbed)
        self.stats.vars_eliminated += 1
        emit = self.emit
        sources = self.sources[absorbed]
        sinks = self.sinks[absorbed]
        succs = self.succ_vars[absorbed]
        preds = self.pred_vars[absorbed]
        if sources:
            emit((OP_SOURCES_LEFT, tuple(sources), witness))
        if sinks:
            emit((OP_SINKS_RIGHT, witness, tuple(sinks)))
        if succs:
            emit((OP_VAR_VARS_RIGHT, witness, tuple(succs)))
        if preds:
            emit((OP_VAR_VARS_LEFT, tuple(preds), witness))
        self.sources[absorbed] = {}
        self.sinks[absorbed] = {}
        self.succ_vars[absorbed] = {}
        self.pred_vars[absorbed] = {}

    def collapse_all_sccs(self) -> int:
        """Collapse every non-trivial SCC of the current var-var graph.

        This is the *periodic simplification* baseline from the paper's
        introduction (cf. [FA96, FF97, MW97]): a full offline pass,
        run every so often, as opposed to the partial online search.
        Returns the number of variables eliminated by this sweep.
        """
        from .scc import strongly_connected_components

        vertices = [
            rep for rep in self.unionfind.representatives()
            if rep < self.num_vars
        ]
        edges = []
        for rep in vertices:
            for succ in self.canonical_successors(rep):
                edges.append((rep, succ))
            for pred in self.canonical_predecessors(rep):
                edges.append((pred, rep))
        eliminated_before = self.stats.vars_eliminated
        for component in strongly_connected_components(vertices, edges):
            if len(component) >= 2:
                self.collapse_path(component)
        return self.stats.vars_eliminated - eliminated_before

    def _search_and_collapse(
        self,
        adjacency: Sequence[Dict[int, None]],
        start: int,
        target: int,
        mode: SearchMode,
    ) -> bool:
        """Run the partial chain search; collapse and report any cycle."""
        path = find_chain_path(
            adjacency,
            self.find,
            self.rank,
            start,
            target,
            mode,
            self.stats,
            self.max_search_visits,
            self._on_search_start,
            self._on_search_visit,
            self._on_search_end,
        )
        if path is None:
            return False
        self.collapse_path(path)
        return True

    # ------------------------------------------------------------------
    # Final-graph accounting
    # ------------------------------------------------------------------
    def canonical_successors(self, var_index: int) -> Set[int]:
        """Deduplicated, find-resolved successor set (no self loops)."""
        rep = self.find(var_index)
        out = {self.find(raw) for raw in self.succ_vars[rep]}
        out.discard(rep)
        return out

    def canonical_predecessors(self, var_index: int) -> Set[int]:
        rep = self.find(var_index)
        out = {self.find(raw) for raw in self.pred_vars[rep]}
        out.discard(rep)
        return out

    def var_var_edges(self) -> Iterator[Tuple[int, int]]:
        """Stored var-var edges as ``(left, right)``, ids not ``find``-ed.

        Exact for plain runs, where nothing collapses, so Tarjan over
        them gives the final SCCs.  (SF stores no predecessor edges.)
        """
        for left, successors in enumerate(self.succ_vars):
            for right in successors:
                yield left, right
        for right, predecessors in enumerate(self.pred_vars):
            for left in predecessors:
                yield left, right

    def finalize_statistics(self) -> None:
        """Fill the final edge counts into the stats object."""
        var_var = 0
        source_edges = 0
        sink_edges = 0
        for rep in self.unionfind.representatives():
            if rep >= self.num_vars:
                continue
            var_var += len(self.canonical_successors(rep))
            var_var += len(self.canonical_predecessors(rep))
            source_edges += len(self.sources[rep])
            sink_edges += len(self.sinks[rep])
        self.stats.finalize_edges(var_var, source_edges, sink_edges)

    def representatives(self) -> List[int]:
        return [rep for rep in self.unionfind.representatives()]

    def compute_least_solution(self):
        """``LS`` for every representative; implemented per graph form.

        Standard form reads it off the explicit source buckets
        (canonicalized through ``find``); inductive form evaluates
        equation (1) in rank order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not compute least solutions"
        )
