"""Partial online cycle detection (paper Figure 3).

The search is a depth-first walk that differs from ordinary DFS in one
way: it only steps to vertices *lower* in the variable order ``o(.)``
than the current vertex.  This restriction is what makes the search
cheap (Theorem 5.2: ~2.2 nodes visited on average for sparse graphs) at
the price of detecting only some cycles.

For inductive form the restriction is already implied by the edge
representation; for standard form it is essential — without it every
edge insertion would trigger a full DFS, which is impractical
(Section 2.5).  The paper also mentions an *increasing chains* variant
for SF with a higher detection rate but a much higher cost; we expose it
as :data:`SearchMode.INCREASING` for the ablation benchmark.
"""

from __future__ import annotations

import enum
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
)

from .stats import SolverStats


class SearchMode(enum.Enum):
    """Direction of the rank restriction during the chain search."""

    #: follow only edges to lower-ranked vertices (the paper's algorithm)
    DECREASING = "decreasing"
    #: follow only edges to higher-ranked vertices (SF ablation, Section 4)
    INCREASING = "increasing"


def find_chain_path(
    adjacency: Sequence[Dict[int, None]],
    find: Callable[[int], int],
    rank: Callable[[int], int],
    start: int,
    target: int,
    mode: SearchMode,
    stats: SolverStats,
    max_visits: Optional[int] = None,
    on_start: Optional[Callable[[int, int], None]] = None,
    on_visit: Optional[Callable[[int], None]] = None,
    on_end: Optional[Callable[[bool, int, int], None]] = None,
) -> Optional[List[int]]:
    """Search for a chain from ``start`` to ``target``.

    ``adjacency[v]`` holds raw (possibly stale) variable indices; every
    neighbour is resolved through ``find`` before use.  A neighbour ``w``
    is followed only when its rank relates to the current vertex's rank
    according to ``mode``.  Returns the path ``[start, ..., target]``
    (representatives, each vertex once) or ``None`` when no chain was
    found within the optional visit budget.

    The optional hooks are a trace sink's ``search_start``,
    ``search_visit`` (one call per popped node) and ``search_end``
    (visit count and, on a hit, cycle length) methods; each one left
    ``None`` costs a local ``None`` check.
    """
    stats.cycle_searches += 1
    if on_start is not None:
        on_start(start, target)
    if start == target:
        # A self-constraint; nothing to collapse beyond the vertex itself.
        if on_end is not None:
            on_end(True, 0, 1)
        return [start]
    decreasing = mode is SearchMode.DECREASING
    visited: Set[int] = {start}
    visited_add = visited.add
    parent: Dict[int, int] = {}
    stack: List[int] = [start]
    stack_pop = stack.pop
    stack_append = stack.append
    visits = 0
    while stack:
        current = stack_pop()
        visits += 1
        if on_visit is not None:
            on_visit(current)
        if max_visits is not None and visits > max_visits:
            break
        current_rank = rank(current)
        for raw in adjacency[current]:
            neighbour = find(raw)
            if neighbour in visited or neighbour == current:
                continue
            neighbour_rank = rank(neighbour)
            if decreasing:
                if neighbour_rank >= current_rank:
                    continue
            else:
                if neighbour_rank <= current_rank:
                    continue
            visited_add(neighbour)
            parent[neighbour] = current
            if neighbour == target:
                stats.cycle_search_visits += visits
                path = _reconstruct(parent, start, target)
                if on_end is not None:
                    on_end(True, visits, len(path))
                return path
            stack_append(neighbour)
    stats.cycle_search_visits += visits
    if on_end is not None:
        on_end(False, visits, 0)
    return None


def _reconstruct(parent: Dict[int, int], start: int, target: int) -> List[int]:
    """Walk parent pointers back from ``target`` and return start..target."""
    path = [target]
    node = target
    while node != start:
        node = parent[node]
        path.append(node)
    path.reverse()
    return path
