"""Counters reported by the solver.

``work`` is the paper's **Work** column (Tables 2 and 3): the total
number of *attempted* atomic edge additions, including redundant
re-additions of edges already present (all of Section 5 is stated in
this quantity).  The other reported columns map onto this container as

* **Edges** (Tables 2 and 3) — :attr:`final_edges`,
* **s** (Tables 2 and 3, the time column) — :attr:`total_seconds`,
* **Elim** (Table 3) — :attr:`vars_eliminated`.

The cycle-search counters back Theorem 5.2's claim that the partial
search visits a small constant number of nodes on average
(:attr:`mean_search_visits` ≈ 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass(slots=True)
class SolverStats:
    """Mutable statistics accumulated during one solver run.

    Declared with ``slots=True``: the counters are incremented on every
    worklist operation, and slot access keeps those increments off the
    instance-dict path.
    """

    #: attempted atomic edge additions (incl. redundant); the Work
    #: column of Tables 2 and 3
    work: int = 0
    #: additions that found the edge already present
    redundant: int = 0
    #: additions dropped because source and target had been collapsed
    self_edges: int = 0
    #: applications of the resolution rules R (source-meets-sink events)
    resolutions: int = 0
    #: inconsistent constraints discovered (constructor clashes etc.)
    clashes: int = 0

    #: online cycle detection: searches started / nodes visited / cycles hit
    cycle_searches: int = 0
    cycle_search_visits: int = 0
    cycles_found: int = 0
    #: variables eliminated by collapsing (forwarded into a witness);
    #: the Elim column of Table 3
    vars_eliminated: int = 0
    #: full offline SCC sweeps performed (periodic policy only)
    periodic_sweeps: int = 0

    #: wall-clock seconds for closure and for least-solution computation
    closure_seconds: float = 0.0
    least_solution_seconds: float = 0.0

    #: final (deduplicated) edge counts, filled in after closure
    final_var_var_edges: int = 0
    final_source_edges: int = 0
    final_sink_edges: int = 0

    def since(self, before: "SolverStats") -> "SolverStats":
        """Field-wise ``self - before``: the counters of one segment."""
        return SolverStats(*(
            getattr(self, f.name) - getattr(before, f.name)
            for f in fields(self)
        ))

    def finalize_edges(self, var_var: int, source: int, sink: int) -> None:
        self.final_var_var_edges = var_var
        self.final_source_edges = source
        self.final_sink_edges = sink

    @property
    def final_edges(self) -> int:
        """Total distinct edges in the final graph (the Edges column of
        Tables 2 and 3)."""
        return (
            self.final_var_var_edges
            + self.final_source_edges
            + self.final_sink_edges
        )

    @property
    def total_seconds(self) -> float:
        """Closure plus least-solution time — the ``s`` (time) column of
        Tables 2 and 3 (the paper's IF convention)."""
        return self.closure_seconds + self.least_solution_seconds

    @property
    def mean_search_visits(self) -> float:
        """Average nodes visited per cycle search (Theorem 5.2's quantity)."""
        if self.cycle_searches == 0:
            return 0.0
        return self.cycle_search_visits / self.cycle_searches

    @property
    def detection_rate(self) -> float:
        """Fraction of partial searches that found a cycle.

        This is the per-*search* hit rate, observable from one run's
        counters alone.  It is distinct from Figure 11's per-*variable*
        detection fraction (variables eliminated online over variables
        in final-graph SCCs), which needs the final SCC denominator —
        see :func:`repro.experiments.figures.figure11` and the
        ``python -m repro.trace`` report for that quantity.
        """
        if self.cycle_searches == 0:
            return 0.0
        return self.cycles_found / self.cycle_searches

    @property
    def visits_per_insertion(self) -> float:
        """Cycle-search nodes visited per unit of Work.

        Theorem 5.2 bounds the *per-search* visit count
        (:attr:`mean_search_visits` ≈ 2.2); this amortizes the same
        numerator over every attempted atomic edge addition (the Work
        column of Tables 2 and 3) instead, so it reads as "how much
        cycle-detection overhead does one insertion carry".  Plain and
        Oracle configurations search nothing, so it is exactly 0 there.
        """
        if self.work == 0:
            return 0.0
        return self.cycle_search_visits / self.work

    @property
    def collapse_ratio(self) -> float:
        """Mean variables eliminated per detected cycle.

        Numerator is Table 3's Elim column (:attr:`vars_eliminated`);
        denominator is the number of partial searches that hit
        (:attr:`cycles_found`).  A ratio above 1 means detected cycles
        collapse more than one variable each — the amplification behind
        Figure 11's per-variable detection fractions exceeding the
        per-search hit rate.
        """
        if self.cycles_found == 0:
            return 0.0
        return self.vars_eliminated / self.cycles_found

    #: ``as_dict`` keys that are derived properties, not stored fields.
    DERIVED_KEYS = (
        "final_edges",
        "total_seconds",
        "mean_search_visits",
        "detection_rate",
        "visits_per_insertion",
        "collapse_ratio",
    )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary view used by the experiment report writers.

        Contains every stored counter plus the derived properties named
        in :data:`DERIVED_KEYS`; :meth:`from_dict` inverts it exactly
        (derived keys are recomputed, so the pair round-trips).
        """
        return {
            "work": self.work,
            "redundant": self.redundant,
            "self_edges": self.self_edges,
            "resolutions": self.resolutions,
            "clashes": self.clashes,
            "cycle_searches": self.cycle_searches,
            "cycle_search_visits": self.cycle_search_visits,
            "cycles_found": self.cycles_found,
            "vars_eliminated": self.vars_eliminated,
            "periodic_sweeps": self.periodic_sweeps,
            "final_edges": self.final_edges,
            "final_var_var_edges": self.final_var_var_edges,
            "final_source_edges": self.final_source_edges,
            "final_sink_edges": self.final_sink_edges,
            "closure_seconds": self.closure_seconds,
            "least_solution_seconds": self.least_solution_seconds,
            "total_seconds": self.total_seconds,
            "mean_search_visits": self.mean_search_visits,
            "detection_rate": self.detection_rate,
            "visits_per_insertion": self.visits_per_insertion,
            "collapse_ratio": self.collapse_ratio,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "SolverStats":
        """Rebuild stats from :meth:`as_dict` output.

        Derived keys are ignored (they are recomputed on access), and
        unknown keys raise so schema drift fails loudly.
        """
        field_names = {f.name for f in fields(cls)}
        unknown = set(payload) - field_names - set(cls.DERIVED_KEYS)
        if unknown:
            raise KeyError(
                f"unknown SolverStats keys: {sorted(unknown)}"
            )
        stats = cls()
        for name in field_names:
            if name in payload:
                setattr(stats, name, payload[name])
        return stats
