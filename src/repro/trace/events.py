"""The solver event vocabulary.

Every observable solver action maps to exactly one :class:`TraceSink`
method and one canonical event name.  The names below are what appears
in JSONL logs (the ``ev`` field) and — embedded in ``args`` — in the
Chrome trace export, so converters can round-trip events losslessly.

Event schema (``args`` keys per event):

===================  ==================================================
event                args
===================  ==================================================
``edge``             ``kind`` ("vv"/"sv"/"vs"), ``src``, ``dst``,
                     ``outcome`` ("added"/"redundant"/"self"/"cycle")
``resolve``          ``left``, ``right`` (stringified set expressions)
``clash``            ``kind``, ``message``
``search.start``     ``start``, ``target``
``search.visit``     ``node``
``search.end``       ``found`` (bool), ``visits``, ``length``
``collapse``         ``witness``, ``members`` (list of variable ids)
``sweep``            ``eliminated``
``phase.begin``      ``name`` ("closure"/"finalize"/"least-solution")
``phase.end``        ``name``
``audit.failure``    ``check``, ``subject`` (variable id), ``detail``
``budget.stop``      ``reason`` ("work"/"deadline"/"edges"/"cancelled"),
                     ``limit``, ``value``
``segment.end``      the segment's counter delta, keyed as
                     :meth:`repro.graph.stats.SolverStats.as_dict`
===================  ==================================================

``edge`` outcomes follow the Work-metric accounting of
:class:`repro.graph.stats.SolverStats`: every attempted atomic addition
emits one event; ``redundant`` and ``self`` mirror the same-named
counters, and ``cycle`` marks an insertion consumed by an online
collapse instead of landing in the graph.

``segment.end`` closes one solve segment (a ``SolverEngine`` run or
resume, raised and partial exits included, or one
``IncrementalSolver.add``).  Sinks that only count read every counter
``SolverStats`` keeps from it, once per segment, instead of counting
the per-unit events.  Each method name is its event name with ``.``
replaced by ``_`` (:data:`EVENT_METHODS`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

EV_EDGE = "edge"
EV_RESOLVE = "resolve"
EV_CLASH = "clash"
EV_SEARCH_START = "search.start"
EV_SEARCH_VISIT = "search.visit"
EV_SEARCH_END = "search.end"
EV_COLLAPSE = "collapse"
EV_SWEEP = "sweep"
EV_PHASE_BEGIN = "phase.begin"
EV_PHASE_END = "phase.end"
EV_AUDIT = "audit.failure"
EV_BUDGET_STOP = "budget.stop"
EV_SEGMENT_END = "segment.end"

#: Every event name, in documentation order.
EVENT_NAMES = (
    EV_EDGE,
    EV_RESOLVE,
    EV_CLASH,
    EV_SEARCH_START,
    EV_SEARCH_VISIT,
    EV_SEARCH_END,
    EV_COLLAPSE,
    EV_SWEEP,
    EV_PHASE_BEGIN,
    EV_PHASE_END,
    EV_AUDIT,
    EV_BUDGET_STOP,
    EV_SEGMENT_END,
)

#: The :class:`~repro.trace.sinks.TraceSink` method of each event.
EVENT_METHODS = tuple(name.replace(".", "_") for name in EVENT_NAMES)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded solver event.

    ``ts`` is seconds since the recording sink's epoch
    (``time.perf_counter`` based, so only differences are meaningful).
    """

    name: str
    ts: float
    args: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_jsonl_obj(cls, obj: Dict[str, object]) -> "TraceEvent":
        args = {
            key: value for key, value in obj.items()
            if key not in ("ev", "ts")
        }
        return cls(name=str(obj["ev"]), ts=float(obj["ts"]), args=args)
