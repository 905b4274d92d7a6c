"""Oracle cycle elimination (paper Section 4).

The oracle experiments measure a *lower bound*: perfect cycle
elimination at zero detection cost.  The paper implements it by letting
an oracle predict, at variable-creation time, which strongly connected
component the variable will eventually join, and substituting the
component's witness.

We realize the oracle in two phases:

1. **Phase 1** solves the system as SF-Plain for both forms: the SCC
   partition is a property of the closure, not of the form (IF only
   adds transitive edges).  Nothing collapses in a plain run, so Tarjan
   over its final graph's var-var edges yields the final SCCs; each maps
   onto its smallest member, a witness that depends only on the
   partition.
2. **Phase 2** re-solves the same system in the requested form with
   every SCC member pre-collapsed onto its witness before any
   constraint is processed.

Phase 2's statistics are the oracle numbers; phase 1 is attached to the
returned solution for inspection but its cost is *not* charged to the
oracle (matching the paper's zero-cost idealization) — neither in the
solution's statistics nor in the counters a sink folds.
"""

from __future__ import annotations

from ..constraints.system import ConstraintSystem
from ..graph.scc import witness_map
from .engine import SolverEngine
from .options import CyclePolicy, GraphForm, SolverOptions
from .solution import Solution


def solve_with_oracle(
    system: ConstraintSystem, options: SolverOptions
) -> Solution:
    """Run the two-phase oracle experiment for ``options.form``."""
    phase1_engine = SolverEngine(system, options.replace(
        form=GraphForm.STANDARD, cycles=CyclePolicy.NONE, alias_map=None,
    ))
    # Not charged to the oracle: the sink sees phase 1's phases and
    # events, but folds no counters from it.
    phase1_engine._on_segment_end = None
    phase1 = phase1_engine.run()
    mapping = witness_map(
        range(system.num_vars), phase1.graph.var_var_edges()
    )
    solution = SolverEngine(system, options.replace(
        cycles=CyclePolicy.NONE, alias_map=mapping,
    )).run()
    # Present the run under its true label (e.g. "IF-Oracle").
    solution.options = options
    solution.oracle_phase1 = phase1
    solution.oracle_witnessed = len(mapping)
    return solution
