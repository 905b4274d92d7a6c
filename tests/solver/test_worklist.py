"""Batched worklist entries: one deque entry per fan-out loop.

A batch stands for a run of contiguous single ops.  These tests pin
that the drains, the budget/audit strides and checkpoints all see the
single ops, so every counter matches the one-op-per-entry worklist.
"""

import pytest

from repro import ConstraintSystem, Variance
from repro.andersen import analyze_unit
from repro.bench.measure import counters_of
from repro.experiments.config import options_for
from repro.graph.base import (
    BATCH_TAGS,
    OP_SOURCE,
    OP_SOURCES_LEFT,
    OP_SOURCES_RIGHT,
    expand,
)
from repro.resilience import (
    CancellationToken,
    EngineCheckpoint,
    SolveBudget,
    capture,
    restore,
)
from repro.solver import (
    CyclePolicy,
    GraphForm,
    SolverEngine,
    SolverOptions,
    solve,
)
from repro.workloads import benchmark

SINGLE_TAGS = {"vv", "sv", "vs", "rr"}
ENGINE_LABELS = ("SF-Plain", "IF-Plain", "SF-Online", "IF-Online")


def fan_out_system():
    """Five sources into X, then X <= Y and X <= Z.

    Under SF-Plain the five ``sv`` ops into X are Work 1-5, the two
    var-var ops Work 6-7, and each emits one ``sv<`` batch of the five
    sources: Work 8-12 into Y, then 13-17 into Z.
    """
    system = ConstraintSystem()
    c = system.constructor("c", (Variance.COVARIANT,))
    x, y, z = system.fresh_vars(3)
    for index in range(5):
        system.add(system.term(c, (system.zero,), label=f"s{index}"), x)
    system.add(x, y)
    system.add(x, z)
    return system


def quick_system(name="ks"):
    return analyze_unit(benchmark(name).unit).system


def resume_from(system, label, engine):
    return restore(
        system, options_for(label),
        EngineCheckpoint.from_bytes(capture(engine).to_bytes()),
    )


def test_expand_yields_single_ops_in_order():
    assert list(expand((OP_SOURCES_LEFT, ("a", "b"), 7))) == [
        (OP_SOURCE, "a", 7), (OP_SOURCE, "b", 7),
    ]
    assert list(expand((OP_SOURCES_RIGHT, "a", (1, 2)))) == [
        (OP_SOURCE, "a", 1), (OP_SOURCE, "a", 2),
    ]
    single = (OP_SOURCE, "a", 1)
    assert list(expand(single)) == [single]


def test_stop_inside_batch_captures_single_ops():
    system = fan_out_system()
    uninterrupted = SolverEngine(system, options_for("SF-Plain")).run()
    assert uninterrupted.stats.work == 17
    engine = SolverEngine(system, options_for(
        "SF-Plain", budget=SolveBudget(max_work=9), on_budget="partial",
        check_stride=1,
    ))
    assert engine.run().is_partial
    assert engine.stats.work == 9
    # Two ops into Y ran; the rest of that batch went back onto the
    # front as single ops, and the batch into Z was never popped.
    assert [entry[0] for entry in engine.pending] == [
        OP_SOURCE, OP_SOURCE, OP_SOURCE, OP_SOURCES_LEFT,
    ]
    restored = resume_from(system, "SF-Plain", engine)
    assert [entry[0] for entry in restored.pending] == [OP_SOURCE] * 8
    resumed = restored.resume()
    assert counters_of(resumed) == counters_of(uninterrupted)
    for var in system.variables:
        assert (resumed.least_solution(var)
                == uninterrupted.least_solution(var))


@pytest.mark.parametrize("label", ENGINE_LABELS)
def test_cuts_across_a_run_flatten_and_resume(label):
    """Every tenth Work count of a ks run as a cut point: each capture
    holds single ops only, and each resume ends where the uninterrupted
    run does."""
    system = quick_system()
    want = counters_of(SolverEngine(system, options_for(label)).run())
    saw_batch = False
    for cut in range(1, want["work"], max(1, want["work"] // 10)):
        engine = SolverEngine(system, options_for(
            label, budget=SolveBudget(max_work=cut), on_budget="partial",
            check_stride=1,
        ))
        assert engine.run().is_partial
        saw_batch |= any(entry[0] in BATCH_TAGS for entry in engine.pending)
        restored = resume_from(system, label, engine)
        assert {entry[0] for entry in restored.pending} <= SINGLE_TAGS
        assert counters_of(restored.resume()) == want
    assert saw_batch, "no cut left a batch entry to flatten"


@pytest.mark.parametrize("label", ENGINE_LABELS)
@pytest.mark.parametrize("name, audit", (("ks", "stride-1"),
                                         ("eqntott", "final")))
def test_stride_one_checks_keep_counters(label, name, audit):
    """Cancellation polls (and on ks invariant audits) before every
    single op — the guarded drain, which runs batches one op at a
    time — leave every counter as the bare fast drain has it, whose
    IF var-var batches skip re-added edges without a call.  (A stride-1
    audit of eqntott would take minutes.)"""
    system = quick_system(name)
    bare = solve(system, options_for(label))
    guarded = solve(system, options_for(
        label, audit=audit, check_stride=1,
        cancellation=CancellationToken(),
    ))
    assert counters_of(guarded) == counters_of(bare)


#: PERIODIC counters on quick-suite ks at ``periodic_interval=50``,
#: recorded before fan-out loops were batched.
PERIODIC_KS = {
    GraphForm.STANDARD: {
        "work": 1240, "redundant": 496, "self_edges": 139,
        "resolutions": 330, "clashes": 0, "cycle_searches": 0,
        "cycle_search_visits": 0, "cycles_found": 11,
        "vars_eliminated": 64, "periodic_sweeps": 7, "final_edges": 360,
    },
    GraphForm.INDUCTIVE: {
        "work": 1046, "redundant": 200, "self_edges": 305,
        "resolutions": 405, "clashes": 0, "cycle_searches": 0,
        "cycle_search_visits": 0, "cycles_found": 18,
        "vars_eliminated": 64, "periodic_sweeps": 15, "final_edges": 296,
    },
}


@pytest.mark.parametrize("form", list(GraphForm))
@pytest.mark.parametrize("guarded", (False, True))
def test_periodic_counters_pinned(form, guarded):
    """The periodic drain ticks once per single var-var op, in both
    the plain and the guarded drain."""
    extra = {"audit": "stride-1"} if guarded else {}
    solution = solve(quick_system(), SolverOptions(
        form=form, cycles=CyclePolicy.PERIODIC, periodic_interval=50,
        **extra,
    ))
    assert counters_of(solution) == PERIODIC_KS[form]
