"""Differential fuzzing of the solver configurations.

Every Table-4 configuration — both graph forms, with and without cycle
elimination, plus the two-phase oracle — must compute the *same* least
solution and the same consistency verdict for any constraint system;
they differ only in how much work they spend (that is the point of the
paper).  The naive reference solver (:func:`repro.solver.solve_reference`)
computes the same answers by brute-force saturation.  This module
exploits that redundancy: generate seeded random systems
(:func:`repro.workloads.generator.random_system`), solve each under all
six configurations plus the reference, and cross-check

* **least solutions** — every variable's solution under every
  configuration equals the reference's;
* **consistency verdicts** — a configuration reports diagnostics iff
  the reference does;
* **collapse equivalence** — variables a configuration collapsed into
  one component must have equal reference least solutions (collapsing
  is only sound for variables on a common cycle);
* **SCC partition** — the final-graph SCCs of SF-Plain and IF-Plain
  are the same partition, and every Oracle run collapsed exactly that
  partition (the oracle reads it off one SF-Plain run for both forms,
  so this checks the shortcut rather than assuming it);
* **resume** — each non-Oracle run, stopped by a Work budget at a
  drawn cut point, checkpointed, restored and resumed, ends with the
  uninterrupted run's counters and the reference's answers;
* **periodic** — both forms under ``CyclePolicy.PERIODIC`` (offline
  SCC sweeps at a drawn interval) agree with the reference.

Any disagreement is shrunk (ddmin over the constraint list, then greedy
single removals to 1-minimality) and saved as a JSON reproducer under
``tests/fuzz_corpus/`` so the failure outlives the fuzzing process and
becomes a regression test input.

Entry points: :func:`run_fuzz` (library), ``python -m repro.resilience
fuzz`` (CLI, used by the CI ``fuzz-smoke`` job).
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..bench.measure import counters_of
from ..constraints.constructors import ONE_CONSTRUCTOR, ZERO_CONSTRUCTOR
from ..constraints.expressions import ONE, SetExpression, Var, ZERO
from ..constraints.system import ConstraintSystem
from ..constraints.variance import Variance
from ..experiments.config import EXPERIMENT_LABELS, options_for
from ..graph.scc import strongly_connected_components
from ..parallel import map_tasks
from ..parallel.tasks import fuzz_task, shard_ranges
from ..solver import (
    CyclePolicy,
    GraphForm,
    ReferenceResult,
    Solution,
    SolverEngine,
    SolverOptions,
    solve,
    solve_reference,
)
from ..workloads.generator import RandomSystemConfig
from .budget import SolveBudget
from .checkpoint import EngineCheckpoint, capture, restore
from .errors import ResilienceError

#: Reproducer file format version.
CORPUS_FORMAT = 1

#: Default directory disagreement reproducers are saved under.
DEFAULT_CORPUS_DIR = os.path.join("tests", "fuzz_corpus")


@dataclass
class FuzzDisagreement:
    """One cross-config disagreement, shrunk and saved."""

    #: seed of the generated system that disagreed
    seed: int
    #: experiment label that disagreed with the reference
    label: str
    #: "verdict" | "least-solution" | "collapse" | "partition" | "resume"
    kind: str
    #: human-readable description of the mismatch
    detail: str
    #: constraint count of the (shrunk) reproducer
    constraints: int
    #: where the reproducer was written (None if saving was disabled)
    path: Optional[str] = None

    def __str__(self) -> str:
        where = f" -> {self.path}" if self.path else ""
        return (
            f"seed {self.seed}: {self.label} {self.kind}: {self.detail} "
            f"({self.constraints} constraints){where}"
        )


def _collapse_classes(
    system: ConstraintSystem, solution: Solution,
) -> List[List[Var]]:
    """The system's variables grouped by their representative."""
    components: Dict[int, List[Var]] = {}
    for var in system.variables:
        components.setdefault(solution.representative(var), []).append(var)
    return list(components.values())


def _compare(
    system: ConstraintSystem, reference: ReferenceResult,
    solution: Solution,
) -> Optional[Tuple[str, str]]:
    """Verdict, least-solution and collapse checks of one solution
    against the reference; ``(kind, detail)`` of the first mismatch."""
    reference_ok = not reference.diagnostics
    if solution.ok != reference_ok:
        return (
            "verdict",
            f"{'consistent' if solution.ok else 'inconsistent'} but "
            f"reference says "
            f"{'consistent' if reference_ok else 'inconsistent'}",
        )
    for var in system.variables:
        got = solution.least_solution(var)
        want = reference.least_solution(var)
        if got != want:
            missing = sorted(map(str, want - got))
            extra = sorted(map(str, got - want))
            return (
                "least-solution",
                f"LS({var}) missing={missing} extra={extra}",
            )
    for members in _collapse_classes(system, solution):
        base = reference.least_solution(members[0])
        for other in members[1:]:
            if reference.least_solution(other) != base:
                return (
                    "collapse",
                    f"{members[0]} and {other} collapsed together but "
                    f"have different reference least solutions",
                )
    return None


def _check_resume(
    system: ConstraintSystem, reference: ReferenceResult, label: str,
    seed: int, uninterrupted: Solution, rng: random.Random,
) -> Optional[str]:
    """Cut ``label``'s run at a random Work count, then capture, round-
    trip through bytes, restore and resume.  The resumed run must end
    with the uninterrupted run's counters and the reference's answers;
    returns the detail of the first mismatch, if any.

    ``check_stride=1`` polls the budget before every single op, so the
    cut can fall inside a batch entry.
    """
    work = uninterrupted.stats.work
    if work < 2:
        return None
    cut = rng.randrange(1, work)
    engine = SolverEngine(system, options_for(
        label, seed=seed, budget=SolveBudget(max_work=cut),
        on_budget="partial", check_stride=1,
    ))
    engine.run()
    restored = restore(
        system, options_for(label, seed=seed),
        EngineCheckpoint.from_bytes(capture(engine).to_bytes()),
    )
    resumed = restored.resume()
    got, want = counters_of(resumed), counters_of(uninterrupted)
    if got != want:
        diff = {name: (want[name], got[name])
                for name in want if got[name] != want[name]}
        return f"cut at work {cut}: counters (want, got) {diff}"
    mismatch = _compare(system, reference, resumed)
    if mismatch is not None:
        return f"cut at work {cut}: {mismatch[0]}: {mismatch[1]}"
    return None


def check_system(
    system: ConstraintSystem,
    labels: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> Optional[Tuple[str, str, str]]:
    """Solve under every configuration and cross-check against reference.

    Returns ``None`` on agreement, else ``(label, kind, detail)`` for
    the first disagreement found.  ``seed`` is the variable-order seed
    passed to each configuration (the *system* is fixed; the order seed
    only changes how much work each run does, never its answers).

    Besides the one-shot runs, each non-Oracle label is also solved in
    two segments (kind ``"resume"``: a Work budget cut at a point drawn
    from ``seed`` and the system's size, checkpoint, restore, resume),
    and both forms under ``CyclePolicy.PERIODIC`` at an interval drawn
    the same way (labels like ``SF-Periodic(7)``).
    """
    reference = solve_reference(system)
    rng = random.Random(f"{seed}:{len(system)}:{system.num_vars}")
    partitions: Dict[str, FrozenSet[FrozenSet[int]]] = {}
    for label in labels or EXPERIMENT_LABELS:
        solution = solve(system, options_for(label, seed=seed))
        mismatch = _compare(system, reference, solution)
        if mismatch is not None:
            return (label, *mismatch)
        if not label.endswith("Oracle"):
            detail = _check_resume(
                system, reference, label, seed, solution, rng
            )
            if detail is not None:
                return (label, "resume", detail)
            continue
        partitions[label] = frozenset(
            frozenset(var.index for var in members)
            for members in _collapse_classes(system, solution)
            if len(members) > 1
        )
    for form in GraphForm:
        options = SolverOptions(
            form=form, cycles=CyclePolicy.PERIODIC, seed=seed,
            periodic_interval=rng.randrange(1, 16),
        )
        mismatch = _compare(system, reference, solve(system, options))
        if mismatch is not None:
            return (options.label, *mismatch)
    # SCC partition: read off both Plain final graphs (solved here, so
    # the check runs whatever ``labels`` selects), then every Oracle
    # run's collapse classes must equal SF-Plain's.
    for label in ("SF-Plain", "IF-Plain"):
        graph = solve(system, options_for(label, seed=seed)).graph
        partitions[label] = frozenset(
            frozenset(component)
            for component in strongly_connected_components(
                range(system.num_vars), graph.var_var_edges()
            )
            if len(component) > 1
        )
    want = partitions.pop("SF-Plain")
    for label, got in partitions.items():
        if got != want:
            missing = sorted(map(sorted, want - got))
            extra = sorted(map(sorted, got - want))
            return (
                label,
                "partition",
                f"differs from SF-Plain's final SCCs: "
                f"missing={missing} extra={extra}",
            )
    return None


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def subsystem(
    system: ConstraintSystem,
    indices: Sequence[int],
    name: Optional[str] = None,
) -> ConstraintSystem:
    """Copy ``system`` keeping only the constraints at ``indices``.

    All variables and constructors are kept (so variable indices — and
    with them the seeded variable order — are stable under shrinking);
    expressions are rebuilt against the copy because ``Var`` objects are
    owned by their system of origin.
    """
    copy = ConstraintSystem(name or f"{system.name}-shrunk")
    for ctor in system._constructors.values():
        if ctor is not ZERO_CONSTRUCTOR and ctor is not ONE_CONSTRUCTOR:
            copy.constructor(ctor.name, ctor.signature)
    fresh = [copy.fresh_var(var.name) for var in system.variables]

    def rebuild(expr: SetExpression) -> SetExpression:
        if isinstance(expr, Var):
            return fresh[expr.index]
        if expr is ZERO or expr is ONE:
            return expr
        return copy.term(
            expr.constructor.name,
            tuple(rebuild(arg) for arg in expr.args),
            expr.label,
        )

    constraints = system.constraints
    for index in indices:
        left, right = constraints[index]
        copy.add(rebuild(left), rebuild(right))
    return copy


def shrink_constraints(
    system: ConstraintSystem,
    failing: Callable[[ConstraintSystem], bool],
) -> ConstraintSystem:
    """Shrink ``system`` to a 1-minimal subset still satisfying ``failing``.

    ddmin-style chunk removal (halving chunk sizes) followed by the
    implicit chunk-size-1 pass, which guarantees no single constraint
    can be removed from the result.
    """
    keep = list(range(len(system.constraints)))
    chunk = max(1, len(keep) // 2)
    while True:
        index = 0
        while index < len(keep):
            trial = keep[:index] + keep[index + chunk:]
            if trial and failing(subsystem(system, trial)):
                keep = trial
            else:
                index += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)
    return subsystem(system, keep)


# ----------------------------------------------------------------------
# JSON reproducers
# ----------------------------------------------------------------------
def _expr_to_json(expr: SetExpression) -> object:
    if isinstance(expr, Var):
        return {"var": expr.index}
    if expr is ZERO:
        return {"zero": True}
    if expr is ONE:
        return {"one": True}
    label = expr.label
    if label is not None and not isinstance(label, str):
        label = str(label)
    return {
        "term": expr.constructor.name,
        "args": [_expr_to_json(arg) for arg in expr.args],
        "label": label,
    }


def system_to_json(system: ConstraintSystem) -> dict:
    """Serialize a system to the corpus JSON shape."""
    constructors = [
        {"name": ctor.name,
         "signature": [variance.value for variance in ctor.signature]}
        for ctor in system._constructors.values()
        if ctor is not ZERO_CONSTRUCTOR and ctor is not ONE_CONSTRUCTOR
    ]
    return {
        "name": system.name,
        "variables": [var.name for var in system.variables],
        "constructors": constructors,
        "constraints": [
            [_expr_to_json(left), _expr_to_json(right)]
            for left, right in system.constraints
        ],
    }


def system_from_json(payload: dict) -> ConstraintSystem:
    """Rebuild a system from :func:`system_to_json` output."""
    system = ConstraintSystem(payload.get("name", "corpus"))
    for entry in payload["constructors"]:
        system.constructor(
            entry["name"],
            tuple(Variance(mark) for mark in entry["signature"]),
        )
    variables = [system.fresh_var(name) for name in payload["variables"]]

    def build(node: object) -> SetExpression:
        if not isinstance(node, dict):
            raise ResilienceError(f"bad corpus expression {node!r}")
        if "var" in node:
            return variables[node["var"]]
        if node.get("zero"):
            return ZERO
        if node.get("one"):
            return ONE
        return system.term(
            node["term"],
            tuple(build(arg) for arg in node["args"]),
            node.get("label"),
        )

    for left, right in payload["constraints"]:
        system.add(build(left), build(right))
    return system


def save_reproducer(
    directory: str, disagreement: FuzzDisagreement,
    system: ConstraintSystem,
) -> str:
    """Write one shrunk reproducer; returns the file path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"disagreement-seed{disagreement.seed}.json"
    )
    document = {
        "format": CORPUS_FORMAT,
        "seed": disagreement.seed,
        "label": disagreement.label,
        "kind": disagreement.kind,
        "detail": disagreement.detail,
        "system": system_to_json(system),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_reproducer(path: str) -> Tuple[ConstraintSystem, dict]:
    """Load a corpus file; returns ``(system, metadata)``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("format")
    if version != CORPUS_FORMAT:
        raise ResilienceError(
            f"unsupported corpus format {version!r} in {path} "
            f"(this build reads {CORPUS_FORMAT})"
        )
    return system_from_json(document["system"]), document


# ----------------------------------------------------------------------
# The fuzzing loop
# ----------------------------------------------------------------------
#: System-shape profiles the fuzzer rotates through.  The "flow"
#: profile has no sinks, so its systems are always consistent and the
#: differential signal is purely least-solution propagation and cycle
#: collapsing; "mixed" and "clash" add sinks, structural constraints,
#: and 0/1 extremes, so resolution and diagnostics are exercised too.
PROFILES: Dict[str, dict] = {
    "flow": dict(sinks=0, structural=0, extremes=0.0, feedback=0.4),
    "mixed": dict(),
    "clash": dict(structural=10, extremes=0.15),
}


def _config_for(index: int, seed: int,
                rng: random.Random) -> RandomSystemConfig:
    shape = dict(
        seed=seed,
        variables=rng.randrange(6, 40),
        atoms=rng.randrange(2, 8),
        var_var=rng.randrange(8, 60),
        sources=rng.randrange(4, 20),
        sinks=rng.randrange(4, 16),
        max_depth=rng.randrange(1, 4),
    )
    shape.update(list(PROFILES.values())[index % len(PROFILES)])
    return RandomSystemConfig(**shape)


#: Systems per fuzz task.  The shards do not depend on ``jobs``, so the
#: progress lines (one per shard) are the same for any ``--jobs``.
SHARD_SYSTEMS = 25


def run_fuzz(
    count: int = 200,
    seed: int = 0,
    labels: Optional[Sequence[str]] = None,
    corpus_dir: Optional[str] = DEFAULT_CORPUS_DIR,
    shrink: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> List[FuzzDisagreement]:
    """Fuzz ``count`` seeded systems; returns all disagreements found.

    Deterministic in ``seed``: system ``i`` is generated from
    ``seed * 1_000_003 + i`` with a shape drawn from a ``seed``-keyed
    stream, so any reported disagreement reproduces from its seed alone.
    Disagreements are shrunk (unless ``shrink=False``) and saved under
    ``corpus_dir`` (unless ``None``).

    The index range is cut into contiguous shards of
    :data:`SHARD_SYSTEMS`, each checked by
    :func:`repro.parallel.tasks.fuzz_task` through
    :func:`repro.parallel.map_tasks` (``jobs == 1`` in this process,
    ``jobs <= 0`` one worker per core).  Shards ship disagreements back
    as corpus JSON; this process merges them in index order and writes
    every reproducer, so the returned list and the corpus directory do
    not depend on ``jobs``.
    """
    payloads = [
        {
            "seed": seed,
            "labels": list(labels) if labels else None,
            "start": start,
            "stop": stop,
            "shrink": shrink,
        }
        for start, stop in shard_ranges(
            count, -(-count // SHARD_SYSTEMS)
        )
    ]
    disagreements: List[FuzzDisagreement] = []
    checked = 0
    for result in map_tasks(fuzz_task, payloads, jobs):
        for entry in result["disagreements"]:
            disagreement = FuzzDisagreement(
                seed=entry["seed"],
                label=entry["label"],
                kind=entry["kind"],
                detail=entry["detail"],
                constraints=entry["constraints"],
            )
            if corpus_dir is not None:
                disagreement.path = save_reproducer(
                    corpus_dir, disagreement,
                    system_from_json(entry["system"]),
                )
            disagreements.append(disagreement)
            if progress is not None:
                progress(f"DISAGREEMENT {disagreement}")
        checked += result["checked"]
        if progress is not None:
            progress(f"{checked}/{count} systems checked")
    return disagreements
