"""Correctness gate behind the benchmark's ``attempted``/``failed`` counts.

Every answer a workload produces is checked here, outside the timed
region.  Points-to answers are compared with digests of the independent
reference solver (:func:`repro.solver.solve_reference`) stored in
``reference.json``; least solutions do not depend on the variable order,
so the digests of the canonical suite programs hold for every workload
seed.  ``make_reference.py`` regenerates the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def pointsto_digest(result) -> str:
    """Order-independent digest of one points-to graph.

    ``result`` is a :class:`repro.andersen.PointsToResult`; its solution
    may be a solver ``Solution``, an ``IncrementalSolver`` or a
    ``ReferenceResult`` — all answer ``least_solution(var)``.
    """
    text = json.dumps(result.as_name_graph(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, dict]:
    """Program name -> ``{"digest", "pointsto_edges", "vars"}``."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def load_baseline(root: str) -> Dict[tuple, Dict[str, int]]:
    """``(benchmark, experiment) -> counters`` from the committed
    quick-suite ``benchmarks/BASELINE.json``."""
    path = os.path.join(root, "benchmarks", "BASELINE.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    return {
        (record["benchmark"], record["experiment"]): record["counters"]
        for record in report["records"]
    }


class Checks:
    """Counts checks attempted and failed; keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def equal(self, actual, expected, what: str) -> bool:
        return self.expect(
            actual == expected,
            f"{what}: got {actual!r}, expected {expected!r}",
        )
