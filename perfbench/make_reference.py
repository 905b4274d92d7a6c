"""Regenerate ``reference.json``: reference points-to digests.

Solves every program of the canonical full suite with the independent
reference solver (:func:`repro.solver.solve_reference`) and stores one
digest of its points-to graph per program.  Takes about a minute on one
core.  Run from the repository root::

    PYTHONHASHSEED=0 python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import REFERENCE_PATH, pointsto_digest  # noqa: E402
from repro.andersen import PointsToResult, analyze_unit  # noqa: E402
from repro.cfront import parse  # noqa: E402
from repro.solver import solve_reference  # noqa: E402
from repro.workloads.generator import generate_program  # noqa: E402
from repro.workloads.suite import FULL_SUITE  # noqa: E402


def main() -> int:
    programs = {}
    for config in FULL_SUITE:
        source = generate_program(config)
        program = analyze_unit(parse(source, config.name),
                               source_lines=source.count("\n") + 1)
        started = time.perf_counter()
        result = PointsToResult(program, solve_reference(program.system))
        programs[config.name] = {
            "digest": pointsto_digest(result),
            "pointsto_edges": result.total_edges(),
            "vars": program.system.num_vars,
        }
        print(f"{config.name}: {time.perf_counter() - started:.2f}s",
              file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"solver": "repro.solver.solve_reference",
                   "suite": "full, canonical generator seeds",
                   "programs": programs}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
