"""Work counters are a function of the input alone.

Graph buckets iterate in insertion order, so the order in which the
solver emits operations — and with it every counter — cannot depend on
string hashing.  Each case solves the quick suite under all six Table-4
configurations in a fresh interpreter with a different
``PYTHONHASHSEED`` (or none) and demands byte-identical counters to the
committed ``benchmarks/BASELINE.json``.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))

_COUNTERS_SCRIPT = """
import json, sys
from repro.bench.measure import counters_of
from repro.experiments.config import EXPERIMENT_LABELS, options_for
from repro.solver import solve
from repro.workloads import suite

out = {}
for bench in suite("quick"):
    for label in EXPERIMENT_LABELS:
        solution = solve(bench.program.system, options_for(label, seed=0))
        out[bench.name + "/" + label] = counters_of(solution)
json.dump(out, sys.stdout, sort_keys=True)
"""


def baseline_counters():
    path = os.path.join(REPO, "benchmarks", "BASELINE.json")
    with open(path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    return {
        f"{record['benchmark']}/{record['experiment']}": record["counters"]
        for record in baseline["records"]
    }


@pytest.mark.parametrize("hash_seed", ["1", None], ids=["seed-1", "unset"])
def test_quick_suite_counters_match_baseline(hash_seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    env.pop("PYTHONHASHSEED", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    result = subprocess.run(
        [sys.executable, "-c", _COUNTERS_SCRIPT],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert result.returncode == 0, result.stderr
    expected = json.dumps(baseline_counters(), sort_keys=True)
    assert result.stdout == expected
