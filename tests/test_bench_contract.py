"""perfbench's traced self-test, run on each workload.

`perfbench/run.py --trace 1` requires every op of a traced pass to
succeed, every span it names in EXPECTED_CALLS to record calls, and
`fixed_precision` to evaluate no mp point.  These tests run one traced
pass per workload (perfbench/child.py, in a fresh interpreter from the
repository root) and assert the same, so a change that breaks the
benchmark's call graph fails here.  They also require `fixed_precision`
to run no integer ODE march: its dd evaluations read exact values, and
on a double-marched solution those would come from one.  They read
perfbench/ and write nothing.
"""

import json
import os
import runpy
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


# the one list of required spans, as perfbench/run.py defines it
EXPECTED_CALLS = runpy.run_path(os.path.join(BENCH, "run.py"))[
    "EXPECTED_CALLS"]


@pytest.mark.parametrize("workload", sorted(EXPECTED_CALLS))
def test_traced_pass_keeps_the_benchmark_contract(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "--workload",
         workload, "--seed", "1", "--mode", "traced", "--spawned",
         repr(time.perf_counter())],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    failed = [(op["name"], op["why"]) for op in out["ops"] if not op["ok"]]
    assert not failed
    silent = [name for name in EXPECTED_CALLS[workload]
              if out["calls"].get(name, 0) == 0]
    assert not silent, f"spans with no calls: {silent}"
    if workload == "fixed_precision":
        assert out["layers"]["evalcore.points.mp"] == 0
        assert out["calls"].get("ode._solve_series_mp", 0) == 0
