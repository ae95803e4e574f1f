"""Each benchmark workload ends in one well-formed result line.

perfbench/run.py prints ``"metrics": {}`` when every item raises, for
example after a change to a package API that perfbench/workloads.py
calls.  A short run of each workload catches that here.
"""

import json
import math
import subprocess
import sys

import pytest

from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _reject_constant(name):
    raise ValueError("non-finite number %s in the result line" % name)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_a_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]
