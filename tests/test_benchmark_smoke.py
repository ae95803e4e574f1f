"""Each benchmark workload ends in one well-formed result line.

perfbench/run.py prints ``"metrics": {}`` when every item raises, for
example after a change to a package API that perfbench/workloads.py
calls.  A short run of each workload, untraced and traced, catches that
here.
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


def _result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    return result


def _require_finite(result, specs):
    for metric in specs:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), metric["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_a_result(workload):
    _require_finite(_result_line(workload, 0), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_workload_prints_every_layer_metric(workload):
    _require_finite(_result_line(workload, 1), SPEC["per_layer"])
