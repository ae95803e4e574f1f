"""Pins on the outputs that the basis of modules.hom_space fixes.

The report digests cannot see that basis: no suite prints a Hom map.
It fixes the maps that ``compute trace-basis`` prints, and the class of
Ext^1 that the ext-sweep benchmark extends by (ext.ext1 reads Hom(K, A)
through hom_space).  A new Hom route must reproduce both.
"""

import hashlib
import types

import pytest

from matlislab.cli import run_compute

from conftest import FIXTURE_NAMES, ROOT, load


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


TRACE_BASIS_DIGESTS = {
    "R3": "e945be567ed6",
    "R4": "4593428d0083",
    "KXY": "647c2fb221db",
    "V2": "62b933835f83",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_trace_basis_output_is_pinned(name):
    fx = load(name)
    text = "\n".join("%s\n%s" % (m, run_compute(fx, "trace-basis", m)) for m in sorted(fx.modules))
    assert _digest(text) == TRACE_BASIS_DIGESTS[name]


def _workloads():
    """perfbench/workloads.py, executed from its source so that nothing
    is written next to it."""
    path = ROOT / "perfbench" / "workloads.py"
    module = types.ModuleType("workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("seed", [1, 7])
def test_ext_sweep_outputs_are_pinned(seed):
    workloads = _workloads()
    workload = workloads.build("ext-sweep", ROOT, seed)
    state = {}
    outputs = {item.key: item.run(state)[2] for item in workload.items}
    assert workload.check_pass(outputs) == []
    assert workloads.pass_digest(outputs) == "8407eebb47a8"
