import hashlib
import json

import pytest

from matlislab import classes, cli, ext, suites
from matlislab.errors import MatlisLabError
from matlislab.fixtures import fixture_from_dict
from matlislab.modules import annihilator_submodule, ideal_times_module
from matlislab.report import CheckRecord, Report, check
from matlislab.suites import SUITES, run_suite

from conftest import FIXTURE_DIR, FIXTURE_NAMES, load

SUITE_NAMES = sorted(SUITES)

# sha256 prefixes of run_suite(fx, "all").render() at each shipped
# fixture's own seed and the default trial counts
REPORT_DIGESTS = {
    "R3": "9636754dc0e6",
    "R4": "9fea7fea341c",
    "KXY": "2acd3285e385",
    "V2": "f2fc0013d7fa",
}


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_green_on_every_fixture(fixtures, suite):
    for fx in fixtures.values():
        rep = run_suite(fx, suite, trials=5)
        assert not rep.has_fail(), rep.render()


def test_all_concatenates_in_fixed_order(r3):
    rep = run_suite(r3, "all", trials=2)
    names = [r.name for r in rep.records]
    # lemma11 records come first, closure records last
    assert names[0].startswith("lemma11")
    assert names[-1].startswith("closure")
    assert rep.suite == "all"


def test_reports_deterministic_per_seed(r4):
    a = run_suite(r4, "all", trials=4, seed=7).render()
    b = run_suite(r4, "all", trials=4, seed=7).render()
    assert a == b


def test_single_suite_matches_slice_of_all(kxy):
    # running one suite alone uses the same per-suite stream as "all"
    alone = run_suite(kxy, "satz31", trials=6, seed=2)
    combined = run_suite(kxy, "all", trials=6, seed=2)
    slice_ = [r.render() for r in combined.records if r.name.startswith("satz31")]
    assert [r.render() for r in alone.records] == slice_


def test_record_and_report_rendering():
    rec = check("foo", "FX", True)
    assert rec.render() == "CHECK foo FX PASS -"
    bad = check("bar", "FX", False, "witness data")
    assert bad.render() == "CHECK bar FX FAIL witness data"
    rep = Report("demo", "FX", [rec, bad])
    assert rep.n_pass == 1 and rep.n_fail == 1 and rep.has_fail()
    assert rep.render().endswith("SUITE demo FX total=2 pass=1 fail=1\n")
    d = rep.to_dict()
    assert d["total"] == 2 and d["records"][1]["status"] == "FAIL"


def test_fail_records_carry_witness():
    # a FAIL must say what failed; a PASS needs no witness
    for witness in ("", "-", "  ", None):
        with pytest.raises(MatlisLabError):
            CheckRecord("x", "FX", "FAIL", witness)
    with pytest.raises(MatlisLabError):
        check("x", "FX", False)
    assert CheckRecord("x", "FX", "PASS", "").witness == "-"
    assert check("x", "FX", True, "unused").render() == "CHECK x FX PASS -"
    assert CheckRecord("x", "FX", "FAIL", "dim=2").render() == "CHECK x FX FAIL dim=2"


def test_satz22_counterexample_fail_names_missing_witness(kxy, monkeypatch):
    # KXY's ideal fails the epi criterion, so satz22 builds a counterexample
    monkeypatch.setattr(suites, "submodule_counterexample", lambda ctx: None)
    rec = run_suite(kxy, "satz22", trials=0).records[1]
    assert rec.name == "satz22-counterexample" and rec.status == "FAIL"
    assert rec.witness == "criterion-false branch: no counterexample built (dim I=3)"


def test_closure_degenerate_fail_names_conditions(r3, monkeypatch):
    class OneDimensional:
        dim = 1

    monkeypatch.setattr(suites, "kappa", lambda ctx, M, shortcut=True: OneDimensional())
    rec = run_suite(r3, "closure", trials=0).records[-1]
    assert rec.name == "closure-degenerate-identity" and rec.status == "FAIL"
    assert rec.witness == "nonzero on the zero module: dim kappa=1"


def _zero_ext1(C, A, cover=None):
    return ext.Ext1Space(C, A, ext.free_cover(C), 0, ())


# each fault breaks one step of the satz25 construction: the membership
# test says "member", or Ext^1 comes back zero
SATZ25_FAULTS = {
    "member": (
        {"is_p_member": lambda ctx, M: True, "is_s_member": lambda ctx, M: True},
        "from the first class of Ext^1 stays in ",
    ),
    "ext1-zero": ({"ext1": _zero_ext1}, "Ext^1(C, C) = 0 for C of dim "),
}


@pytest.mark.parametrize("fault", sorted(SATZ25_FAULTS))
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_satz25_failed_witness_is_fail_record(monkeypatch, capsys, name, fault):
    patches, cause = SATZ25_FAULTS[fault]
    for attr, value in patches.items():
        monkeypatch.setattr(ext, attr, value)
    records = run_suite(load(name), "satz25").records
    assert [r.name for r in records] == ["satz25-P", "satz25-S"]
    for rec in records:
        assert rec.status == "FAIL" and cause in rec.witness, rec.render()
    path = str(FIXTURE_DIR / (name + ".json"))
    assert cli.main(["verify", "satz25", "--fixture", path]) == 1
    assert capsys.readouterr().out.endswith("total=2 pass=0 fail=2\n")


@pytest.mark.parametrize("ideal", [[], [[[1, 1, [0]]]]], ids=["zero", "unit"])
def test_satz25_trivial_ideals_closed(ideal):
    doc = json.loads((FIXTURE_DIR / "R3.json").read_text())
    doc["ideal"] = ideal
    rendered = [r.render() for r in run_suite(fixture_from_dict(doc, name="R3"), "satz25").records]
    assert rendered == [
        "CHECK satz25-P R3 PASS ClosedTrivially (tested=0)",
        "CHECK satz25-S R3 PASS ClosedTrivially (tested=0)",
    ]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_default_report_bytes_pinned(name):
    # a freshly parsed fixture: nothing memoized by earlier tests is reused,
    # and a memo that is wrong but consistent still changes the bytes
    text = run_suite(load(name), "all").render()
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == REPORT_DIGESTS[name]


def test_negative_trials_rejected(r3):
    with pytest.raises(MatlisLabError):
        run_suite(r3, "lemma11", trials=-1)


def test_unknown_suite_rejected(r3):
    with pytest.raises(MatlisLabError):
        run_suite(r3, "lemma1")


# each fault replaces the functor by one of its bounds, which differ from
# it on the shipped fixtures; the suites listed must notice (lemma11
# catches neither fault, so it is not listed)
FAULTS = {
    "gamma": (
        lambda ctx, M, shortcut=True: ideal_times_module(ctx.I, M),
        ("satz22", "satz35", "folg36"),
    ),
    "kappa": (
        lambda ctx, M, shortcut=True: annihilator_submodule(M, ctx.I),
        ("satz35", "folg36"),
    ),
}


@pytest.mark.parametrize("functor", sorted(FAULTS))
def test_suites_catch_injected_fault(monkeypatch, functor):
    fault, catching = FAULTS[functor]
    # suites calls the functor directly, the membership tests in classes too
    for module in (classes, suites):
        monkeypatch.setattr(module, functor, fault)
    # freshly parsed fixtures: memos that earlier tests filled on the
    # algebras and modules cannot hide the fault
    for fx in (load(name) for name in FIXTURE_NAMES):
        for suite in catching:
            rep = run_suite(fx, suite, trials=3)
            assert rep.has_fail(), (functor, fx.name, suite)
