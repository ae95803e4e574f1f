import hashlib

import pytest

from matlislab import classes, suites
from matlislab.errors import MatlisLabError
from matlislab.modules import annihilator_submodule, ideal_times_module
from matlislab.report import CheckRecord, Report, check
from matlislab.suites import SUITES, run_suite

from conftest import FIXTURE_NAMES, load

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
        rep = run_suite(fx, suite, trials=5, budget=150)
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


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_default_report_bytes_pinned(name):
    # a freshly parsed fixture: nothing memoized by earlier tests is reused,
    # and a memo that is wrong but consistent still changes the bytes
    text = run_suite(load(name), "all").render()
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == REPORT_DIGESTS[name]


@pytest.mark.parametrize("kwargs", [{"trials": -1}, {"budget": -5}])
def test_negative_trials_or_budget_rejected(r3, kwargs):
    with pytest.raises(MatlisLabError):
        run_suite(r3, "lemma11", **kwargs)


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
