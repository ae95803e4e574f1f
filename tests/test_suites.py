import hashlib
import itertools
import json

import pytest

from matlislab import classes, cli, ext, suites
from matlislab.algebra import ideal_from_generators
from matlislab.errors import MatlisLabError
from matlislab.fixtures import Fixture, format_ideal, fixture_from_dict
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
# test says "member", Ext^1 comes back zero, or no class of it seems to
# give Ann(I)*B != 0
SATZ25_FAULTS = {
    "member": (
        {"is_p_member": lambda ctx, M: True, "is_s_member": lambda ctx, M: True},
        " although Ann(I)*B != 0",
    ),
    "ext1-zero": ({"ext1": _zero_ext1}, "Ext^1(C, C) = 0 for C of dim "),
    "no-class": (
        {"ideal_times_module": lambda I, M: M.zero_submodule()},
        "no class of Ext^1(C, C) gives Ann(I)*B != 0 for C of dim ",
    ),
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


def _power_of_max_ideal(field, nvars, n):
    """The fixture document of k[x, y, z][:nvars] / m^n over field."""
    exps = [list(e) for e in itertools.product(range(n + 1), repeat=nvars) if sum(e) == n]
    return {"field": field, "vars": ["x", "y", "z"][:nvars],
            "relations": [[[1, 1, e]] for e in exps], "nilpotency": n}


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_satz25_witness_for_x_y2_in_xy_cubed(tmp_path, capsys, field):
    """k[x,y]/(x,y)^3 with I = (x, y^2): Satz 2.5 holds, but the first
    basis class of Ext^1(I°, I°) gives a module inside S, so the class
    that the witness comes from has to be chosen."""
    doc = dict(_power_of_max_ideal(field, 2, 3), ideal=[[[1, 1, [1, 0]]], [[1, 1, [0, 2]]]])
    path = tmp_path / "xy3.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "satz25", "--fixture", str(path)]) == 0
    assert capsys.readouterr().out.endswith("total=2 pass=2 fail=0\n")


# (variables, n, distinct monomial ideals with at most 3 generators)
MONOMIAL_ALGEBRAS = [(2, 3, 12), (2, 4, 39), (3, 2, 7)]


@pytest.mark.parametrize("nvars, n, count", MONOMIAL_ALGEBRAS)
def test_satz25_passes_on_every_monomial_ideal(nvars, n, count):
    """Satz 2.5 holds for every ideal, so any satz25 FAIL on a valid
    fixture is a defect: run it on every distinct monomial ideal of
    k[x, ...]/m^n with at most 3 generators."""
    fx = fixture_from_dict(_power_of_max_ideal("Q", nvars, n), name="m^%d" % n)
    A = fx.algebra
    monomials = [A.element_from_terms([(A.field.one, e)]) for e in A.basis[1:]]
    seen = set()
    for r in (1, 2, 3):
        for gens in itertools.combinations(monomials, r):
            I = ideal_from_generators(A, list(gens))
            if I.basis_matrix in seen:
                continue
            seen.add(I.basis_matrix)
            rep = run_suite(Fixture(fx.name, A, I, fx.modules, fx.seed), "satz25")
            assert not rep.has_fail(), (format_ideal(I), rep.render())
    assert len(seen) == count


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
