import collections
import hashlib
import itertools
import json
import sys

import pytest

from matlislab import algebra, classes, cli, duality, ext, linalg, modules, suites
from matlislab.algebra import ideal_from_generators
from matlislab.errors import MatlisLabError
from matlislab.fixtures import Fixture, format_ideal, fixture_from_dict
from matlislab.modules import FModule, annihilator_submodule, ideal_times_module, radical
from matlislab.report import CheckRecord, Report, check
from matlislab.suites import SUITE_ORDER, run_suite

from conftest import FIXTURE_DIR, FIXTURE_NAMES, load
from reference import every_trial

SUITE_NAMES = sorted(name for name, _, _ in SUITE_ORDER)

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


def test_pass_record_never_builds_its_witness():
    def refuse():
        raise AssertionError("witness built for a PASS")

    assert check("n", "F", True, refuse).render() == "CHECK n F PASS -"
    calls = []

    def witness():
        calls.append(1)
        return "dim=2"

    assert check("n", "F", False, witness).render() == "CHECK n F FAIL dim=2"
    assert calls == [1]
    for empty in ("", "-"):
        with pytest.raises(MatlisLabError):
            check("n", "F", False, lambda: empty)


@pytest.mark.parametrize("name", ["R3", "V2"])
def test_pass_records_format_no_witness(monkeypatch, name):
    expected = [r.render() for r in run_suite(load(name), "all", trials=3).records]

    def refuse(*args):
        raise AssertionError("witness formatted for a PASS")

    monkeypatch.setattr(suites, "format_submodule", refuse)
    monkeypatch.setattr(suites, "format_ideal", refuse)
    got = [r.render() for r in run_suite(load(name), "all", trials=3).records]
    assert got == expected


def test_satz22_counterexample_fail_names_missing_witness(kxy, monkeypatch):
    # KXY's ideal fails the epi criterion, so satz22 builds a counterexample
    monkeypatch.setattr(suites, "submodule_counterexample", lambda ctx: None)
    rec = run_suite(kxy, "satz22", trials=0).records[1]
    assert rec.name == "satz22-counterexample" and rec.status == "FAIL"
    assert rec.witness == "criterion-false branch: no counterexample built (dim I=3)"


def test_closure_degenerate_fail_names_conditions(r3, monkeypatch):
    class OneDimensional:
        dim = 1

    monkeypatch.setattr(suites, "kappa", lambda ctx, M: OneDimensional())
    rec = run_suite(r3, "closure", trials=0).records[-1]
    assert rec.name == "closure-degenerate-identity" and rec.status == "FAIL"
    assert rec.witness == "nonzero on the zero module: dim kappa=1"


def _zero_ext1(C, A, cover=None):
    return ext.Ext1Space(C, A, ext.free_cover(C), ())


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
    """k[x,y]/(x,y)^3 with I = (x, y^2): Satz 2.5 holds, and the CLI
    reports both witnesses.  Here the first basis class of Ext^1(I, I)
    already gives Ann(I)*B != 0; test_satz25_searches_past_the_first_class
    has an ideal where it does not."""
    doc = dict(_power_of_max_ideal(field, 2, 3), ideal=[[[1, 1, [1, 0]]], [[1, 1, [0, 2]]]])
    path = tmp_path / "xy3.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", "satz25", "--fixture", str(path)]) == 0
    assert capsys.readouterr().out.endswith("total=2 pass=2 fail=0\n")


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_satz25_searches_past_the_first_class(monkeypatch, field):
    """k[x,y]/(x,y)^4 with I = (x, y^2), one ideal of the monomial family
    below: the first basis class of Ext^1(I, I) gives Ann(I)*B = 0, so
    satz25 passes only because it goes on to a later class.  With ext1
    keeping its first class alone, it finds no witness."""
    doc = dict(_power_of_max_ideal(field, 2, 4), ideal=[[[1, 1, [1, 0]]], [[1, 1, [0, 2]]]])
    assert run_suite(fixture_from_dict(doc), "satz25").render().endswith(
        "total=2 pass=2 fail=0\n"
    )
    _patch_every_binding(monkeypatch, ext, "ext1", _ext1_keeping_one_class)
    records = run_suite(fixture_from_dict(doc), "satz25").records
    cause = "no class of Ext^1(C, C) gives Ann(I)*B != 0 for C of dim 8"
    assert [(r.status, r.witness) for r in records] == [("FAIL", cause)] * 2


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


ALL = tuple(FIXTURE_NAMES)

# each fault replaces a functor and names, per suite, the fixtures on
# which that suite reports a FAIL under `verify all` at trials=3, and
# then the fixtures on which that suite raises; every other suite and
# fixture passes.  The first four replace gamma or kappa
# by one of its bounds, I*M <= gamma(M) <= M[Ann I] and Ann(I)*M <=
# kappa(M) <= M[I].  lemma11, satz25, folg32 and folg33 catch none of
# them.  Replaced by its upper bound, gamma makes P membership read
# "Ann(I)*M = 0", and so does kappa by its lower bound for S: only KXY,
# whose ideal fails the epi criterion, tells these apart from P and S.
# The next two break Matlis duality: a dual that keeps M's actions
# untransposed, and a socle that returns the radical m*M.  The next one
# breaks the R-span kernel behind every ideal and generated submodule:
# span drops the last row of its echelon form when it has more than one.
# A kernel that drops the last vector of its echelon form makes the
# double annihilator certificate raise NotFree in every suite but satz31
# and folg33, which build the class contexts of drawn ideals, and in
# satz31 on R3.  A raised certificate is recorded here as such, and
# becomes a FAIL record once failed certificates do.
# The next two break the module constructions.  A quotient_module whose
# projection skips the pivot-row correction, a plain selection of the
# free coordinates, is caught by no suite: the quotients that a shipped
# fixture's suites build, R/m^i, R/Ann(I) and the drawn quotients of I
# and I^2, are mostly by submodules whose echelon rows are unit vectors,
# where the selection is the projection.  Of 100 drawn quotients per
# fixture, 94 to 100 are the same under the fault, and every other one
# is still a representation with the same is_p_member verdict.  A
# submodule_as_module that reads the first k rows of each action instead
# of the pivot rows fails satz22 on KXY, and gives the syzygy module of
# a free cover the wrong actions, so satz25 raises "free cover is not
# surjective" on every fixture.
# The last two sit behind a value memo, in the function that the memo
# calls on a miss, so the memo keeps the wrong value and hands it to every
# equal key: minimal_generators dropping its last generator (a principal
# ideal then has none), and ideal_times_module computing I*M from the
# first minimal generator of I only.  The first fails most suites, and
# makes the free cover of satz25 raise "free cover is not minimal" on R3
# and R4.  The second is caught only by folg32, on KXY and V2, whose
# ideals have two generators: it compares I*E^j with the trace.
# The next two break linalg.extend_basis, the greedy choice behind the
# minimal generators of an ideal, the generators of a free cover and the
# representatives of Ext^1.  Greedy over the candidates alone, ignoring
# the rows, keeps every basis row of I as a generator, every unit vector
# as a cover generator, and the coboundaries as Ext^1 classes.  It is
# caught by no suite: a redundant generating set of I still spans I and
# presents it, and the satz25 verdict depends only on the class of a
# cocycle, which a coboundary does not change.  It surfaces only as the
# cover's minimality certificate, raised in satz25 on R3, R4 and KXY; on
# V2, m*I = 0, so generators and cover are minimal anyway, and Ext^1(I, I)
# only gains coboundary classes, which no record prints.  Dropping the
# last kept candidate fails seven suites, and makes satz25 raise "free
# cover is not minimal" on R4 and "free cover is not surjective" on KXY
# and V2.
# The next two trust one bound in a membership test once the Ann(I) exit
# has passed: is_p_member returning "I*M = M" and is_s_member returning
# "M[I] = 0", never calling gamma or kappa.  The first fails satz22 and
# closure everywhere and duality on R3, R4 and V2; the second fails
# duality alone, there.  A further fault sits behind the M[a] memo:
# annihilator_submodule from the first minimal generator of a only,
# caught by folg32 and duality on KXY and V2, whose ideals have two
# generators.  The last, radical returning m^2*M, is caught by no suite
# at trials=3.  It flips KXY's epi criterion to True, which
# satz22-criterion prints but does not check, and at three trials
# neither the satz22 branch that this selects nor the smallness check of
# satz31 meets a module that it breaks; at the default trials satz22
# (43 FAIL records) and satz31 (2) catch it on KXY.  It surfaces only as
# the free cover's minimality certificate, raised in satz25 on R3, R4
# and KXY; on V2, m*I = 0, so the radical of I, the one module that
# satz25 covers, is 0 either way.
# The last four drop part of a result that a suite only reads through
# another construction.  annihilator_in_dual dropping its last echelon
# row when it has more than one fails folg36 on R3 and R4, and duality on
# R3, R4 and KXY.  extension_from_class building B from the zero cocycle,
# whatever class it is given, splits every extension, so satz25 fails on
# every fixture.  ext1 keeping only its first representative is caught by
# no suite: on every shipped fixture the first basis class already gives
# Ann(I)*B != 0, which is all that satz25 reads, no record prints
# dim Ext^1, and the k[x,y]/(x,y)^3, I = (x, y^2) fixture of
# test_satz25_witness_for_x_y2_in_xy_cubed passes under it too, over Q
# and F_3; test_satz25_searches_past_the_first_class catches it on the
# (x, y^2) fixture in (x,y)^4.  annihilator_of_ideal dropping its last row when it has more
# than one makes the double annihilator certificate raise NotFree in
# every suite but folg33 on every fixture, and no suite fails.
_span = linalg.span
_kernel = linalg.kernel
_quotient_module = modules.quotient_module
_submodule_as_module = modules.submodule_as_module
_minimal_generators = algebra._minimal_generators
_ideal_times = modules._ideal_times
_extend_basis = linalg.extend_basis
_annihilator_submodule = modules._annihilator_submodule
_annihilator_in_dual = duality.annihilator_in_dual
_extension_from_class = ext.extension_from_class
_ext1 = ext.ext1
_annihilator_of_ideal = algebra.annihilator_of_ideal


def _span_without_last_row(stacked, vectors, field, rank=1):
    red, pivots = _span(stacked, vectors, field, rank)
    return (red[:-1], pivots[:-1]) if len(red) > 1 else (red, pivots)


def _kernel_without_last_vector(rows, field):
    red, pivots = _kernel(rows, field)
    return (red[:-1], pivots[:-1]) if len(red) > 1 else (red, pivots)


def _quotient_by_selection(M, U):
    # the echelon rows of U read as the unit vectors at their pivots
    units = linalg.identity(M.dim, M.parent.field)
    return _quotient_module(M, modules.Submodule(M, [units[c] for c in U.pivots], U.pivots))


def _submodule_by_first_rows(U):
    # pivots 0 .. k-1 in place of U's own: the first k rows of each action
    return _submodule_as_module(modules.Submodule(U.ambient, U.basis_matrix, range(U.dim)))


def _generators_without_last(I):
    return _minimal_generators(I)[:-1]


def _ideal_times_first_generator(I, M, basis):
    if basis is not None:  # I*U of a submodule is not this fault
        return _ideal_times(I, M, basis)
    first = algebra.minimal_generators(I)[:1]
    return _ideal_times(ideal_from_generators(I.parent, first), M, None)


def _extend_basis_ignoring_rows(rows, candidates, field):
    return _extend_basis((), candidates, field)


def _extend_basis_without_last(rows, candidates, field):
    return _extend_basis(rows, candidates, field)[:-1]


def _p_member_trusting_lower_bound(ctx, M):
    if annihilator_submodule(M, ctx.ann_i).dim != M.dim:
        return False
    return ideal_times_module(ctx.I, M).dim == M.dim


def _s_member_trusting_upper_bound(ctx, M):
    if ideal_times_module(ctx.ann_i, M).dim != 0:
        return False
    return annihilator_submodule(M, ctx.I).dim == 0


def _annihilator_submodule_first_generator(M, a):
    first = algebra.minimal_generators(a)[:1]
    return _annihilator_submodule(M, ideal_from_generators(a.parent, first))


def _radical_m_squared(M):
    m = M.parent.max_ideal
    return ideal_times_module(algebra.ideal_product(m, m), M)


def _annihilator_in_dual_without_last_row(M, U):
    V = _annihilator_in_dual(M, U)
    if V.dim <= 1:
        return V
    return modules.Submodule(V.ambient, V.basis_matrix[:-1], V.pivots[:-1])


def _extension_from_zero_cocycle(ext_space, cocycle):
    A, K = ext_space.A, ext_space.cover.K_mod
    zero = linalg.zeros(A.dim, K.dim, A.parent.field)
    return _extension_from_class(ext_space, modules.ModuleMap(K, A, zero))


def _ext1_keeping_one_class(C, A, cover=None):
    space = _ext1(C, A, cover)
    return ext.Ext1Space(space.C, space.A, space.cover, space.representatives[:1])


def _annihilator_of_ideal_without_last_row(I):
    J = _annihilator_of_ideal(I)
    if J.dim <= 1:
        return J
    return algebra.Ideal(J.parent, J.basis_matrix[:-1], J.pivots[:-1])


FAULTS = {
    "gamma": (
        classes, "gamma",
        lambda ctx, M: ideal_times_module(ctx.I, M),
        {"satz22": ALL, "satz31": ("R3",), "satz35": ALL, "folg36": ALL,
         "duality": ("R3", "R4", "V2"), "closure": ALL},
        {},
    ),
    "gamma-upper": (
        classes, "gamma",
        lambda ctx, M: annihilator_submodule(M, ctx.ann_i),
        {"duality": ("KXY",)},
        {},
    ),
    "kappa": (
        classes, "kappa",
        lambda ctx, M: annihilator_submodule(M, ctx.I),
        {"satz31": ("R3",), "satz35": ALL, "folg36": ALL, "duality": ("R3", "R4", "V2")},
        {},
    ),
    "kappa-lower": (
        classes, "kappa",
        lambda ctx, M: ideal_times_module(ctx.ann_i, M),
        {"duality": ("KXY",)},
        {},
    ),
    "matlis_dual-untransposed": (
        duality, "matlis_dual", lambda M: FModule(M.parent, M.actions),
        {"folg36": ("R3", "R4"), "duality": ("V2",)},
        {},
    ),
    "socle-radical": (
        modules, "socle", radical,
        {"duality": ("R3", "R4", "KXY")},
        {},
    ),
    "span-drops-last-row": (
        linalg, "span", _span_without_last_row,
        {"satz22": ("KXY",), "satz25": ("R3", "KXY"), "satz31": ("R3",)},
        {},
    ),
    "kernel-drops-last-vector": (
        linalg, "kernel", _kernel_without_last_vector,
        {},
        {"lemma11": ALL, "satz22": ALL, "satz25": ALL, "satz31": ("R3",), "folg32": ALL,
         "satz35": ALL, "folg36": ALL, "duality": ALL, "closure": ALL},
    ),
    "quotient-by-selection": (
        modules, "quotient_module", _quotient_by_selection,
        {},
        {},
    ),
    "submodule-by-first-rows": (
        modules, "submodule_as_module", _submodule_by_first_rows,
        {"satz22": ("KXY",)},
        {"satz25": ALL},
    ),
    "minimal-generators-drop-last": (
        algebra, "_minimal_generators", _generators_without_last,
        {"lemma11": ("R3", "R4", "KXY"), "satz22": ("R3", "R4", "KXY"),
         "satz25": ("KXY",), "satz31": ALL, "folg32": ALL, "duality": ALL,
         "closure": ("R3", "R4", "KXY")},
        {"satz25": ("R3", "R4")},
    ),
    "ideal-times-module-first-generator": (
        modules, "_ideal_times", _ideal_times_first_generator,
        {"folg32": ("KXY", "V2")},
        {},
    ),
    "extend-basis-ignores-rows": (
        linalg, "extend_basis", _extend_basis_ignoring_rows,
        {},
        {"satz25": ("R3", "R4", "KXY")},
    ),
    "extend-basis-drops-last": (
        linalg, "extend_basis", _extend_basis_without_last,
        {"lemma11": ("R3", "R4", "KXY"), "satz22": ("R3", "R4", "KXY"),
         "satz25": ("R3",), "satz31": ALL, "folg32": ALL, "duality": ALL,
         "closure": ("R3", "R4", "KXY")},
        {"satz25": ("R4", "KXY", "V2")},
    ),
    "p-exit-trusts-lower-bound": (
        classes, "is_p_member", _p_member_trusting_lower_bound,
        {"satz22": ALL, "duality": ("R3", "R4", "V2"), "closure": ALL},
        {},
    ),
    "s-exit-trusts-upper-bound": (
        classes, "is_s_member", _s_member_trusting_upper_bound,
        {"duality": ("R3", "R4", "V2")},
        {},
    ),
    "annihilator-submodule-first-generator": (
        modules, "_annihilator_submodule", _annihilator_submodule_first_generator,
        {"folg32": ("KXY", "V2"), "duality": ("KXY", "V2")},
        {},
    ),
    "radical-m-squared": (
        modules, "radical", _radical_m_squared,
        {},
        {"satz25": ("R3", "R4", "KXY")},
    ),
    "annihilator-in-dual-drops-last-row": (
        duality, "annihilator_in_dual", _annihilator_in_dual_without_last_row,
        {"folg36": ("R3", "R4"), "duality": ("R3", "R4", "KXY")},
        {},
    ),
    "extension-from-zero-cocycle": (
        ext, "extension_from_class", _extension_from_zero_cocycle,
        {"satz25": ALL},
        {},
    ),
    "ext1-keeps-one-class": (
        ext, "ext1", _ext1_keeping_one_class,
        {},
        {},
    ),
    "annihilator-of-ideal-drops-last-row": (
        algebra, "annihilator_of_ideal", _annihilator_of_ideal_without_last_row,
        {},
        {"lemma11": ALL, "satz22": ALL, "satz25": ALL, "satz31": ALL, "folg32": ALL,
         "satz35": ALL, "folg36": ALL, "duality": ALL, "closure": ALL},
    ),
}


def _patch_every_binding(monkeypatch, module, functor, replacement):
    """Replace the functor in the module that defines it and in every
    matlislab module that imported it."""
    original = getattr(module, functor)
    for name, mod in sorted(sys.modules.items()):
        if name != "matlislab" and not name.startswith("matlislab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, replacement)


def _outcomes(name, trials, seed=None):
    """Per suite in `verify all` order on a freshly parsed fixture, its
    records, or the error it raised.  run_suite runs each suite on its
    own stream, so the records are those of `verify all`."""
    fx = load(name)
    out = {}
    for suite, _, _ in suites.SUITE_ORDER:
        try:
            out[suite] = run_suite(fx, suite, trials=trials, seed=seed).records
        except MatlisLabError as err:
            out[suite] = err
    return out


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_suites_catch_injected_fault(monkeypatch, fault):
    module, functor, replacement, catching, raising = FAULTS[fault]
    _patch_every_binding(monkeypatch, module, functor, replacement)
    caught, raised = {}, {}
    for name in ALL:
        # freshly parsed fixtures: memos that earlier tests filled on the
        # algebras cannot hide the fault
        for suite, out in _outcomes(name, 3).items():
            if isinstance(out, MatlisLabError):
                raised.setdefault(suite, set()).add(name)
                continue
            for rec in out:
                if rec.status == "FAIL":
                    caught.setdefault(rec.name.split("-")[0], set()).add(name)
    assert caught == {suite: set(names) for suite, names in catching.items()}
    assert raised == {suite: set(names) for suite, names in raising.items()}


def _rendered(outcomes):
    return {suite: [r.render() for r in out] if isinstance(out, list)
            else "raises %s: %s" % (type(out).__name__, out)
            for suite, out in outcomes.items()}


@pytest.mark.parametrize("fault", [None] + sorted(FAULTS))
def test_reused_verdicts_match_every_trial_checked(monkeypatch, fault):
    """A PASS record renders no witness, so the report digests cannot see
    a verdict reused for the wrong draw: compare every record, FAIL
    witnesses included, and every error raised, with a loop that checks
    each trial, with and without each fault."""
    if fault is not None:
        _patch_every_binding(monkeypatch, *FAULTS[fault][:3])
    for name in ALL:
        for seed in (1, 2, 3):
            got = _rendered(_outcomes(name, 20, seed))
            with monkeypatch.context() as m:
                m.setattr(suites, "_trials", every_trial)
                want = _rendered(_outcomes(name, 20, seed))
            assert got == want


# verdicts computed / trials drawn per fixture and trial loop, at each
# fixture's own seed and the default trial counts
VERDICTS = {
    "R3": {"lemma11-chain": (20, 200), "satz22-submodule": (12, 100),
           "satz22-equivalence": (14, 100), "satz31": (32, 200), "folg33": (1, 5),
           "duality": (49, 100), "closure": (30, 100)},
    "R4": {"lemma11-chain": (29, 200), "satz22-submodule": (10, 100),
           "satz22-equivalence": (15, 100), "satz31": (32, 200), "folg33": (2, 5),
           "duality": (51, 100), "closure": (24, 100)},
    "KXY": {"lemma11-chain": (61, 200), "satz22-forward": (38, 100),
            "satz31": (82, 200), "folg33": (1, 5), "duality": (67, 100),
            "closure": (69, 100)},
    "V2": {"lemma11-chain": (77, 200), "satz22-submodule": (32, 100),
           "satz22-equivalence": (40, 100), "satz31": (89, 200), "folg33": (2, 5),
           "duality": (61, 100), "closure": (84, 100)},
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_each_distinct_draw_is_checked_once_per_suite(monkeypatch, name):
    trial_loop = suites._trials

    def counting(fx, record, count, draw, verdict):
        loop = record.split("-%")[0]
        drawn[loop] += count

        def counted(*inputs):
            computed[loop] += 1
            return verdict(*inputs)

        return trial_loop(fx, record, count, draw, counted)

    monkeypatch.setattr(suites, "_trials", counting)
    fx = load(name)
    runs = []
    for _ in range(2):
        # the verdicts of one suite do not outlive it: a second run on the
        # same fixture checks every distinct draw again
        drawn, computed = collections.Counter(), collections.Counter()
        run_suite(fx, "all")
        runs.append({loop: (computed[loop], drawn[loop]) for loop in drawn})
    assert runs == [VERDICTS[name]] * 2


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_satz31_solves_each_functor_once_per_verdict(monkeypatch, name):
    """satz31 computes gamma and kappa once for each distinct (I, M) that
    it checks: one route each, kept for the suite."""
    calls = collections.Counter()
    for fn in ("_gamma", "_kappa"):
        def counted(*args, fn=fn, original=getattr(classes, fn)):
            calls[fn] += 1
            return original(*args)

        monkeypatch.setattr(classes, fn, counted)
    run_suite(load(name), "satz31")
    distinct = VERDICTS[name]["satz31"][0]
    assert calls == {"_gamma": distinct, "_kappa": distinct}
