"""The value memos agree with an uncached computation.

Minimal generators and class contexts are kept in the algebra's
_ideal_memo, under ("gens", I) and ("ctx", I); I*M, M[I], the trace and
the reject in its _module_memo, under (route, I, M).
Equal ideals and equal modules of one algebra are equal keys, so they
share the entries: a module memo hands every equal module the Submodule
it built first, whose ambient is the first module that asked, equal in
value to the others.  run_suite empties _module_memo after each suite.
Every test parses its fixtures afresh, so no memo entry comes from
another test, and compares by value and by scalar type.
"""

import pytest

from reference import (
    hom_gamma,
    hom_kappa,
    uncached_annihilator_submodule,
    uncached_context_data,
    uncached_ideal_times_module,
    uncached_minimal_generators,
    zero_ideal,
)
from matlislab import algebra, classes, suites
from matlislab import modules as modules_mod
from matlislab.algebra import ideal_from_generators, minimal_generators, unit_ideal
from matlislab.classes import ClassContext, class_context
from matlislab.duality import injective_cogenerator
from matlislab.errors import ParentMismatch
from matlislab.modules import (
    FModule,
    annihilator_submodule,
    ideal_times_module,
    regular_module,
)
from matlislab.randmod import Lcg, random_ideal, random_module
from matlislab.suites import run_suite

from conftest import FIXTURE_NAMES, load

CASES = FIXTURE_NAMES + ["dim10-Q", "dim10-F101", "QXY-sums"]


def typed(x):
    """x with every scalar paired with its type, so that 1 and
    Fraction(1) compare unequal."""
    if isinstance(x, tuple):
        return tuple(typed(y) for y in x)
    return (type(x), x)


def _ideals(A):
    """The zero, maximal and unit ideals, each principal ideal of a basis
    element and seeded random ideals: many share a dimension, so a memo
    keyed on less than the value would hand out wrong entries."""
    rng = Lcg(17)
    units = [tuple(A.field.one if j == i else A.field.zero for j in range(A.dim))
             for i in range(1, A.dim)]
    ideals = [zero_ideal(A), A.max_ideal, unit_ideal(A)]
    ideals += [ideal_from_generators(A, [u]) for u in units]
    ideals += [random_ideal(A, rng) for _ in range(6)]
    return ideals


def _twin(I):
    """An Ideal equal to I but a distinct object."""
    twin = ideal_from_generators(I.parent, list(I.basis_matrix))
    assert twin == I and twin is not I
    return twin


def _modules(A):
    rng = Lcg(23)
    modules = [regular_module(A), injective_cogenerator(A)]
    return modules + [random_module(A, rng) for _ in range(2)]


def _twin_module(M):
    """An FModule equal to M but a distinct object, with its own copy of
    the actions."""
    twin = FModule(M.parent, [[list(r) for r in a] for a in M.actions])
    assert twin == M and twin is not M
    return twin


def _pair(U):
    return typed((U.basis_matrix, U.pivots))


@pytest.mark.parametrize("name", CASES)
def test_minimal_generators_memo(name):
    A = load(name).algebra
    for I in _ideals(A):
        gens = minimal_generators(I)
        assert typed(gens) == typed(uncached_minimal_generators(I)), I
        assert minimal_generators(_twin(I)) is gens


@pytest.mark.parametrize("name", CASES)
def test_class_context_memo(name):
    A = load(name).algebra
    for I in _ideals(A):
        ctx = class_context(A, I)
        assert ctx.I == I
        got = (ctx.ann_i.basis_matrix, ctx.bar_i.basis_matrix, ctx.I_mod.actions,
               ctx.syzygies())
        assert typed(got) == typed(uncached_context_data(A, I)), I
        assert class_context(A, _twin(I)) is ctx


@pytest.mark.parametrize("name", CASES)
def test_module_memos(name):
    A = load(name).algebra
    for M in _modules(A):
        for I in _ideals(A):
            for memoized, uncached in (
                (ideal_times_module(I, M), uncached_ideal_times_module(I, M)),
                (annihilator_submodule(M, I), uncached_annihilator_submodule(M, I)),
            ):
                assert memoized.ambient == M
                assert _pair(memoized) == _pair(uncached), (I, M)
            twin = _twin(I)
            assert ideal_times_module(twin, M) is ideal_times_module(I, M)
            assert annihilator_submodule(M, twin) is annihilator_submodule(M, I)


# the Hom routes solve dim(I).dim(M) unknowns, too many for the dim-10
# algebras in a quick test
TRACE_CASES = FIXTURE_NAMES + ["QXY-sums"]


@pytest.mark.parametrize("name", TRACE_CASES)
def test_trace_and_reject_memos(name):
    """gamma and kappa, memoized, agree with the uncached Hom routes."""
    A = load(name).algebra
    for M in _modules(A):
        for I in _ideals(A):
            ctx = class_context(A, I)
            want = {classes.gamma: _pair(hom_gamma(ctx, M)),
                    classes.kappa: _pair(hom_kappa(ctx, M))}
            for functor, pair in want.items():
                U = functor(ctx, M)
                assert U.ambient == M
                assert _pair(U) == pair, (functor.__name__, I, M)
                assert functor(ctx, M) is U


def _fill_memos(ctx, M):
    """Every module memo entry of (I, M), as (its route, its Submodule)."""
    return [
        ("I*M", ideal_times_module(ctx.I, M)),
        ("M[I]", annihilator_submodule(M, ctx.I)),
        ("gamma", classes.gamma(ctx, M)),
        ("kappa", classes.kappa(ctx, M)),
    ]


@pytest.mark.parametrize("name", CASES)
def test_equal_modules_share_their_memos(monkeypatch, name):
    """A module equal to one already met, but a distinct object, finds
    I*M, M[I], gamma and kappa computed: the same Submodules, whose
    ambient is the module met first."""
    A = load(name).algebra
    modules = _modules(A)
    contexts = [class_context(A, I) for I in _ideals(A)]
    filled = {(i, j): _fill_memos(ctx, M)
              for i, M in enumerate(modules) for j, ctx in enumerate(contexts)}

    def recompute(*args):
        raise AssertionError("recomputed for an equal module")

    for fn in ("_ideal_times", "_annihilator_submodule"):
        monkeypatch.setattr(modules_mod, fn, recompute)
    for fn in ("_gamma", "_kappa"):
        monkeypatch.setattr(classes, fn, recompute)
    memo = A._module_memo
    kept = dict(memo)
    for i, M in enumerate(modules):
        twin = _twin_module(M)
        for j, ctx in enumerate(contexts):
            for (entry, U), (_, V) in zip(filled[i, j], _fill_memos(ctx, twin)):
                assert V is U and V.ambient == twin, (entry, ctx.I, M)
                assert _pair(V) == _pair(U)
                # the twin read the entry that M stored, under M's key
                assert memo[entry, ctx.I, twin] is kept[entry, ctx.I, M]
    # and added none: the twin's keys are M's
    assert memo.keys() == kept.keys()


def test_equal_module_of_another_algebra_misses():
    # two parses of one fixture: equal actions, distinct algebras
    fx1, fx2 = load("KXY"), load("KXY")
    M1 = injective_cogenerator(fx1.algebra)
    M2 = FModule(fx2.algebra, M1.actions)
    assert M1.actions == M2.actions and M1 != M2
    filled = _fill_memos(fx1.ctx, M1)
    memo1, memo2 = fx1.algebra._module_memo, fx2.algebra._module_memo
    kept = dict(memo1)
    assert all((entry, fx1.ctx.I, M1) in memo1 for entry, _ in filled)
    assert memo2 == {}
    for (entry, U), (_, V) in zip(filled, _fill_memos(fx2.ctx, M2)):
        assert V.ambient is M2 and _pair(V) == _pair(U), entry
        # M2 computed its own entry, in its own algebra's memo
        assert memo2[entry, fx2.ctx.I, M2] is not memo1[entry, fx1.ctx.I, M1]
    assert memo1 == kept and all(key[2] is M2 for key in memo2)
    with pytest.raises(ParentMismatch):
        classes.gamma(fx2.ctx, M1)


def test_run_suite_empties_the_module_memo():
    fx = load("KXY")
    _fill_memos(fx.ctx, regular_module(fx.algebra))
    assert fx.algebra._module_memo
    run_suite(fx, "all", trials=2)
    assert fx.algebra._module_memo == {}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_no_module_keeps_a_memo_past_its_suite(monkeypatch, name):
    """After verify all, I*M of the context's own I_mod, which every
    suite queries, is computed again, and an equal module built
    afterwards reads that new entry: no module holds an entry that
    run_suite did not empty."""
    fx = load(name)
    run_suite(fx, "all")
    calls = []
    compute = modules_mod._ideal_times

    def counting(*args):
        calls.append(args)
        return compute(*args)

    monkeypatch.setattr(modules_mod, "_ideal_times", counting)
    I, M = fx.ctx.I, fx.ctx.I_mod
    U = ideal_times_module(I, M)
    assert len(calls) == 1
    V = ideal_times_module(I, _twin_module(M))
    assert len(calls) == 1 and _pair(V) == _pair(U)
    assert _pair(U) == _pair(uncached_ideal_times_module(I, M))


@pytest.mark.parametrize("name", CASES)
def test_module_hash_is_by_value_and_computed_once(monkeypatch, name):
    """Equal modules hash equal, and each object hashes its actions once:
    every memo key holds a module."""
    A = load(name).algebra
    calls = []

    def counting_hash(x):
        calls.append(x)
        return hash(x)

    # FModule.__hash__ looks hash up in the modules namespace first
    monkeypatch.setattr(modules_mod, "hash", counting_hash, raising=False)
    for M in _modules(A):
        twin = _twin_module(M)
        calls.clear()
        assert hash(M) == hash(twin) == hash(M) == hash(twin)
        assert len(calls) == 2
        assert {M: 1}[twin] == 1


def test_run_suite_empties_the_module_memo_when_a_suite_raises(monkeypatch):
    fx = load("KXY")
    memo = fx.algebra._module_memo

    class Stop(Exception):
        pass

    def membership(ctx, M):
        # lemma11 has interned the drawn M and memoized I*M for it by now
        assert ("I*M", ctx.I, M) in memo
        assert any(key[0] == "cokernel" and memo[key] is M for key in memo)
        raise Stop

    monkeypatch.setattr(suites, "is_p_member", membership)
    with pytest.raises(Stop):
        run_suite(fx, "lemma11", trials=1)
    assert memo == {}


def test_equal_ideal_of_another_algebra_misses_every_memo():
    # two parses of one fixture: equal bases, distinct algebras
    A1, A2 = load("KXY").algebra, load("KXY").algebra
    I1, I2 = A1.max_ideal, A2.max_ideal
    assert I1.basis_matrix == I2.basis_matrix
    M1 = regular_module(A1)
    class_context(A1, I1)
    ideal_times_module(I1, M1)
    annihilator_submodule(M1, I1)
    for call in (
        lambda: class_context(A1, I2),
        lambda: ClassContext(A1, I2),
        lambda: ideal_times_module(I2, M1),
        lambda: annihilator_submodule(M1, I2),
    ):
        with pytest.raises(ParentMismatch):
            call()


def test_satz31_builds_once_per_distinct_ideal(monkeypatch):
    fx = load("KXY")
    built, computed, drawn = [], [], []
    init = ClassContext.__init__
    compute = algebra._minimal_generators
    draw = suites.random_ideal

    def counting_init(self, A, I):
        built.append(I.basis_matrix)
        init(self, A, I)

    def counting_compute(I):
        computed.append(I.basis_matrix)
        return compute(I)

    def recording_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(classes.ClassContext, "__init__", counting_init)
    monkeypatch.setattr(algebra, "_minimal_generators", counting_compute)
    monkeypatch.setattr(suites, "random_ideal", recording_draw)
    run_suite(fx, "satz31")
    distinct = {I.basis_matrix for I in drawn}
    assert len(drawn) == 200
    assert sorted(built) == sorted(distinct)
    assert len(built) <= 11
    assert len(computed) == len(set(computed))
