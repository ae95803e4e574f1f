"""The trace and the reject by four routes: the shortcut, the
presentation of I by its syzygies, and the Hom systems and star
operators of the reference module.  All must agree wherever they apply.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURE_NAMES, load
from reference import (
    embed_into_injective,
    hom_epi_onto_r_mod_ann_exists,
    hom_gamma,
    hom_kappa,
    image_in_quotient,
    lower_star,
    multiply,
    per_scalar_ideal_generators,
    rescaled,
    upper_star,
    zero_ideal,
)
from matlislab import classes, linalg
from matlislab.algebra import (
    ideal_from_generators,
    minimal_generators,
    unit_ideal,
)
from matlislab.classes import (
    ClassContext,
    epi_onto_r_mod_ann_exists,
    gamma,
    is_p_member,
    is_s_member,
    kappa,
)
from matlislab.duality import injective_cogenerator, matlis_dual
from matlislab.modules import direct_power, ideal_times_module, quotient_module, regular_module
from matlislab.randmod import Lcg, random_ideal, random_module, random_submodule

FIXTURES_BY_NAME = {name: load(name) for name in FIXTURE_NAMES}
FUZZ = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _assert_routes_agree(ctx, M):
    g = gamma(ctx, M, shortcut=False)
    k = kappa(ctx, M, shortcut=False)
    assert g == hom_gamma(ctx, M)
    assert k == hom_kappa(ctx, M)
    assert gamma(ctx, M, shortcut=True) == g
    assert kappa(ctx, M, shortcut=True) == k


def _contexts(fx, rng, count):
    A = fx.algebra
    ctxs = [fx.ctx, ClassContext(A, zero_ideal(A)), ClassContext(A, unit_ideal(A))]
    ctxs += [ClassContext(A, random_ideal(A, rng)) for _ in range(count)]
    return ctxs


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_routes_agree(fixtures, name):
    """Over Q and F_5, on the fixture modules, random modules, their
    duals, I and I°, for the fixture's ideal, 0, R and random ideals."""
    fx = fixtures[name]
    A = fx.algebra
    rng = Lcg(31)
    mods = [fx.module(m) for m in sorted(fx.modules)]
    mods += [random_module(A, rng) for _ in range(3)]
    mods.append(rescaled(mods[-1]))
    mods += [matlis_dual(M) for M in mods]
    for ctx in _contexts(fx, rng, 4):
        for M in mods + [ctx.I_mod, matlis_dual(ctx.I_mod)]:
            _assert_routes_agree(ctx, M)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_syzygies_are_a_basis(fixtures, name):
    """Each syzygy s satisfies s_1 g_1 + ... + s_n g_n = 0, the syzygies
    are independent, and there are n.dim(R) - dim(I) of them."""
    fx = fixtures[name]
    A = fx.algebra
    f = A.field
    for ctx in _contexts(fx, Lcg(37), 6):
        gens = minimal_generators(ctx.I)
        syz = ctx.syzygies()
        assert ctx.syzygies() is syz
        assert len(syz) == len(gens) * A.dim - ctx.I.dim
        for s in syz:
            assert len(s) == len(gens)
            total = (f.zero,) * A.dim
            for si, g in zip(s, gens):
                total = tuple(f.add(a, b) for a, b in zip(total, multiply(A, si, g)))
            assert not any(total)
        flat = [sum(s, ()) for s in syz]
        assert not flat or linalg.rank(flat, f) == len(syz)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_epi_criterion_matches_hom_loop(fixtures, name):
    fx = fixtures[name]
    A = fx.algebra
    rng = Lcg(41)
    ctxs = _contexts(fx, rng, 6)
    ctxs += [ClassContext(A, ideal_from_generators(A, per_scalar_ideal_generators(A, rng, unit=False)))
             for _ in range(6)]
    for ctx in ctxs:
        assert epi_onto_r_mod_ann_exists(ctx) == hom_epi_onto_r_mod_ann_exists(ctx)


def test_epi_criterion_values(fixtures):
    """R3's (x) maps onto R/Ann(I) = R/(x^2); KXY's (x, y) does not."""
    assert epi_onto_r_mod_ann_exists(fixtures["R3"].ctx)
    assert not epi_onto_r_mod_ann_exists(fixtures["KXY"].ctx)
    assert not hom_epi_onto_r_mod_ann_exists(fixtures["KXY"].ctx)


@st.composite
def ideals_and_modules(draw):
    """A fixture, an ideal on up to three drawn generators, a quotient
    F/B of a free module F of rank 1 or 2 by a random submodule, and the
    module to test: F/B, its dual, I or I°.  A generator is a unit one
    time in four, so that most ideals are proper and many need two
    generators."""
    fx = FIXTURES_BY_NAME[draw(st.sampled_from(FIXTURE_NAMES))]
    A = fx.algebra
    generator = st.tuples(
        st.integers(0, 3).map(lambda u: int(u == 3)),
        st.lists(st.integers(-2, 2), min_size=A.dim - 1, max_size=A.dim - 1),
    )
    gens = draw(st.lists(generator, min_size=1, max_size=3))
    I = ideal_from_generators(A, [tuple(A.field.of(c) for c in (u, *g)) for u, g in gens])
    ctx = ClassContext(A, I)
    F, _ = direct_power(regular_module(A), draw(st.integers(1, 2)))
    B = random_submodule(F, Lcg(draw(st.integers(0, 2**32))))
    which = draw(st.sampled_from(["F/B", "dual", "I", "I-dual"]))
    return ctx, F, B, which


@FUZZ
@given(ideals_and_modules())
def test_routes_agree_on_drawn_ideals_and_modules(case):
    """The shortcut, presentation and Hom routes agree, and so does the
    lower star for the trace, and the upper star for the reject of F/B."""
    ctx, F, B, which = case
    Q, proj = quotient_module(F, B)
    M = {
        "F/B": Q,
        "dual": matlis_dual(Q),
        "I": ctx.I_mod,
        "I-dual": matlis_dual(ctx.I_mod),
    }[which]
    _assert_routes_agree(ctx, M)
    W, e = embed_into_injective(M)
    assert lower_star(ctx, M, W, e) == gamma(ctx, M)
    if which == "F/B":
        assert image_in_quotient(upper_star(ctx, F, B), proj) == kappa(ctx, Q)


BOUND_CASES = FIXTURE_NAMES + ["dim10-Q", "dim10-F101", "QXY-half", "QXY-sums"]


def _bound_modules(ctx, rng, draws):
    """Drawn modules and their duals, I and I°, R, R^2, E and E^2."""
    A = ctx.algebra
    mods = [random_module(A, rng) for _ in range(draws)]
    mods += [matlis_dual(M) for M in mods]
    mods += [ctx.I_mod, matlis_dual(ctx.I_mod)]
    for base in (regular_module(A), injective_cogenerator(A)):
        mods += [direct_power(base, j)[0] for j in (1, 2)]
    return mods


@pytest.mark.parametrize("name", BOUND_CASES)
def test_membership_exits_are_exact(name):
    """is_p_member and is_s_member, which return False from the Ann(I)
    bound before computing the trace or the reject, agree with the full
    routes, for the fixture's ideal, 0, R and drawn ideals.  Both the
    modules that the bound decides and the others occur."""
    fx = load(name)
    rng = Lcg(73)
    decided = set()
    for ctx in _contexts(fx, rng, 2):
        for M in _bound_modules(ctx, rng, 2):
            assert is_p_member(ctx, M) == (gamma(ctx, M, shortcut=False).dim == M.dim)
            assert is_s_member(ctx, M) == (kappa(ctx, M, shortcut=False).dim == 0)
            decided.add(ideal_times_module(ctx.ann_i, M).dim != 0)
    assert decided == {True, False}


class _Reached(Exception):
    pass


@pytest.mark.parametrize("name", BOUND_CASES)
def test_bound_exit_skips_the_trace_and_the_reject(monkeypatch, name):
    """A module with Ann(I)*M != 0 is in neither class without computing
    gamma or kappa; any other module still reaches them.  On a fresh
    parse, so that no memo answers in their place."""
    fx = load(name)

    def reached(*args):
        raise _Reached

    monkeypatch.setattr(classes, "_gamma", reached)
    monkeypatch.setattr(classes, "_kappa", reached)
    rng = Lcg(79)
    for ctx in _contexts(fx, rng, 2):
        for M in _bound_modules(ctx, rng, 2):
            if ideal_times_module(ctx.ann_i, M).dim:
                assert not is_p_member(ctx, M)
                assert not is_s_member(ctx, M)
            else:
                with pytest.raises(_Reached):
                    is_p_member(ctx, M)
                with pytest.raises(_Reached):
                    is_s_member(ctx, M)
