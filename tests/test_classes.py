from fractions import Fraction

import pytest

from reference import (
    embed_into_injective,
    image_in_quotient,
    lower_star,
    multiply,
    upper_star,
    zero_ideal,
)
from matlislab import classes
from matlislab.algebra import ideal_from_generators, unit_ideal
from matlislab.classes import (
    ClassContext,
    class_context,
    duality_transfer,
    epi_onto_r_mod_ann_exists,
    gamma,
    is_p_member,
    is_s_member,
    kappa,
    submodule_counterexample,
    uniserial_duality,
    uniserial_s,
)
from matlislab.errors import NotFree, ParentMismatch
from matlislab.modules import (
    direct_power,
    generated_submodule,
    quotient_module,
    regular_module,
    residue_field_module,
    submodule_as_module,
    uniserial_chain,
)
from matlislab.randmod import Lcg, random_module, random_submodule

from conftest import load

F = Fraction


# Hand-computed over k[x]/(x^3) with I = (x): maps I -> R send x to a
# multiple of x (x is killed by x^2, so its image must be too), hence the
# trace is (x); maps R -> I-dual ... the joint kernel works out to (x^2).
R3_GAMMA_REGULAR = ((F(0), F(1), F(0)), (F(0), F(0), F(1)))
R3_KAPPA_REGULAR = ((F(0), F(0), F(1)),)


def test_trace_of_regular_module(r3):
    R = r3.module("regular")
    assert gamma(r3.ctx, R).basis_matrix == R3_GAMMA_REGULAR
    assert kappa(r3.ctx, R).basis_matrix == R3_KAPPA_REGULAR


def test_shortcut_equals_full_computation(kxy):
    rng = Lcg(21)
    for _ in range(25):
        M = random_module(kxy.algebra, rng)
        assert gamma(kxy.ctx, M, shortcut=True) == gamma(kxy.ctx, M, shortcut=False)
        assert kappa(kxy.ctx, M, shortcut=True) == kappa(kxy.ctx, M, shortcut=False)


def _kxy_modules():
    """A fresh parse of KXY and seeded modules over it.  Equal modules of
    one algebra share their memos, so on a shared fixture an earlier test
    may have computed either route already."""
    kxy = load("KXY")
    rng = Lcg(22)
    return kxy, [random_module(kxy.algebra, rng) for _ in range(6)] + [kxy.module("E")]


def test_full_route_computes_no_bounds(monkeypatch):
    # the expected values come from another parse, so that the patched
    # calls below find nothing memoized and compute the full route
    ref, ref_mods = _kxy_modules()
    want = [(gamma(ref.ctx, M, shortcut=False), kappa(ref.ctx, M, shortcut=False))
            for M in ref_mods]
    kxy, mods = _kxy_modules()

    def bound(*args):
        raise AssertionError("bound computed on the full route")

    monkeypatch.setattr(classes, "ideal_times_module", bound)
    monkeypatch.setattr(classes, "annihilator_submodule", bound)
    for M, (g, k) in zip(mods, want):
        assert gamma(kxy.ctx, M, shortcut=False).basis_matrix == g.basis_matrix
        assert kappa(kxy.ctx, M, shortcut=False).basis_matrix == k.basis_matrix
    with pytest.raises(AssertionError):
        gamma(kxy.ctx, mods[0])


def test_degenerate_ideals(r3):
    A = r3.algebra
    R = regular_module(A)
    ctx0 = ClassContext(A, zero_ideal(A))
    assert gamma(ctx0, R).dim == 0
    assert kappa(ctx0, R).dim == R.dim
    ctx1 = ClassContext(A, unit_ideal(A))
    assert gamma(ctx1, R).dim == R.dim
    assert kappa(ctx1, R).dim == 0


@pytest.mark.parametrize("ring, other", [("R3", "R4"), ("R3", "KXY"), ("KXY", "V2")])
def test_ideal_of_another_algebra_is_rejected(fixtures, ring, other):
    A, I = fixtures[ring].algebra, fixtures[other].ideal
    for build in (ClassContext, class_context):
        with pytest.raises(ParentMismatch):
            build(A, I)


def test_membership(r3):
    R = r3.module("regular")
    assert not is_p_member(r3.ctx, R)
    assert not is_s_member(r3.ctx, R)
    Q = r3.module("R-mod-x2")
    assert is_p_member(r3.ctx, Q)
    assert is_s_member(r3.ctx, Q)


def test_duality_transfer_random(v2):
    rng = Lcg(33)
    for _ in range(20):
        M = random_module(v2.algebra, rng)
        assert duality_transfer(v2.ctx, M) == (True, True)


def test_epi_criterion_chain_ring(r3):
    assert epi_onto_r_mod_ann_exists(r3.ctx)
    assert submodule_counterexample(r3.ctx) is None


def test_epi_criterion_fails_two_generators(kxy):
    assert not epi_onto_r_mod_ann_exists(kxy.ctx)
    w = submodule_counterexample(kxy.ctx)
    assert w is not None and w.verified()
    # the witness R.(x, y) inside I^2 is cyclic of length 3
    assert w.submodule.dim == 3
    assert w.ambient_is_p and not w.submodule_is_p


def test_lower_star_matches_trace(r3, kxy):
    for fx in (r3, kxy):
        rng = Lcg(44)
        for _ in range(10):
            M = random_module(fx.algebra, rng)
            W, e = embed_into_injective(M)
            assert lower_star(fx.ctx, M, W, e) == gamma(fx.ctx, M)


def test_upper_star_matches_reject(r3, kxy):
    for fx in (r3, kxy):
        rng = Lcg(55)
        R = regular_module(fx.algebra)
        for rank in (1, 2):
            A, _ = direct_power(R, rank)
            for _ in range(5):
                B = random_submodule(A, rng)
                upper = upper_star(fx.ctx, A, B)
                Q, proj = quotient_module(A, B)
                assert image_in_quotient(upper, proj) == kappa(fx.ctx, Q)


def test_upper_star_requires_free_ambient(r3):
    k = residue_field_module(r3.algebra)
    with pytest.raises(NotFree):
        upper_star(r3.ctx, k, k.zero_submodule())


def test_uniserial_s_chain_ring(r4):
    ctx = r4.ctx
    R = r4.module("regular")
    s, g, k = uniserial_s(ctx, R)
    assert s == 3
    assert g == gamma(ctx, R) and k == kappa(ctx, R)
    chain = uniserial_chain(R)
    assert g == chain[len(chain) - 1 - s] and k == chain[s]


def test_uniserial_s_all_quotients(r4):
    A = r4.algebra
    R = regular_module(A)
    x = A.var_elements[0]
    power = tuple(x)
    for i in (1, 2, 3):
        sub = generated_submodule(R, [power])
        Q, _ = quotient_module(R, sub)
        s, g, k = uniserial_s(r4.ctx, Q)
        assert g == gamma(r4.ctx, Q) and k == kappa(r4.ctx, Q)
        power = multiply(A, tuple(power), x)


def test_uniserial_duality_identities(r4):
    R = r4.module("regular")
    assert uniserial_duality(r4.ctx, R) == (True, True)
    Q = r4.module("R-mod-x2")
    assert uniserial_duality(r4.ctx, Q) == (True, True)


def test_submodules_of_p_members_stay_p_when_criterion_holds(r3):
    ctx = r3.ctx
    rng = Lcg(66)
    Ij, _ = direct_power(ctx.I_mod, 2)
    for _ in range(10):
        U = random_submodule(Ij, rng)
        Q, _ = quotient_module(Ij, U)
        assert is_p_member(ctx, Q)
        V = random_submodule(Q, rng)
        if V.dim:
            Vmod, _ = submodule_as_module(V)
            assert is_p_member(ctx, Vmod)
