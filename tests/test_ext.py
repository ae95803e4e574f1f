import pytest

from reference import find_isomorphism, rescaled, zero_cocycle, zero_ideal
from matlislab.classes import is_p_member, is_s_member
from matlislab.errors import NotEquivariant
from matlislab.ext import (
    SearchVerdict,
    ext1,
    extension_from_class,
    free_cover,
    satz25_search,
)
from matlislab.algebra import unit_ideal
from matlislab.classes import ClassContext
from matlislab.modules import (
    direct_power,
    direct_sum,
    generated_submodule,
    quotient_module,
    radical,
    regular_module,
    residue_field_module,
    submodule_from_spanning,
)
from matlislab.randmod import Lcg, random_module


def test_free_cover_minimal(r3):
    A = r3.algebra
    R = regular_module(A)
    cov = free_cover(R)
    assert cov.free.dim == A.dim and cov.syzygy.dim == 0
    k = residue_field_module(A)
    covk = free_cover(k)
    assert covk.free.dim == A.dim and covk.syzygy.dim == A.dim - 1
    assert radical(covk.free).contains_submodule(covk.syzygy)


def test_ext_vanishes_for_free_source(r3):
    R = regular_module(r3.algebra)
    k = residue_field_module(r3.algebra)
    assert ext1(R, k).dim == 0
    assert ext1(R, R).dim == 0


def test_ext_known_dimensions(r3):
    A = r3.algebra
    k = residue_field_module(A)
    R = regular_module(A)
    # Ext^1(k, k) over k[x]/(x^3): syzygy of k is (x), Hom((x), k) is 1-dim,
    # restrictions from Hom(R, k) hit the radical so nothing dies: dim 1
    assert ext1(k, k).dim == 1
    assert ext1(k, R).dim == 0  # R is injective here (Gorenstein chain ring)


def test_extension_exactness(r3):
    A = r3.algebra
    k = residue_field_module(A)
    es = ext1(k, k)
    B, iota, pi = extension_from_class(es, es.representatives[0])
    assert B.dim == 2
    assert iota.is_injective() and pi.is_surjective()
    assert iota.image() == pi.kernel()


def test_zero_class_gives_split_extension(r3):
    A = r3.algebra
    k = residue_field_module(A)
    es = ext1(k, k)
    B, _, _ = extension_from_class(es, zero_cocycle(es))
    S, _, _ = __import__("matlislab.modules", fromlist=["direct_sum"]).direct_sum(k, k)
    assert find_isomorphism(B, S) is not None


def test_nonsplit_extension_of_tops(r3):
    # the nonzero class in Ext^1(k, R/x^2) glues to something of length 3;
    # over the chain ring the only candidates are R and non-cyclic ones,
    # and the cocycle construction lands on R itself
    A = r3.algebra
    R = regular_module(A)
    x = A.var_elements[0]
    Q, _ = quotient_module(R, generated_submodule(R, [A.multiply(x, x)]))
    k = residue_field_module(A)
    es = ext1(k, Q)
    assert es.dim >= 1
    B, _, _ = extension_from_class(es, es.representatives[0])
    assert find_isomorphism(B, R) is not None


def _extension_by_unit_vectors(es, cocycle):
    """B of the pushout, each graph column built by applying the cocycle,
    the inclusion of K and both injections to a unit vector of K."""
    A = es.A
    f = A.parent.field
    D, (inj_a, inj_f), _ = direct_sum(A, es.cover.free)
    cols = []
    for j in range(es.K_mod.dim):
        e = tuple(f.one if t == j else f.zero for t in range(es.K_mod.dim))
        vec = inj_f.apply(es.K_incl.apply(e))
        neg = inj_a.apply(tuple(f.neg(x) for x in cocycle.apply(e)))
        cols.append(tuple(f.add(u, v) for u, v in zip(vec, neg)))
    B, _ = quotient_module(D, submodule_from_spanning(D, cols))
    return B


@pytest.mark.parametrize("name", ["R3", "R4", "KXY", "V2"])
def test_extension_graph_matches_unit_vector_route(fixtures, name):
    fx = fixtures[name]
    A = fx.algebra
    rng = Lcg(23)
    mods = [residue_field_module(A), fx.ctx.I_mod]
    mods += [random_module(A, rng) for _ in range(2)]
    mods.append(rescaled(mods[-1]))
    built = 0
    for C in mods:
        cov = free_cover(C)
        for Aend in mods:
            es = ext1(C, Aend, cover=cov)
            for h in es.representatives[:2]:
                B, _, _ = extension_from_class(es, h)
                assert B == _extension_by_unit_vectors(es, h)
                built += 1
    assert built


def test_ext_dim_invariant_under_nonminimal_cover(r3):
    from matlislab.ext import FreeCover
    from matlislab.modules import direct_sum, ModuleMap
    from matlislab import linalg

    A = r3.algebra
    f = A.field
    rng = Lcg(17)
    for _ in range(5):
        C = random_module(A, rng)
        Aend = random_module(A, rng)
        d_min = ext1(C, Aend).dim
        # fatten the cover with a redundant free summand mapping to zero
        cov = free_cover(C)
        R = regular_module(A)
        big, (i1, i2), (p1, p2) = direct_sum(cov.free, R)
        epi = ModuleMap(big, C, linalg.mat_mul(cov.epi.matrix, p1.matrix, f), check=False)
        fat = FreeCover(C, big, epi, epi.kernel(), None)
        assert ext1(C, Aend, cover=fat).dim == d_min


def test_cocycle_must_be_equivariant(r3):
    A = r3.algebra
    k = residue_field_module(A)
    R = regular_module(A)
    es = ext1(k, R)
    # Hom(K, R) with K = (x): a map sending x to 1 is not equivariant
    from matlislab.modules import ModuleMap
    from matlislab import linalg

    bad = ModuleMap(
        es.K_mod,
        R,
        tuple(
            tuple(A.field.one for _ in range(es.K_mod.dim)) for _ in range(R.dim)
        ),
        check=False,
    )
    with pytest.raises(NotEquivariant):
        extension_from_class(es, bad)


def test_search_finds_witness_both_modes(r3):
    for mode in ("P", "S"):
        v = satz25_search(r3.ctx, budget=500, mode=mode, seed=0)
        assert v.kind == SearchVerdict.WITNESS
        member = is_p_member if mode == "P" else is_s_member
        assert member(r3.ctx, v.a) and member(r3.ctx, v.c)
        assert not member(r3.ctx, v.b)
        assert v.iota.is_injective() and v.pi.is_surjective()
        assert v.iota.image() == v.pi.kernel()


def test_search_closed_for_trivial_ideals(r3):
    A = r3.algebra
    for I in (zero_ideal(A), unit_ideal(A)):
        ctx = ClassContext(A, I)
        for mode in ("P", "S"):
            assert satz25_search(ctx, mode=mode).kind == SearchVerdict.CLOSED_TRIVIALLY


def test_search_deterministic(kxy):
    v1 = satz25_search(kxy.ctx, budget=200, mode="P", seed=5)
    v2 = satz25_search(kxy.ctx, budget=200, mode="P", seed=5)
    assert v1.kind == v2.kind and v1.tested == v2.tested
    if v1.kind == SearchVerdict.WITNESS:
        assert v1.b.actions == v2.b.actions
