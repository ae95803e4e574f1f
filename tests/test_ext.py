import pytest

from reference import (
    Ext1ByHomOfFree,
    certified_module,
    extension_by_pushout,
    find_isomorphism,
    is_short_exact,
    multiply,
    per_scalar_ideal_generators,
    rescaled,
    zero_cocycle,
    zero_ideal,
)
from matlislab import linalg
from matlislab.classes import is_p_member, is_s_member
from matlislab.duality import matlis_dual
from matlislab.errors import CoverMismatch, DimensionMismatch, MatlisLabError, NotEquivariant
from matlislab.ext import (
    FreeCover,
    ext1,
    extension_from_class,
    free_cover,
    satz25_search,
)
from matlislab.algebra import ideal_from_generators, unit_ideal
from matlislab.classes import ClassContext
from matlislab.modules import (
    ModuleMap,
    direct_power,
    direct_sum,
    generated_submodule,
    quotient_module,
    radical,
    regular_module,
    residue_field_module,
    socle,
    zero_module,
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


def test_free_cover_rejects_a_cover_that_is_not_minimal(kxy, monkeypatch):
    # every unit vector kept as a generator: R^dim -> R has syzygies
    # outside the radical of R^dim
    monkeypatch.setattr(linalg, "extend_basis", lambda rows, cands, field: list(range(len(cands))))
    with pytest.raises(MatlisLabError, match="free cover is not minimal"):
        free_cover(regular_module(kxy.algebra))


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
    assert is_short_exact(iota, pi)


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
    Q, _ = quotient_module(R, generated_submodule(R, [multiply(A, x, x)]))
    k = residue_field_module(A)
    es = ext1(k, Q)
    assert es.dim >= 1
    B, _, _ = extension_from_class(es, es.representatives[0])
    assert find_isomorphism(B, R) is not None


def _equivalence(es, cocycle, lift):
    """phi(a, f) = (a + h(f - s(e f)), e f) from A + F to A + C, with s
    the cover's section, read on the pushout's coordinates through
    ``lift``."""
    A, C, cov = es.A, es.C, es.cover
    f = A.parent.field
    a, c, n = A.dim, C.dim, cov.free.dim
    sigma, _ = cov.section()
    eps = cov.epi.matrix
    assert linalg.mat_mul(eps, sigma, f) == linalg.identity(c, f)
    se = linalg.mat_mul(sigma, eps, f) if c else linalg.zeros(n, n, f)
    # f - s(e f) lies in K; its K-coordinates are its entries at the
    # pivots of the syzygy
    units = linalg.identity(n, f)
    to_k = [tuple(map(f.sub, units[p], se[p])) for p in cov.syzygy.pivots]
    top = linalg.mat_mul(cocycle.matrix, to_k, f) if to_k else linalg.zeros(a, n, f)
    ident = linalg.identity(a, f)
    rows = [ident[r] + top[r] for r in range(a)] + [(f.zero,) * a + row for row in eps]
    return linalg.mat_mul(rows, lift, f)


def _ext_modules(fx, rng):
    A = fx.algebra
    mods = [residue_field_module(A), fx.ctx.I_mod]
    mods += [random_module(A, rng) for _ in range(2)]
    mods.append(rescaled(mods[-1]))
    return mods


def _covers(C):
    cov = free_cover(C)
    return [cov, _fattened(cov, True), _fattened(cov, False)]


EQUIVALENCE_ALGEBRAS = ["R3", "R4", "KXY", "V2", "dim10-F101"]


@pytest.mark.parametrize("name", EQUIVALENCE_ALGEBRAS)
def test_extension_is_equivalent_to_pushout(fixtures, extra_fixtures, name):
    """phi is an equivalence of extensions from the pushout onto B: it
    commutes with the action of every basis element, is bijective, and
    carries the pushout's inclusion and projection to B's.  Every B is
    a module, checked over all basis elements."""
    fx = {**fixtures, **extra_fixtures}[name]
    f = fx.algebra.field
    mods = _ext_modules(fx, Lcg(23))
    built = 0
    for C in mods:
        for cov in _covers(C) if C in mods[:2] else [free_cover(C)]:
            for Aend in mods:
                es = ext1(C, Aend, cover=cov)
                for h in es.representatives[:2]:
                    B, iota, pi = extension_from_class(es, h)
                    certified_module(B.parent, B.actions)
                    old, old_iota, old_pi, lift = extension_by_pushout(es, h)
                    phi = _equivalence(es, h, lift)
                    for act_old, act_new in zip(old.actions, B.actions):
                        assert linalg.mat_mul(phi, act_old, f) == linalg.mat_mul(act_new, phi, f)
                    assert linalg.rank(phi, f) == B.dim == old.dim
                    assert linalg.mat_mul(phi, old_iota.matrix, f) == iota.matrix
                    assert linalg.mat_mul(pi.matrix, phi, f) == old_pi.matrix
                    built += 1
    assert built


@pytest.mark.parametrize("name", EQUIVALENCE_ALGEBRAS)
def test_zero_cocycle_gives_the_direct_sum(fixtures, extra_fixtures, name):
    """The zero class gives exactly direct_sum(A, C), with its inclusion
    of A and its projection onto C, on minimal and fattened covers."""
    fx = {**fixtures, **extra_fixtures}[name]
    A = fx.algebra
    mods = _ext_modules(fx, Lcg(37))[:3] + [zero_module(A), regular_module(A)]
    for C in mods:
        for cov in _covers(C):
            for Aend in mods:
                es = ext1(C, Aend, cover=cov)
                B, iota, pi = extension_from_class(es, zero_cocycle(es))
                S, (inj_a, _), (_, proj_c) = direct_sum(Aend, C)
                assert B == S
                assert iota.matrix == inj_a.matrix and pi.matrix == proj_c.matrix


def test_cover_section_is_kept_and_certified(r3):
    """The section and the D_k are built once per cover; a cover map
    that is not equivariant fails their certificate."""
    A = r3.algebra
    f = A.field
    k = residue_field_module(A)
    cov = free_cover(k)
    assert cov.section() is cov.section()
    # e(1) = e(x) = 1 maps onto k, but e(x*1) = 1 while x*e(1) = 0 in k
    bad = FreeCover(k, 1, ModuleMap(cov.free, k, ((f.one, f.one, f.zero),), check=False))
    with pytest.raises(NotEquivariant):
        bad.section()


def _fattened(cov, first):
    """The cover with one more free summand, mapped to zero, put before
    (first) or after the summands of ``cov``."""
    R = regular_module(cov.module.parent)
    f = R.parent.field
    if first:
        big, _, (_, to_cov) = direct_sum(R, cov.free)
    else:
        big, _, (to_cov, _) = direct_sum(cov.free, R)
    epi = ModuleMap(big, cov.module, linalg.mat_mul(cov.epi.matrix, to_cov.matrix, f), check=False)
    return FreeCover(cov.module, cov.rank + 1, epi)


def test_ext_dim_invariant_under_nonminimal_cover(r3):
    A = r3.algebra
    rng = Lcg(17)
    for _ in range(5):
        C = random_module(A, rng)
        Aend = random_module(A, rng)
        d_min = ext1(C, Aend).dim
        cov = free_cover(C)
        for first in (False, True):
            fat = _fattened(cov, first)
            assert fat.syzygy.dim == cov.syzygy.dim + A.dim
            assert ext1(C, Aend, cover=fat).dim == d_min


def test_free_cover_rejects_map_not_from_r_power_to_module(r3):
    A = r3.algebra
    k = residue_field_module(A)
    cov = free_cover(k)
    fat = _fattened(cov, False)
    with pytest.raises(DimensionMismatch):
        FreeCover(k, cov.rank, fat.epi)
    with pytest.raises(DimensionMismatch):
        FreeCover(k, 1, ModuleMap(k, k, ((A.field.one,),), check=False))
    Q, proj = quotient_module(cov.free, socle(cov.free))
    with pytest.raises(DimensionMismatch):
        FreeCover(k, cov.rank, proj)
    assert FreeCover(Q, cov.rank, proj).syzygy == socle(cov.free)


def test_ext1_rejects_cover_of_another_module(kxy):
    # read through these covers, the space would be Ext^1(I, k), of
    # dimension 3, or Ext^1(E, k), of dimension 0
    A = kxy.algebra
    k = residue_field_module(A)
    assert ext1(k, k).dim == 2
    for X in (kxy.ctx.I_mod, matlis_dual(regular_module(A))):
        with pytest.raises(CoverMismatch):
            ext1(k, k, cover=free_cover(X))


def test_extension_rejects_wrong_shape_cocycle(kxy):
    A = kxy.algebra
    f = A.field
    k = residue_field_module(A)
    es = ext1(k, k)
    h = es.representatives[0]
    for matrix in (
        tuple(row + (f.one,) for row in h.matrix),
        tuple(() for _ in h.matrix),
    ):
        with pytest.raises(DimensionMismatch):
            extension_from_class(es, ModuleMap(es.K_mod, k, matrix, check=False))


def _typed(matrix):
    return [[(type(x), x) for x in row] for row in matrix]


EXT_ALGEBRAS = ["R3", "R4", "KXY", "V2", "dim10-Q", "dim10-F101", "QXY-sums"]


@pytest.mark.parametrize("name", EXT_ALGEBRAS)
def test_ext1_matches_hom_of_free_route(fixtures, extra_fixtures, name):
    """Restrictions read from A^t give the same Ext^1 as the full
    Hom(F, A) system: dimension, representatives with their scalar
    types, K, and the extension of the first representative."""
    fx = {**fixtures, **extra_fixtures}[name]
    A = fx.algebra
    rng = Lcg(29)
    k = residue_field_module(A)
    R = regular_module(A)
    E = matlis_dual(R)
    I = fx.ctx.I_mod
    rand = [random_module(A, rng) for _ in range(2)]
    sources = [zero_module(A), k, direct_power(k, 2)[0], direct_power(k, 3)[0], R, I, E] + rand
    targets = [zero_module(A), k, I, E, rand[1]]
    covers = [free_cover(C) for C in sources]
    covers += [_fattened(covers[2], True), _fattened(covers[-1], False)]
    assert {1, 2, 3} <= {cov.rank for cov in covers}
    nonzero = 0
    for cov in covers:
        C = cov.module
        for Aend in targets:
            got = ext1(C, Aend, cover=cov)
            want = Ext1ByHomOfFree(C, Aend, cov)
            assert got.dim == want.dim
            assert [_typed(h.matrix) for h in got.representatives] == [
                _typed(h.matrix) for h in want.representatives
            ]
            assert got.K_mod == want.K_mod
            assert [_typed(a) for a in got.K_mod.actions] == [_typed(a) for a in want.K_mod.actions]
            assert _typed(got.K_incl.matrix) == _typed(want.K_incl.matrix)
            if got.dim:
                nonzero += 1
                B, _, _ = extension_from_class(got, got.representatives[0])
                B_ref, _, _ = extension_from_class(want, want.representatives[0])
                assert [_typed(a) for a in B.actions] == [_typed(a) for a in B_ref.actions]
    assert nonzero


def test_ext1_solves_one_hom_system_and_builds_k_once_per_cover(kxy, monkeypatch):
    import matlislab.ext as ext_mod

    calls = {"hom_space": 0, "submodule_as_module": 0}
    for name in calls:
        def counted(*args, _real=getattr(ext_mod, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(ext_mod, name, counted)
    A = kxy.algebra
    k = residue_field_module(A)
    R = regular_module(A)
    targets = [zero_module(A), k, kxy.ctx.I_mod, R, matlis_dual(R)]
    cov = free_cover(kxy.ctx.I_mod)
    assert calls == {"hom_space": 0, "submodule_as_module": 1}
    for Aend in targets:
        ext1(kxy.ctx.I_mod, Aend, cover=cov)
    assert calls == {"hom_space": len(targets), "submodule_as_module": 1}
    ext1(k, kxy.ctx.I_mod)
    assert calls == {"hom_space": len(targets) + 1, "submodule_as_module": 2}


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
    ctx = r3.ctx
    _, witnesses = satz25_search(ctx)
    for member, (C, (B, iota, pi), outside) in zip((is_p_member, is_s_member), witnesses):
        assert outside
        # A = C: both ends are the one class member
        assert iota.source is C and pi.target is C
        assert member(ctx, C)
        assert not member(ctx, B)
        assert is_short_exact(iota, pi)
    # the S witness is the Matlis dual of the P witness
    (C, (B, iota, pi), _), (Cs, (Bs, iota_s, pi_s), _) = witnesses
    assert C is ctx.I_mod and Cs == matlis_dual(C) and Bs == matlis_dual(B)
    assert iota_s.matrix == linalg.transpose(pi.matrix)
    assert pi_s.matrix == linalg.transpose(iota.matrix)


def test_search_closed_for_trivial_ideals(r3):
    A = r3.algebra
    for I in (zero_ideal(A), unit_ideal(A)):
        assert satz25_search(ClassContext(A, I)) is None


def test_search_deterministic(kxy):
    _, ((_, (b1, _, _), out1), _) = satz25_search(kxy.ctx)
    _, ((_, (b2, _, _), out2), _) = satz25_search(kxy.ctx)
    assert out1 == out2
    assert b1.actions == b2.actions


# Lcg(99) draws of non-unit ideals per algebra; a dim-10 ideal costs
# about 0.1 s, so those algebras get fewer draws
WITNESS_DRAWS = {
    "R3": 60, "R4": 60, "KXY": 60, "V2": 60, "QXY-half": 60, "QXY-sums": 60,
    "dim10-Q": 8, "dim10-F101": 8,
}


@pytest.mark.parametrize("name", sorted(WITNESS_DRAWS))
def test_search_witness_for_random_ideals(fixtures, extra_fixtures, name):
    """Beyond the fixtures' own ideals: for every distinct nonzero
    non-unit ideal drawn, the chosen class of Ext^1(I, I) gives B outside
    P and its dual outside S."""
    A = {**fixtures, **extra_fixtures}[name].algebra
    rng = Lcg(99)
    seen = set()
    for _ in range(WITNESS_DRAWS[name]):
        I = ideal_from_generators(A, per_scalar_ideal_generators(A, rng, unit=False))
        if I.dim == 0 or I.basis_matrix in seen:
            continue
        seen.add(I.basis_matrix)
        ctx = ClassContext(A, I)
        _, witnesses = satz25_search(ctx)
        assert len(witnesses) == 2, (name, I.basis_matrix)
        for mode, member, (C, (B, _, _), outside) in zip("PS", (is_p_member, is_s_member), witnesses):
            assert member(ctx, C), (name, I.basis_matrix, mode)
            assert outside and not member(ctx, B), (name, I.basis_matrix, mode)
            assert B.dim == 2 * C.dim
    assert seen
