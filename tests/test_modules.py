import time
from fractions import Fraction

import pytest

from reference import (
    cokernel_by_free_module,
    colon_submodule,
    image,
    is_essential,
    is_small,
    multiply,
    per_scalar_element,
    rescaled,
    submodule_intersection,
)
from matlislab import linalg
from matlislab.algebra import ideal_from_generators, minimal_generators
from matlislab.duality import matlis_dual
from matlislab.errors import DimensionMismatch, NotEquivariant, NotUniserial
from matlislab.randmod import (
    Lcg,
    random_ideal,
    random_module,
    random_submodule,
)
from matlislab.modules import (
    ModuleMap,
    ann_ring,
    annihilator_submodule,
    cokernel_of_presentation,
    direct_power,
    direct_sum,
    generated_submodule,
    hom_space,
    ideal_times_module,
    ideal_times_submodule,
    quotient_module,
    radical,
    regular_module,
    residue_field_module,
    socle,
    submodule_as_module,
    submodule_from_spanning,
    submodule_sum,
    uniserial_chain,
    zero_module,
)

F = Fraction


def test_regular_module_actions(r3):
    R = regular_module(r3.algebra)
    assert R.dim == 3
    x_act = R.action_of(r3.algebra.var_elements[0])
    # multiplication by x shifts the monomial basis 1 -> x -> x^2 -> 0
    v = x_act and tuple(row[0] for row in x_act)
    assert v == (F(0), F(1), F(0))


@pytest.mark.parametrize("name", ["r3", "r4", "kxy"])
def test_action_of_matches_explicit_combination(request, name):
    fx = request.getfixturevalue(name)
    A = fx.algebra
    f = A.field
    M = fx.module("E")

    def explicit(u):
        out = linalg.zeros(M.dim, M.dim, f)
        for i, c in enumerate(u):
            out = linalg.mat_add(out, linalg.mat_scale(c, M.actions[i], f), f)
        return out

    unit = tuple(f.one if i == 1 else f.zero for i in range(A.dim))
    scaled = tuple(f.mul(f.of(3), x) for x in unit)
    general = tuple(f.of(i * i - 2) if i != 1 else f.zero for i in range(A.dim))
    for u in (unit, scaled, general, (A.field.zero,) * A.dim):
        assert M.action_of(u) == explicit(u)
    assert M.action_of(unit) == M.actions[1]


def test_generator_actions_kept_as_tuple(kxy):
    M = regular_module(kxy.algebra)
    ga = M.generator_actions()
    assert isinstance(ga, tuple)
    assert M.generator_actions() is ga
    assert ga == tuple(M.action_of(v) for v in kxy.algebra.var_elements)


def test_socle_and_radical(r3, kxy):
    R = regular_module(r3.algebra)
    assert socle(R).dim == 1 and radical(R).dim == 2
    K = regular_module(kxy.algebra)
    assert socle(K).dim == 1 and radical(K).dim == 3


def test_residue_field_module(r3):
    k = residue_field_module(r3.algebra)
    assert k.dim == 1
    assert socle(k).dim == 1 and radical(k).dim == 0


def test_quotient_exactness(r3):
    A = r3.algebra
    R = regular_module(A)
    x = A.var_elements[0]
    U = generated_submodule(R, [multiply(A, x, x)])
    Q, proj = quotient_module(R, U)
    assert Q.dim == 2
    assert proj.is_surjective()
    assert proj.kernel().basis_matrix == U.basis_matrix


def test_ideal_times_and_annihilator(r3):
    A = r3.algebra
    R = regular_module(A)
    I = r3.ideal
    assert ideal_times_module(I, R).dim == 2
    ann = annihilator_submodule(R, I)
    assert ann.dim == 1


def test_colon_submodule(r3):
    A = r3.algebra
    R = regular_module(A)
    x = A.var_elements[0]
    U = generated_submodule(R, [multiply(A, x, x)])
    col = colon_submodule(U, r3.ideal, R)
    # (x^2 : x) = (x) in k[x]/(x^3)
    assert col.dim == 2


def test_ann_ring(r3):
    A = r3.algebra
    R = regular_module(A)
    x = A.var_elements[0]
    Q, _ = quotient_module(R, generated_submodule(R, [multiply(A, x, x)]))
    ann = ann_ring(Q)
    assert ann.dim == 1 and ann.contains(multiply(A, x, x))


def test_hom_space_dimensions(r3):
    A = r3.algebra
    R = regular_module(A)
    k = residue_field_module(A)
    assert len(hom_space(R, R).basis) == 3
    assert len(hom_space(R, k).basis) == 1
    assert len(hom_space(k, R).basis) == 1
    assert len(hom_space(k, k).basis) == 1


def test_equivariance_enforced(r3):
    A = r3.algebra
    R = regular_module(A)
    bad = tuple(
        tuple(F(1) if (i, j) == (0, 1) else F(0) for j in range(3)) for i in range(3)
    )
    with pytest.raises(NotEquivariant):
        ModuleMap(R, R, bad, check=True)


def test_direct_sum_maps(r3):
    A = r3.algebra
    R = regular_module(A)
    k = residue_field_module(A)
    S, (ia, ib), (pa, pb) = direct_sum(R, k)
    assert S.dim == 4
    f = A.field

    def after(g, h):
        return linalg.mat_mul(g.matrix, h.matrix, f)

    assert after(pa, ia) == linalg.identity(3, f)
    assert after(pb, ib) == linalg.identity(1, f)
    assert after(pb, ia) == linalg.zeros(1, 3, f)
    assert after(pa, ib) == linalg.zeros(3, 1, f)
    # i_a p_a + i_b p_b is the identity of the sum
    assert linalg.mat_add(after(ia, pa), after(ib, pb), f) == linalg.identity(4, f)


def test_direct_power(r3):
    M, injs = direct_power(regular_module(r3.algebra), 3)
    assert M.dim == 9 and len(injs) == 3


def _direct_power_by_sums(M, j):
    """M^j as direct_power built it before it wrote its blocks directly:
    iterated direct_sum, each earlier injection composed with the new one."""
    if j == 0:
        return zero_module(M.parent), []
    S = M
    injs = [ModuleMap(M, M, linalg.identity(M.dim, M.parent.field), check=False)]
    for _ in range(j - 1):
        S2, (ia, ib), _ = direct_sum(S, M)
        injs = [
            ModuleMap(M, S2, linalg.mat_mul(ia.matrix, e.matrix, M.parent.field), check=False)
            for e in injs
        ] + [ib]
        S = S2
    return S, injs


@pytest.mark.parametrize("name", ["R3", "KXY", "R4"])
def test_direct_power_matches_iterated_sums(fixtures, name):
    fx = fixtures[name]
    A = fx.algebra
    rng = Lcg(17)
    mods = [regular_module(A), fx.ctx.I_mod, random_module(A, rng)]
    mods.append(rescaled(mods[-1]))
    for M in mods:
        for j in range(5):
            got, got_injs = direct_power(M, j)
            want, want_injs = _direct_power_by_sums(M, j)
            assert got == want
            assert [i.matrix for i in got_injs] == [i.matrix for i in want_injs]
            assert [type(x) for a in got.actions for r in a for x in r] == [
                type(x) for a in want.actions for r in a for x in r
            ]
            assert [type(x) for i in got_injs for r in i.matrix for x in r] == [
                type(x) for i in want_injs for r in i.matrix for x in r
            ]
            assert all(i.source == M and i.target == got for i in got_injs)


def test_direct_power_of_high_rank_is_fast(r3):
    """Building R^85 over k[x]/(x^3) took about 10 s on a 2-vCPU host
    when every earlier injection was composed with each new one."""
    start = time.perf_counter()
    M, injs = direct_power(regular_module(r3.algebra), 85)
    assert time.perf_counter() - start < 1.0
    assert M.dim == 255 and len(injs) == 85


def test_uniserial_chain(r3, kxy):
    R = regular_module(r3.algebra)
    chain = uniserial_chain(R)
    assert [u.dim for u in chain] == [3, 2, 1, 0]
    K = regular_module(kxy.algebra)
    with pytest.raises(NotUniserial):
        uniserial_chain(K)


def test_essential_and_small(r3):
    R = regular_module(r3.algebra)
    assert is_essential(socle(R), R)
    assert is_small(radical(R), R)
    assert not is_essential(R.zero_submodule(), R)


def test_submodule_lattice_ops(kxy):
    A = kxy.algebra
    R = regular_module(A)
    x, y = A.var_elements
    U = generated_submodule(R, [x])
    V = generated_submodule(R, [y])
    s = submodule_sum(U, V)
    i = submodule_intersection(U, V)
    assert s.dim == 3 and i.dim == 1
    assert i.contains(multiply(A, x, y))


def test_submodule_as_module_inclusion(r3):
    A = r3.algebra
    R = regular_module(A)
    U = generated_submodule(R, [A.var_elements[0]])
    Umod, incl = submodule_as_module(U)
    assert Umod.dim == 2
    assert incl.rank() == incl.source.dim
    assert image(incl).basis_matrix == U.basis_matrix


@pytest.mark.parametrize("name", ["R3", "R4", "KXY", "V2"])
def test_submodule_as_module_matches_per_vector_images(fixtures, name):
    """Each action is read off the pivot entries of the images of U's
    basis vectors, with the same entry types."""
    fx = fixtures[name]
    A = fx.algebra
    f = A.field
    rng = Lcg(29)
    mods = [fx.module(m) for m in sorted(fx.modules)]
    mods += [random_module(A, rng) for _ in range(2)]
    mods.append(rescaled(mods[-1]))
    for M in mods:
        for U in (random_submodule(M, rng), radical(M), M.zero_submodule(), M.full_submodule()):
            Umod, _ = submodule_as_module(U)
            assert Umod.dim == U.dim
            for act, got in zip(M.actions, Umod.actions):
                images = [linalg.mat_vec(act, b, f) for b in U.basis_matrix]
                want = tuple(tuple(img[p] for img in images) for p in U.pivots)
                assert got == want
                assert [type(x) for r in got for x in r] == [type(x) for r in want for x in r]


def test_cokernel_of_presentation(r3):
    A = r3.algebra
    x = A.var_elements[0]
    x2 = multiply(A, x, x)
    Q = cokernel_of_presentation(A, 1, [x2])
    assert Q.dim == 2
    assert _typed_actions(Q) == _typed_actions(cokernel_by_free_module(A, 1, [x2]))


def _typed_actions(M):
    return [[[(type(x), x) for x in row] for row in act] for act in M.actions]


def _presentations(A, rng, draws):
    """Ranks 0, 1 and 2 with no columns and with a unit column, then
    seeded presentations of rank 1 or 2 whose columns may hold units
    and, over Q, Fractions."""
    f = A.field
    cases = []
    for t in range(3):
        unit = (f.one,) + (f.zero,) * (A.dim * t - 1) if t else ()
        cases += [(t, []), (t, [unit])]
    for _ in range(draws):
        t = 1 + rng.randint(2)
        scale = f.of(1 + rng.randint(3), 1 + rng.randint(3))
        cols = []
        for _ in range(rng.randint(2 * t + 1)):
            col = []
            for _ in range(t):
                col.extend(f.mul(scale, x) for x in per_scalar_element(A, rng))
            cols.append(tuple(col))
        cases.append((t, cols))
    return cases


COKERNEL_ALGEBRAS = ["R3", "KXY", "V2", "R4", "dim10-Q", "dim10-F101", "QXY-half", "QXY-sums"]


@pytest.mark.parametrize("name", COKERNEL_ALGEBRAS)
def test_cokernel_matches_free_module_route(fixtures, extra_fixtures, name):
    """The table-read cokernel equals the quotient of the block-diagonal
    free module, action by action and with the same scalar types."""
    A = {**fixtures, **extra_fixtures}[name].algebra
    for t, cols in _presentations(A, Lcg(41), 40):
        got = cokernel_of_presentation(A, t, cols)
        want = cokernel_by_free_module(A, t, cols)
        assert _typed_actions(got) == _typed_actions(want), (t, cols)


@pytest.mark.parametrize("rank, length", [(1, 2), (1, 4), (1, 5), (2, 3), (0, 1)])
def test_cokernel_rejects_wrong_length_columns(r3, rank, length):
    f = r3.algebra.field
    with pytest.raises(DimensionMismatch):
        cokernel_of_presentation(r3.algebra, rank, [(f.one,) * length])


def _quotient_by_sections(M, U):
    """proj . act . sect with an explicit 0/1 section matrix: the formula
    quotient_module used before it picked out the free columns directly."""
    f = M.parent.field
    free = [j for j in range(M.dim) if j not in set(U.pivots)]
    reduced = [
        linalg.reduce_vector(U.basis_matrix, U.pivots, e, f)
        for e in linalg.identity(M.dim, f)
    ]
    proj = tuple(tuple(reduced[j][c] for j in range(M.dim)) for c in free)
    sect = tuple(
        tuple(f.one if c == i else f.zero for c in free) for i in range(M.dim)
    )
    actions = tuple(
        linalg.mat_mul(proj, linalg.mat_mul(act, sect, f), f) for act in M.actions
    )
    return actions, proj


@pytest.mark.parametrize("name", ["KXY", "V2", "R4"])
def test_quotient_actions_match_section_formula(fixtures, name):
    A = fixtures[name].algebra
    rng = Lcg(7)
    for _ in range(6):
        M = random_module(A, rng)
        for U in (random_submodule(M, rng), M.zero_submodule(), M.full_submodule()):
            Q, proj = quotient_module(M, U)
            actions, proj_ref = _quotient_by_sections(M, U)
            assert Q.actions == actions
            assert proj.matrix == proj_ref
            assert [type(x) for a in Q.actions for r in a for x in r] == [
                type(x) for a in actions for r in a for x in r
            ]
            assert [type(x) for r in proj.matrix for x in r] == [
                type(x) for r in proj_ref for x in r
            ]


def _hom_basis_by_fractions(M, N):
    """The equivariance system X ga - gb X = 0 written entry by entry with
    field arithmetic, as hom_space built it before it cleared
    denominators; returns the basis matrices."""
    f = M.parent.field
    dm, dn = M.dim, N.dim
    if dm == 0 or dn == 0:
        return []
    rows = []
    for ga, gb in zip(M.generator_actions(), N.generator_actions()):
        for a in range(dn):
            for c in range(dm):
                row = [f.zero] * (dn * dm)
                for j in range(dm):
                    row[a * dm + j] = ga[j][c]
                for i in range(dn):
                    row[i * dm + c] = f.neg(gb[a][i])
                row[a * dm + c] = f.sub(ga[c][c], gb[a][a])
                rows.append(tuple(row))
    return [
        tuple(tuple(s[a * dm + j] for j in range(dm)) for a in range(dn))
        for s in linalg.nullspace(rows, f)
    ]


@pytest.mark.parametrize("name", ["KXY", "V2", "R4"])
def test_hom_space_matches_fraction_system(fixtures, name):
    fx = fixtures[name]
    A = fx.algebra
    rng = Lcg(11)
    mods = [fx.module(m) for m in sorted(fx.modules)]
    mods += [fx.ctx.I_mod, matlis_dual(fx.ctx.I_mod)]
    mods += [random_module(A, rng) for _ in range(3)]
    mods += [rescaled(M) for M in mods[-4:]] + [direct_power(fx.module("E"), 2)[0]]
    for M in mods:
        for N in mods:
            got = [g.matrix for g in hom_space(M, N).basis]
            want = _hom_basis_by_fractions(M, N)
            assert got == want
            assert [type(x) for g in got for r in g for x in r] == [
                type(x) for g in want for r in g for x in r
            ]


def _ideal_times_two_pass(I, U):
    """I*U from the generator images, closed up under the action again:
    the second pass ideal_times_submodule no longer makes."""
    M = U.ambient
    f = M.parent.field
    rows = [
        linalg.mat_vec(M.action_of(g), v, f)
        for g in minimal_generators(I)
        for v in U.basis_matrix
    ]
    return generated_submodule(M, submodule_from_spanning(M, rows).basis_matrix)


@pytest.mark.parametrize("name", ["KXY", "V2", "R4"])
def test_ideal_times_submodule_needs_one_pass(fixtures, name):
    fx = fixtures[name]
    A = fx.algebra
    rng = Lcg(13)
    ideals = [fx.ideal, A.max_ideal] + [random_ideal(A, rng) for _ in range(3)]
    for _ in range(4):
        M = random_module(A, rng)
        for U in (random_submodule(M, rng), M.zero_submodule(), M.full_submodule()):
            for I in ideals:
                got = ideal_times_submodule(I, U)
                want = _ideal_times_two_pass(I, U)
                assert got == want
                assert got.pivots == want.pivots
                assert [type(x) for r in got.basis_matrix for x in r] == [
                    type(x) for r in want.basis_matrix for x in r
                ]


@pytest.mark.parametrize("name", ["R3", "R4", "KXY", "V2"])
def test_ideal_times_module_matches_full_submodule(fixtures, name):
    """I*M from the columns of the generators' actions equals I*U for U
    the full submodule, and the product of each action with each unit
    vector."""
    fx = fixtures[name]
    A = fx.algebra
    rng = Lcg(19)
    mods = [fx.module(m) for m in sorted(fx.modules)]
    mods += [fx.ctx.I_mod, matlis_dual(fx.ctx.I_mod)]
    mods += [random_module(A, rng) for _ in range(3)]
    mods.append(rescaled(mods[-1]))
    for M in mods:
        for I in (fx.ctx.I, fx.ctx.ann_i, A.max_ideal):
            got = ideal_times_module(I, M)
            assert got == ideal_times_submodule(I, M.full_submodule())
            assert got == _ideal_times_two_pass(I, M.full_submodule())
