"""Second routes that check the library, for tests only.

- The Hom routes of the trace and the reject: they solve the full
  equivariance systems Hom(I, M) and Hom(M, I°), where the library
  presents I by its syzygies.
- The Hom-basis test for a surjection I -> R/Ann(I), where the library
  asks whether the trace leaves the radical.
- The star operators, the paper's explicit formulas for the trace
  (through an embedding into an injective module) and the reject (of a
  quotient of a free module).
- Spans by one mat_vec per action and vector, then one rref: the
  ideal R*(gens), the submodule R*(vectors), and the equations r*g = 0
  of an annihilator.  The library reads every product a . v off the
  stacked integer columns of the actions in one pass (linalg.span).
- The actions of a quotient module M/U and of a submodule U as a module
  of its own by one mat_mul per action.  The library makes one product
  for all actions: the free column blocks side by side, or the pivot
  rows stacked.
- The cokernel R^t/(columns) by the free module: the block-diagonal
  R^t, the span of its columns by the route above, and the quotient by
  it.  The library reads the cokernel off the multiplication table.
- The seeded draws one scalar at a time: one Lcg.randint call per
  scalar, and field.of of it over Q.  The library draws a whole vector
  in one loop that steps the generator state locally.
- Ext^1(C, A) by the full Hom(F, A) system of the cover F = R^t,
  restricted to a K rebuilt from the syzygy.  The library reads
  Hom(R^t, A) as A^t and keeps K on the cover.
- The extension of a cocycle h: K -> A as the pushout
  (A + F) / {(-h(w), w) | w in K}.  The library builds it on A + C from
  a section of the cover.
- The greedy basis extension that row-reduces the stack of its echelon
  form and each kept candidate again.  The library adds a kept
  candidate by one Gauss-Jordan step.
- Uncached ideal-derived data: minimal generators, the data of a
  ClassContext, I*M and M[I], computed afresh from k-bases where the
  library keeps them by the value of the ideal.
- Constructions only tests use: the zero ideal, sums of ideals, the
  functionals vanishing on a subspace, intersections and colon
  submodules, the essential and small tests, the zero cocycle, the image
  of a map, and the short-exactness test of a pair of maps.  satz31 needs no intersection: it checks socle(M) <=
  gamma directly.
- A rescaled copy of a module, whose actions have denominators over Q.
- The product of two elements summed over the multiplication table.
  The library multiplies by the left multiplications L_i alone.
- The representation law checked pair by pair: associativity of the
  multiplication table over all dim^3 triples of basis elements, and
  A_i A_j = sum_l (b_i b_j)_l A_l over all dim^2 pairs of actions
  derived from the variable matrices.  The library generates the
  actions from the variables and checks one product per standard
  variable and basis monomial.
- A search for module isomorphisms.  It is randomized over Q and large
  F_p, so it certifies an isomorphism when it finds one but proves
  nothing when it does not.
- The trial loop of a suite that checks every trial.  The library checks
  each distinct draw once per suite and reuses its verdict.
"""

from matlislab import linalg
from matlislab.algebra import (
    Ideal,
    actions_from_variables,
    annihilator_of_ideal,
    ideal_product,
    minimal_generators,
)
from matlislab.duality import matlis_dual
from matlislab.errors import MatlisLabError, NotASubmodule, NotFree, ParentMismatch
from matlislab.ext import free_cover
from matlislab.modules import (
    FModule,
    ModuleMap,
    Submodule,
    _projection,
    direct_power,
    direct_sum,
    hom_space,
    ideal_times_submodule,
    quotient_module,
    radical,
    regular_module,
    socle,
    submodule_as_module,
    submodule_from_spanning,
)
from matlislab.randmod import Lcg
from matlislab.report import check


def every_trial(fx, name, count, draw, verdict):
    """suites._trials without its verdicts: each trial's draw is checked."""
    return [check(name % t, fx.name, *verdict(*draw())) for t in range(count)]


class NotInjectiveAmbient(MatlisLabError):
    """The lower star was asked for in an ambient that is not injective."""


def span_by_actions(actions, vectors, field):
    """The echelon pair of the span of all a . v, one mat_vec per action
    a and vector v, reduced by one rref."""
    rows = [linalg.mat_vec(a, v, field) for v in vectors for a in actions]
    return linalg.rref(rows, field) if rows else ((), ())


def annihilator_by_actions(I):
    """Ann(I) from the equations r * g = 0 for the basis vectors g of I:
    column i of the block of g is b_i * g, one mat_vec per basis element."""
    A = I.parent
    f = A.field
    if I.dim == 0:
        return Ideal(A, linalg.identity(A.dim, f), range(A.dim))
    rows = []
    for g in I.basis_matrix:
        rows.extend(zip(*[linalg.mat_vec(a, g, f) for a in A.left_mult]))
    return Ideal(A, *linalg.kernel(rows, f))


def cokernel_by_free_module(A, rank, columns):
    """R^rank / (columns) as the quotient of the block-diagonal free
    module by the span of its columns."""
    free, _ = direct_power(regular_module(A), rank)
    sub = Submodule(free, *span_by_actions(free.actions, columns, A.field))
    return quotient_module(free, sub)[0]


def quotient_by_actions(M, U):
    """The actions of M/U, one mat_mul of the projection per action of M:
    proj times the free columns of the action."""
    f = M.parent.field
    free, proj = _projection(U.basis_matrix, U.pivots, M.dim, f)
    return tuple(
        linalg.mat_mul(proj, tuple(tuple(row[j] for j in free) for row in act), f)
        for act in M.actions
    )


def submodule_actions_by_actions(U):
    """The actions of U as a module of its own, one mat_mul per action of
    the ambient: its pivot rows times the inclusion."""
    M = U.ambient
    f = M.parent.field
    incl = linalg.transpose(U.basis_matrix)
    return tuple(
        linalg.mat_mul(tuple(act[p] for p in U.pivots), incl, f) for act in M.actions
    )


def per_scalar_draws(field, rng, count):
    """count scalars, one rng.randint call each: residues over F_p,
    integers in [-2, 2] over Q."""
    p = getattr(field, "p", None)
    if p is not None:
        return tuple(rng.randint(p) for _ in range(count))
    return tuple(field.of(rng.randint(5) - 2) for _ in range(count))


def per_scalar_element(A, rng, unit=True):
    """A random element, of the maximal ideal unless ``unit``."""
    v = per_scalar_draws(A.field, rng, A.dim)
    return v if unit else (A.field.zero,) + v[1:]


def per_scalar_ideal_generators(A, rng, unit=True):
    """The generators that randmod.random_ideal draws, or with ``unit``
    false the same draws moved into the maximal ideal, for tests that
    need proper ideals."""
    ngens = 1 + rng.randint(2)
    return [per_scalar_element(A, rng, unit) for _ in range(ngens)]


def per_scalar_presentation(A, rng):
    """(t, columns), the presentation that randmod.random_module draws."""
    t = 1 + rng.randint(2)
    nrels = rng.randint(2 * t + 1)
    cols = []
    for _ in range(nrels):
        col = []
        for _ in range(t):
            col.extend(per_scalar_element(A, rng, unit=False))
        cols.append(tuple(col))
    return t, cols


def per_scalar_submodule_vectors(M, rng):
    """The vectors whose closure randmod.random_submodule takes."""
    ngens = 1 + rng.randint(2)
    return [per_scalar_draws(M.parent.field, rng, M.dim) for _ in range(ngens)]


class Ext1ByHomOfFree:
    """Ext^1(C, A) as Hom(K, A) modulo the restrictions of a basis of
    hom_space(F, A), with the attributes of the library's Ext1Space, and
    K_mod and K_incl built here from the syzygy of the cover, to compare
    with the cover's own."""

    def __init__(self, C, A, cover):
        f = A.parent.field
        self.C, self.A, self.cover = C, A, cover
        self.K_mod, self.K_incl = submodule_as_module(cover.syzygy)
        hom_ka = hom_space(self.K_mod, A)
        reps = []
        if self.K_mod.dim and A.dim:
            restr_rows = []
            for g in hom_space(cover.free, A):
                mat = linalg.mat_mul(g.matrix, self.K_incl.matrix, f)
                restr_rows.append(tuple(x for row in mat for x in row))
            vecs = [tuple(x for row in h.matrix for x in row) for h in hom_ka]
            reps = [hom_ka[i] for i in linalg.extend_basis(restr_rows, vecs, f)]
        self.dim = len(reps)
        self.representatives = tuple(reps)


def extension_by_pushout(ext_space, cocycle):
    """(B, iota, pi, lift) for the pushout B = (A + F) / G of a cocycle
    h: K -> A, G = {(-h(w), w) | w in K} the graph.

    Coordinate i of B is the class of the unit vector of A + F at the
    i-th non-pivot column of G's echelon basis; ``lift`` is the
    dim(A + F) x dim(B) matrix of those unit vectors.
    """
    A, C, cov = ext_space.A, ext_space.C, ext_space.cover
    f = A.parent.field
    D, (inj_a, _), (_, proj_f) = direct_sum(A, cov.free)
    graph_cols = [
        tuple(f.neg(row[j]) for row in cocycle.matrix)
        + tuple(row[j] for row in cov.K_incl.matrix)
        for j in range(cov.K_mod.dim)
    ]
    graph = submodule_from_spanning(D, graph_cols)
    B, proj_b = quotient_module(D, graph)
    iota = ModuleMap(A, B, linalg.mat_mul(proj_b.matrix, inj_a.matrix, f))
    pivset = set(graph.pivots)
    free_cols = [j for j in range(D.dim) if j not in pivset]
    to_c = linalg.mat_mul(cov.epi.matrix, proj_f.matrix, f)
    pi = ModuleMap(B, C, tuple(tuple(row[j] for j in free_cols) for row in to_c))
    lift = tuple(
        tuple(f.one if j == c else f.zero for c in free_cols) for j in range(D.dim)
    )
    return B, iota, pi, lift


def extend_basis_by_rereduction(rows, candidates, field):
    """linalg.extend_basis, row-reducing the echelon rows stacked with
    each kept candidate again."""
    red, pivots = linalg.rref(rows, field)
    ncols = len(candidates[0]) if candidates else 0
    kept = []
    for i, cand in enumerate(candidates):
        if len(pivots) == ncols:
            break
        if any(linalg.reduce_vector(red, pivots, cand, field)):
            kept.append(i)
            red, pivots = linalg.rref(red + (tuple(cand),), field)
    return kept


def uncached_minimal_generators(I):
    """The basis rows of I independent modulo m*I, with no memo."""
    A = I.parent
    if I.dim == 0:
        return ()
    mI = ideal_product(A.max_ideal, I)
    keep = linalg.extend_basis(mI.basis_matrix, I.basis_matrix, A.field)
    return tuple(I.basis_matrix[i] for i in keep)


def uncached_context_data(A, I):
    """(Ann(I), Ann(Ann(I)), the actions of I as a module, the syzygies
    of the minimal generators of I), each computed afresh: the values a
    ClassContext of I holds as ann_i, bar_i, I_mod and syzygies()."""
    ann = annihilator_of_ideal(I)
    bar = annihilator_of_ideal(ann)
    R = regular_module(A)
    I_mod, _ = submodule_as_module(Submodule(R, I.basis_matrix, I.pivots))
    gens = uncached_minimal_generators(I)
    d, n = A.dim, len(gens)
    basis = ()
    if gens:
        # s_1 g_1 + ... + s_n g_n = 0 for the unknowns s_1, ..., s_n
        block = [sum(rows, ()) for rows in zip(*[R.action_of(g) for g in gens])]
        basis = linalg.kernel(block, A.field)[0]
    syz = tuple(tuple(tuple(v[j * d:(j + 1) * d]) for j in range(n)) for v in basis)
    return ann.basis_matrix, bar.basis_matrix, I_mod.actions, syz


def uncached_ideal_times_module(I, M):
    """I*M spanned by the products b*m over k-bases of I and M."""
    rows = [col for b in I.basis_matrix for col in linalg.transpose(M.action_of(b))]
    return submodule_from_spanning(M, rows)


def uncached_annihilator_submodule(M, a):
    """M[a], the joint kernel of the actions of a k-basis of a."""
    if a.dim == 0:
        return M.full_submodule()
    stacked = linalg.stack(*[M.action_of(b) for b in a.basis_matrix])
    return Submodule(M, *linalg.kernel(stacked, M.parent.field))


def zero_ideal(A):
    return Ideal(A, (), ())


def ideal_sum(I, J):
    if I.parent is not J.parent:
        raise ParentMismatch("ideal sum across different algebras")
    rows = list(I.basis_matrix) + list(J.basis_matrix)
    return Ideal(I.parent, *linalg.rref(rows, I.parent.field))


def dense_nullspace(rows, ncols, field):
    """Basis of {v in k^ncols | rows . v = 0} read off the dense
    linalg.rref of ``rows``: one vector per free column j, with 1 at j,
    0 at the other free columns and minus entry j of each echelon row at
    that row's pivot column.  The textbook route, kept apart from the
    sparse elimination of linalg.nullspace."""
    red, pivots = linalg.rref(rows, field)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [field.zero] * ncols
        v[j] = field.one
        for row, c in zip(red, pivots):
            v[c] = field.neg(row[j])
        basis.append(tuple(v))
    return tuple(basis)


def vanishing_functionals(rows, ncols, field):
    """Basis of the linear functionals f killing the row space of
    ``rows``, as row vectors with rows . f^T = 0."""
    return dense_nullspace(rows, ncols, field)


def submodule_intersection(U, V):
    """U meet V, as the common kernel of the functionals vanishing on
    each."""
    if U.ambient != V.ambient:
        raise NotASubmodule("intersection of submodules of different modules")
    M = U.ambient
    f = M.parent.field
    fu = vanishing_functionals(U.basis_matrix, M.dim, f)
    fv = vanishing_functionals(V.basis_matrix, M.dim, f)
    rows = list(fu) + list(fv)
    if not rows:
        return M.full_submodule()
    return Submodule(M, *linalg.kernel(rows, f))


def colon_submodule(N, I, M):
    """(N :_M I) = {v | g v in N for every generator g of I}."""
    if N.ambient != M:
        raise NotASubmodule("colon needs N to be a submodule of M")
    f = M.parent.field
    gens = minimal_generators(I)
    if not gens:
        return M.full_submodule()
    funcs = vanishing_functionals(N.basis_matrix, M.dim, f)
    rows = []
    for g in gens:
        act = M.action_of(g)
        for phi in funcs:
            rows.append(linalg.mat_vec(linalg.transpose(act), phi, f))
    if not rows:
        return M.full_submodule()
    return Submodule(M, *linalg.kernel(rows, f))


def is_essential(U, M):
    """At finite length over a local algebra: U contains the socle.

    Every nonzero submodule contains a simple submodule, and all simples
    sit inside the socle, so meeting every nonzero submodule is
    equivalent to containing socle(M).
    """
    if U.ambient != M:
        raise NotASubmodule("essential test needs a submodule of M")
    return U.contains_submodule(socle(M))


def is_small(U, M):
    """At finite length over a local ring: U lies inside the radical.

    The radical is the unique maximal submodule's intersection; U + V = M
    with V proper would force U to cover the top, i.e. escape m*M.
    """
    if U.ambient != M:
        raise NotASubmodule("small test needs a submodule of M")
    return radical(M).contains_submodule(U)


def zero_cocycle(space):
    """The zero cocycle K -> A of an Ext^1(C, A) space."""
    f = space.A.parent.field
    K = space.cover.K_mod
    return ModuleMap(K, space.A, linalg.zeros(space.A.dim, K.dim, f))


def image(phi):
    """The image of a module map, spanned by the columns of its matrix."""
    return submodule_from_spanning(phi.target, linalg.transpose(phi.matrix))


def is_short_exact(iota, pi):
    """0 -> A -> B -> C -> 0 for iota: A -> B and pi: B -> C: both maps
    equivariant (NotEquivariant otherwise), iota injective, pi
    surjective, and im iota = ker pi."""
    for phi in (iota, pi):
        phi.check_equivariance()
    return (
        iota.target is pi.source
        and iota.rank() == iota.source.dim
        and pi.is_surjective()
        and image(iota) == pi.kernel()
    )


def hom_gamma(ctx, M):
    """The trace of I in M: the span of the images of a basis of Hom(I, M)."""
    rows = []
    for g in hom_space(ctx.I_mod, M):
        rows.extend(linalg.transpose(g.matrix))
    return submodule_from_spanning(M, rows)


def hom_kappa(ctx, M):
    """The reject of I° in M: the joint kernel of a basis of Hom(M, I°)."""
    H = hom_space(M, matlis_dual(ctx.I_mod))
    if not H:
        return M.full_submodule()
    stacked = linalg.stack(*[g.matrix for g in H])
    return Submodule(M, *linalg.kernel(stacked, M.parent.field))


def hom_epi_onto_r_mod_ann_exists(ctx):
    """Does some basis map I -> R/Ann(I) have a nonzero composite with
    the projection onto the top of R/Ann(I)?"""
    R = ctx.regular
    ann_sub = Submodule(R, ctx.ann_i.basis_matrix, ctx.ann_i.pivots)
    Q, _ = quotient_module(R, ann_sub)
    if Q.dim == 0:
        return True
    _, proj_top = quotient_module(Q, radical(Q))
    f = R.parent.field
    for g in hom_space(ctx.I_mod, Q):
        if any(x for row in linalg.mat_mul(proj_top.matrix, g.matrix, f) for x in row):
            return True
    return False


def is_injective_module(W):
    """Certificate that W is injective: its dual must be free."""
    Wd = matlis_dual(W)
    if Wd.dim == 0:
        return True
    return free_cover(Wd).syzygy.dim == 0


def is_free_module(A):
    if A.dim == 0:
        return True
    return free_cover(A).syzygy.dim == 0


def embed_into_injective(M):
    """A monomorphism of M into a finite direct sum of copies of E.

    Dualize a free cover of the dual: the dual of the cover surjection
    composed with evaluation is injective.
    """
    Md = matlis_dual(M)
    cov = free_cover(Md)
    W = matlis_dual(cov.free)
    e = ModuleMap(M, W, linalg.transpose(cov.epi.matrix))
    return W, e


def lower_star(ctx, M, W, e):
    """I((e(M) :_W I)) pulled back along e; must equal gamma(ctx, M)."""
    if not is_injective_module(W):
        raise NotInjectiveAmbient("ambient of the lower star is not injective")
    if e.rank() != e.source.dim:
        raise NotInjectiveAmbient("embedding is not injective")
    f = M.parent.field
    eM = image(e)
    col = colon_submodule(eM, ctx.I, W)
    S = ideal_times_submodule(ctx.I, col)
    funcs = vanishing_functionals(S.basis_matrix, W.dim, f)
    rows = [linalg.mat_vec(linalg.transpose(e.matrix), phi, f) for phi in funcs]
    if not rows:
        return M.full_submodule()
    return Submodule(M, *linalg.kernel(rows, f))


def upper_star(ctx, A, B):
    """(I*B :_A I) for a submodule B of a free module A."""
    if not is_free_module(A):
        raise NotFree("upper star needs a free ambient module")
    if B.ambient != A:
        raise NotFree("B must be a submodule of A")
    IB = ideal_times_submodule(ctx.I, B)
    return colon_submodule(IB, ctx.I, A)


def image_in_quotient(U, proj):
    """Image of a submodule of M under a projection M -> M/B."""
    Q = proj.target
    rows = [proj.apply(v) for v in U.basis_matrix]
    return submodule_from_spanning(Q, rows)


def rescaled(M):
    """M in the basis scaled by 1/2, 3, 2/7, ...: an isomorphic module whose
    actions have denominators over Q."""
    f = M.parent.field
    scale = [f.of(*(1, 2) if i % 3 == 0 else (3, 1) if i % 3 == 1 else (2, 7))
             for i in range(M.dim)]
    d = tuple(tuple(scale[i] if i == j else f.zero for j in range(M.dim))
              for i in range(M.dim))
    d_inv = tuple(tuple(f.inv(scale[i]) if i == j else f.zero for j in range(M.dim))
                  for i in range(M.dim))
    return certified_module(M.parent, [linalg.mat_mul(linalg.mat_mul(d, a, f), d_inv, f)
                                       for a in M.actions])


def certified_module(A, actions):
    """FModule(A, actions) once the library's certificate, run on the
    actions of the variables, regenerates exactly these actions."""
    M = FModule(A, actions)
    if actions_from_variables(A, M.generator_actions()) != M.actions:
        raise NotASubmodule("actions are not generated by the variables")
    return M


def multiply(A, u, v):
    """u*v in A, summed term by term over the multiplication table."""
    f = A.field
    out = [f.zero] * A.dim
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            c = f.mul(ui, vj)
            tij = A.mult_table[i][j]
            for r in range(A.dim):
                if tij[r]:
                    out[r] = f.add(out[r], f.mul(c, tij[r]))
    return tuple(out)


def is_associative(A):
    """(b_i b_j) b_k = b_i (b_j b_k) for all dim^3 triples of basis elements."""
    f = A.field
    units = [tuple(f.one if r == k else f.zero for r in range(A.dim)) for k in range(A.dim)]
    return all(
        multiply(A, A.mult_table[i][j], units[k]) == multiply(A, units[i], A.mult_table[j][k])
        for i in range(A.dim) for j in range(A.dim) for k in range(A.dim)
    )


def derived_actions(A, var_mats):
    """The action of each basis monomial x^e as the product of the
    variable matrices, the first variable innermost."""
    f = A.field
    n = len(var_mats[0])
    actions = []
    for exps in A.basis:
        mat = linalg.identity(n, f)
        for vi, e in enumerate(exps):
            for _ in range(e):
                mat = linalg.mat_mul(var_mats[vi], mat, f)
        actions.append(mat)
    return actions


def is_representation_by_pairs(A, var_mats):
    """The derived actions satisfy A_i A_j = sum_l (b_i b_j)_l A_l for all
    dim^2 pairs, and each variable matrix is the action of its normal form."""
    f = A.field
    actions = derived_actions(A, var_mats)
    M = FModule(A, actions)
    for i in range(A.dim):
        for j in range(A.dim):
            if linalg.mat_mul(actions[i], actions[j], f) != M.action_of(A.mult_table[i][j]):
                return False
    return all(M.action_of(v) == mat for v, mat in zip(A.var_elements, var_mats))


def find_isomorphism(M, N, rng=None, tries=200):
    """Search Hom(M, N) for an invertible element.

    Returns a ModuleMap or None.  Over Q (and large F_p) failure means
    "no iso found by the documented search", not a proof of
    non-isomorphism; callers that need to distinguish should inspect
    :func:`iso_search_is_exhaustive`.
    """
    if M.dim != N.dim:
        return None
    if M.dim == 0:
        return ModuleMap(M, N, ())
    f = M.parent.field
    H = hom_space(M, N)
    for g in H:
        if g.rank() == M.dim:
            return g
    if len(H) >= 2:
        p = getattr(f, "p", None)
        if p is not None and p ** len(H) <= 4096:
            for idx in range(1, p ** len(H)):
                coeffs = []
                t = idx
                for _ in range(len(H)):
                    coeffs.append(t % p)
                    t //= p
                g = _combine(H, coeffs, f)
                if linalg.rank(g, f) == M.dim:
                    return ModuleMap(M, N, g)
        else:
            if rng is None:
                rng = Lcg(0)
            for _ in range(tries):
                coeffs = [f.of(rng.randint(5) - 2) for _ in H]
                g = _combine(H, coeffs, f)
                if linalg.rank(g, f) == M.dim:
                    return ModuleMap(M, N, g)
    return None


def iso_search_is_exhaustive(M, N):
    f = M.parent.field
    p = getattr(f, "p", None)
    if p is None:
        return False
    return p ** len(hom_space(M, N)) <= 4096


def _combine(H, coeffs, f):
    """sum_i coeffs[i] * H[i] of a nonempty tuple H of maps M -> N."""
    n, m = H[0].target.dim, H[0].source.dim
    out = linalg.zeros(n, m, f)
    for c, g in zip(coeffs, H):
        if c != f.zero:
            out = linalg.mat_add(out, linalg.mat_scale(c, g.matrix, f), f)
    return out
