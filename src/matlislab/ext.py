"""Free covers, first Ext groups, and extension construction.

Ext^1(C, A) is computed from a free cover 0 -> K -> F -> C -> 0 as
Hom(K, A) modulo the restrictions of Hom(F, A); a representative cocycle
K -> A is turned into an extension module by the pushout
B = (A + F) / {(-c(w), w) | w in K}.

The cover is F = R^t with d = dim(R), and coordinate s*d + m of F is
e_s (x) b_m.  A map F -> A is fixed by the images of e_1, ..., e_t, so
Hom(R^t, A) = A^t (Eisenbud, GTM 150, on Hom of free modules): the map
phi_(s,j) sending e_s to the unit vector e_j of A, and the other e_s'
to 0, sends e_(s,m) to b_m * e_j, which is column j of the action of
b_m.  Its restriction to K is P_j * W_s, where

- P_j is the dim(A) x d matrix with P_j[a][m] = entry (a, j) of the
  action of b_m;
- W_s is rows s*d .. s*d + d - 1 of the inclusion K -> F.

So the restrictions need no Hom(F, A) system, and K, which depends only
on the cover, is built once with it.
"""

from . import linalg
from .classes import is_p_member, is_s_member
from .duality import matlis_dual
from .errors import (
    CoverMismatch,
    DimensionMismatch,
    MatlisLabError,
    NotEquivariant,
    ParentMismatch,
)
from .modules import (
    ModuleMap,
    direct_power,
    direct_sum,
    hom_space,
    quotient_module,
    radical,
    regular_module,
    submodule_as_module,
    submodule_from_spanning,
)
from .randmod import Lcg, random_submodule


class FreeCover:
    """A surjection R^rank -> module, with its kernel K as a module.

    R^rank is the block-diagonal direct power, so coordinate s*d + m is
    e_s (x) b_m; ext1 reads the inclusion of K in those slots.
    """

    def __init__(self, module, rank, epi):
        free, _ = direct_power(regular_module(module.parent), rank)
        if epi.source != free or epi.target != module:
            raise DimensionMismatch("a cover map goes from R^rank to the module")
        if module.dim and not epi.is_surjective():
            raise MatlisLabError("free cover is not surjective")
        self.module = module
        self.rank = rank
        self.free = free
        self.epi = epi
        self.syzygy = epi.kernel()
        self.K_mod, self.K_incl = submodule_as_module(self.syzygy)


def free_cover(M):
    """Minimal free cover: R^t -> M with t = dim of M / mM.

    Generators map to lifts of a basis of the top; minimality shows up
    as syzygy <= radical(free), which is verified.
    """
    A = M.parent
    f = A.field
    units = linalg.identity(M.dim, f)
    keep = linalg.extend_basis(radical(M).basis_matrix, units, f)
    lifts = [units[j] for j in keep]
    free, _ = direct_power(regular_module(A), len(lifts))
    cols = []
    for v in lifts:
        for j in range(A.dim):
            cols.append(linalg.mat_vec(M.actions[j], v, f))
    matrix = linalg.transpose(tuple(cols)) if cols else tuple(() for _ in range(M.dim))
    cov = FreeCover(M, len(lifts), ModuleMap(free, M, matrix, check=False))
    if not radical(cov.free).contains_submodule(cov.syzygy):
        raise MatlisLabError("free cover is not minimal")
    return cov


class Ext1Space:
    """Ext^1(C, A): dimension and representative cocycles K -> A."""

    def __init__(self, C, A, cover, dim, representatives):
        self.C = C
        self.A = A
        self.cover = cover
        self.K_mod = cover.K_mod
        self.K_incl = cover.K_incl
        self.dim = dim
        self.representatives = tuple(representatives)


def ext1(C, A, cover=None):
    """Hom(K, A) modulo the restrictions of Hom(R^t, A) = A^t."""
    if C.parent is not A.parent:
        raise ParentMismatch("Ext across different algebras")
    cov = cover if cover is not None else free_cover(C)
    if cov.module != C:
        raise CoverMismatch("the cover is of another module than C")
    f = A.parent.field
    hom_ka = hom_space(cov.K_mod, A)
    if cov.K_mod.dim == 0 or A.dim == 0:
        return Ext1Space(C, A, cov, 0, ())
    n, d = A.dim, A.parent.dim
    # the P_j stacked: row j*n + a holds P_j[a]
    P = tuple(tuple(act[a][j] for act in A.actions) for j in range(n) for a in range(n))
    restr_rows = []
    for s in range(cov.rank):
        PW = linalg.mat_mul(P, cov.K_incl.matrix[s * d:(s + 1) * d], f)
        for j in range(0, n * n, n):
            restr_rows.append(tuple(x for row in PW[j:j + n] for x in row))
    vecs = [tuple(x for row in h.matrix for x in row) for h in hom_ka.basis]
    reps = [hom_ka.basis[i] for i in linalg.extend_basis(restr_rows, vecs, f)]
    return Ext1Space(C, A, cov, len(reps), reps)


def extension_from_class(ext_space, cocycle):
    """The pushout extension 0 -> A -> B -> C -> 0 for a cocycle K -> A.

    Exactness is certified: the inclusion is injective, the projection
    surjective with kernel exactly the image, and lengths add up.
    """
    A = ext_space.A
    C = ext_space.C
    cov = ext_space.cover
    f = A.parent.field
    k = ext_space.K_mod.dim
    if len(cocycle.matrix) != A.dim or any(len(row) != k for row in cocycle.matrix):
        raise DimensionMismatch("a cocycle is a dim(A) x dim(K) matrix")
    ModuleMap(ext_space.K_mod, A, cocycle.matrix, check=True)  # NotEquivariant if bad

    D, (inj_a, _), (_, proj_f) = direct_sum(A, cov.free)
    # graph column j: minus the cocycle's column j over K_incl's column j
    graph_cols = [
        tuple(f.neg(row[j]) for row in cocycle.matrix)
        + tuple(row[j] for row in ext_space.K_incl.matrix)
        for j in range(ext_space.K_mod.dim)
    ]
    graph = submodule_from_spanning(D, graph_cols)
    B, proj_b = quotient_module(D, graph)

    iota = proj_b.compose(inj_a)
    # the cover surjection kills the graph, so it descends to B
    to_c = cov.epi.compose(proj_f)
    for v in graph.basis_matrix:
        if any(to_c.apply(v)):
            raise NotEquivariant("cocycle does not descend")
    pivset = set(graph.pivots)
    free_cols = [j for j in range(D.dim) if j not in pivset]
    # B's coordinate a lifts to the unit vector at free_cols[a]
    pi_matrix = tuple(tuple(row[j] for j in free_cols) for row in to_c.matrix)
    pi = ModuleMap(B, C, pi_matrix, check=False)

    if not iota.is_injective():
        raise MatlisLabError("extension inclusion not injective")
    if not pi.is_surjective():
        raise MatlisLabError("extension projection not surjective")
    if iota.image() != pi.kernel():
        raise MatlisLabError("extension fails exactness in the middle")
    if B.dim != A.dim + C.dim:
        raise MatlisLabError("extension length mismatch")
    return B, iota, pi


class SearchVerdict:
    """Outcome of the extension-closure search."""

    CLOSED_TRIVIALLY = "ClosedTrivially"
    WITNESS = "Witness"
    EXHAUSTED = "SearchExhausted"

    def __init__(self, kind, mode, a=None, b=None, c=None, iota=None, pi=None, tested=0):
        self.kind = kind
        self.mode = mode
        self.a = a
        self.b = b
        self.c = c
        self.iota = iota
        self.pi = pi
        self.tested = tested

    def __repr__(self):
        return "SearchVerdict(%s, mode=%s, tested=%d)" % (self.kind, self.mode, self.tested)


def _member_pool(ctx, rng, mode):
    """Deterministic pool of class members to draw extension ends from.

    P mode: quotients of I^j (j <= 2) by random submodules, plus the
    residue field when it is I-generated.  S mode: the Matlis duals.
    """
    from .modules import residue_field_module

    pool = []
    for j in (1, 2):
        Ij, _ = direct_power(ctx.I_mod, j)
        pool.append(Ij)
        for _ in range(3):
            U = random_submodule(Ij, rng)
            if 0 < U.dim:
                Q, _ = quotient_module(Ij, U)
                if Q.dim > 0:
                    pool.append(Q)
    k = residue_field_module(ctx.algebra)
    if is_p_member(ctx, k):
        pool.append(k)
    # de-duplicate structurally, keep first occurrences
    seen = []
    uniq = []
    for M in pool:
        if M not in seen:
            seen.append(M)
            uniq.append(M)
    if mode == "S":
        return [matlis_dual(M) for M in uniq]
    return uniq


def _cocycle_candidates(ext_space, rng, f):
    """Representative basis plus scalar combinations, deterministically."""
    reps = ext_space.representatives
    if not reps:
        return
    for h in reps:
        yield h
    if len(reps) < 2:
        return
    p = getattr(f, "p", None)
    if p is not None and p <= 5 and p ** len(reps) <= 3125:
        for idx in range(1, p ** len(reps)):
            coeffs = []
            t = idx
            for _ in range(len(reps)):
                coeffs.append(t % p)
                t //= p
            yield _combine_cocycles(ext_space, coeffs, f)
    else:
        for _ in range(100):
            coeffs = [f.of(rng.randint(5) - 2) for _ in range(len(reps))]
            if any(c != f.zero for c in coeffs):
                yield _combine_cocycles(ext_space, coeffs, f)


def _combine_cocycles(ext_space, coeffs, f):
    mat = linalg.zeros(ext_space.A.dim, ext_space.K_mod.dim, f)
    for c, h in zip(coeffs, ext_space.representatives):
        if c != f.zero:
            mat = linalg.mat_add(mat, linalg.mat_scale(c, h.matrix, f), f)
    return ModuleMap(ext_space.K_mod, ext_space.A, mat, check=False)


def satz25_search(ctx, budget=500, mode="P", seed=0):
    """Search for an extension of class members that leaves the class.

    Trivial cases (I = 0 or I isomorphic to R) are closed; otherwise the
    theory guarantees a witness exists over the ring, but the bounded
    search may still come back SearchExhausted.
    """
    if ctx.I.dim == 0 or ctx.I.is_whole_ring():
        return SearchVerdict(SearchVerdict.CLOSED_TRIVIALLY, mode)
    f = ctx.algebra.field
    rng = Lcg(seed)
    pool = _member_pool(ctx, rng, mode)
    member = is_p_member if mode == "P" else is_s_member
    tested = 0
    for C in pool:
        cov = free_cover(C)
        for A in pool:
            ext_space = ext1(C, A, cover=cov)
            if ext_space.dim == 0:
                continue
            for cocycle in _cocycle_candidates(ext_space, rng, f):
                if tested >= budget:
                    return SearchVerdict(SearchVerdict.EXHAUSTED, mode, tested=tested)
                B, iota, pi = extension_from_class(ext_space, cocycle)
                tested += 1
                if not member(ctx, B):
                    return SearchVerdict(
                        SearchVerdict.WITNESS, mode, a=A, b=B, c=C,
                        iota=iota, pi=pi, tested=tested,
                    )
    return SearchVerdict(SearchVerdict.EXHAUSTED, mode, tested=tested)
