"""The trace and reject functors and membership in the two module classes.

For a fixed ideal I, the class P consists of the I-generated modules
(quotients of direct sums of copies of I) and S of the modules embedding
into products of copies of the dual of I.  The largest P-submodule of M
is the trace of I in M: every image of a map I -> M is I-generated, a sum
of I-generated submodules is I-generated, and any I-generated U <= M is a
sum of images of maps I -> M.  Dually the smallest V with M/V in S is the
reject, the joint kernel of all maps M -> I-dual: the quotient by the
joint kernel embeds into a finite product of copies of I-dual, and any V
with M/V in S contains that kernel.  Sums over a basis of the Hom-space
suffice for the trace (images of spanning maps span all images), and
kernels over a basis suffice for the reject (a kernel of a combination
contains the joint kernel).
"""

from . import linalg
from .algebra import (
    annihilator_of_ideal,
    ideal_product,
    minimal_generators,
)
from .duality import annihilator_in_dual, matlis_dual
from .errors import NotFree, NotInjectiveAmbient, NotUniserial
from .modules import (
    ModuleMap,
    Submodule,
    ann_ring,
    annihilator_submodule,
    colon_submodule,
    direct_power,
    generated_submodule,
    hom_space,
    ideal_times_module,
    ideal_times_submodule,
    quotient_module,
    radical,
    regular_module,
    submodule_as_module,
    submodule_from_spanning,
    uniserial_chain,
)


class ClassContext:
    """An algebra with a distinguished ideal I and its derived data.

    Caches Ann_R(I), the double annihilator, I as a module of its own,
    and the dual of I.  Immutable after construction.
    """

    def __init__(self, algebra, ideal):
        self.algebra = algebra
        self.I = ideal
        self.ann_i = annihilator_of_ideal(ideal)
        self.bar_i = annihilator_of_ideal(self.ann_i)
        self.regular = regular_module(algebra)
        self.I_sub = Submodule(self.regular, ideal.basis_matrix, ideal.pivots)
        self.I_mod, self.I_incl = submodule_as_module(self.I_sub)
        self.I_dual = matlis_dual(self.I_mod)
        if ideal_product(self.ann_i, ideal).dim != 0:
            raise NotFree("annihilator certificate failed")  # cannot happen
        if not self.bar_i.contains_ideal(ideal):
            raise NotFree("double annihilator certificate failed")  # cannot happen

    def __repr__(self):
        return "ClassContext(I dim=%d over %r)" % (self.I.dim, self.algebra)


def gamma(ctx, M, shortcut=True):
    """The trace of I in M: the largest submodule of M lying in P.

    With ``shortcut`` the bounds I*M <= trace <= M[Ann(I)] short-circuit
    the Hom computation when they coincide; verification suites compare
    both routes.
    """
    if shortcut:
        lower = ideal_times_module(ctx.I, M)
        if lower == annihilator_submodule(M, ctx.ann_i):
            return lower
    H = hom_space(ctx.I_mod, M)
    rows = []
    for g in H.basis:
        rows.extend(linalg.transpose(g.matrix))
    return submodule_from_spanning(M, rows)


def kappa(ctx, M, shortcut=True):
    """The reject of I-dual in M: the smallest V with M/V in S."""
    if shortcut:
        lower = ideal_times_module(ctx.ann_i, M)
        if lower == annihilator_submodule(M, ctx.I):
            return lower
    H = hom_space(M, ctx.I_dual)
    if not H.basis:
        return M.full_submodule()
    stacked = linalg.stack(*[g.matrix for g in H.basis])
    return Submodule(M, *linalg.kernel(stacked, M.parent.field))


def is_p_member(ctx, M, shortcut=True):
    return gamma(ctx, M, shortcut=shortcut).dim == M.dim


def is_s_member(ctx, M, shortcut=True):
    return kappa(ctx, M, shortcut=shortcut).dim == 0


def duality_transfer(ctx, M):
    """Verify both Matlis transfer rules for M; must be (True, True)."""
    Md = matlis_dual(M)
    return (
        is_p_member(ctx, M) == is_s_member(ctx, Md),
        is_s_member(ctx, M) == is_p_member(ctx, Md),
    )


def epi_onto_r_mod_ann_exists(ctx):
    """Does some map I -> R/Ann(I) hit the top of the target?

    A map whose composite with the projection onto the one-dimensional
    top is nonzero has image not contained in the radical, hence is
    surjective by Nakayama; conversely a surjection clearly has nonzero
    composite.
    """
    R = ctx.regular
    ann_sub = Submodule(R, ctx.ann_i.basis_matrix, ctx.ann_i.pivots)
    Q, _ = quotient_module(R, ann_sub)
    if Q.dim == 0:
        # Ann(I) = R forces I = 0; the zero map is onto the zero module
        return True
    T, proj_top = quotient_module(Q, radical(Q))
    for g in hom_space(ctx.I_mod, Q).basis:
        if not proj_top.compose(g).is_zero():
            return True
    return False


class SubmoduleWitness:
    """A cyclic submodule of a P-member that fails P membership."""

    def __init__(self, ambient, ambient_is_p, submodule, submodule_module, submodule_is_p):
        self.ambient = ambient
        self.ambient_is_p = ambient_is_p
        self.submodule = submodule
        self.submodule_module = submodule_module
        self.submodule_is_p = submodule_is_p

    def verified(self):
        return self.ambient_is_p and not self.submodule_is_p


def submodule_counterexample(ctx):
    """When the epi criterion fails, exhibit the failure of closure.

    The cyclic submodule generated by the tuple of minimal generators of
    I inside I^n is isomorphic to R/Ann(I) and cannot be I-generated.
    Returns None when the criterion holds.
    """
    if ctx.I.dim == 0 or epi_onto_r_mod_ann_exists(ctx):
        return None
    gens = minimal_generators(ctx.I)
    n = len(gens)
    In, injs = direct_power(ctx.I_mod, n)
    f = ctx.algebra.field
    x = [f.zero] * In.dim
    for g, inj in zip(gens, injs):
        coords = ctx.I_sub.coords(g)
        img = inj.apply(coords)
        x = [f.add(a, b) for a, b in zip(x, img)]
    C = generated_submodule(In, [tuple(x)])
    Cmod, _ = submodule_as_module(C)
    return SubmoduleWitness(
        In,
        is_p_member(ctx, In),
        C,
        Cmod,
        is_p_member(ctx, Cmod),
    )


def is_injective_module(W):
    """Certificate that W is injective: its dual must be free."""
    from .ext import free_cover

    Wd = matlis_dual(W)
    if Wd.dim == 0:
        return True
    return free_cover(Wd).syzygy.dim == 0


def is_free_module(A):
    from .ext import free_cover

    if A.dim == 0:
        return True
    return free_cover(A).syzygy.dim == 0


def embed_into_injective(M):
    """A monomorphism of M into a finite direct sum of copies of E.

    Dualize a free cover of the dual: the dual of the cover surjection
    composed with evaluation is injective.
    """
    from .ext import free_cover

    Md = matlis_dual(M)
    cov = free_cover(Md)
    W = matlis_dual(cov.free)
    e = ModuleMap(M, W, linalg.transpose(cov.epi.matrix), check=False)
    return W, e


def lower_star(ctx, M, W, e):
    """I((e(M) :_W I)) pulled back along e; must equal gamma(ctx, M)."""
    if not is_injective_module(W):
        raise NotInjectiveAmbient("ambient of the lower star is not injective")
    if not e.is_injective():
        raise NotInjectiveAmbient("embedding is not injective")
    f = M.parent.field
    eM = e.image()
    col = colon_submodule(eM, ctx.I, W)
    S = ideal_times_submodule(ctx.I, col)
    funcs = linalg.vanishing_functionals(S.basis_matrix, W.dim, f)
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


def uniserial_s(ctx, M):
    """The uniserial closed form: s with m^s I <= Ann(M) I, and the pair
    (chain[n-s], chain[s]) predicted for the trace and the reject."""
    chain = uniserial_chain(M)
    n = len(chain) - 1
    if n < 1:
        raise NotUniserial("need length >= 1")
    ann_m = ann_ring(M)
    target = ideal_product(ann_m, ctx.I)
    s = 0
    J = ctx.I
    while not target.contains_ideal(J):
        J = ideal_product(ctx.algebra.max_ideal, J)
        s += 1
        if s > n:
            raise NotUniserial("no bound below the length; broken invariant")
    return s, chain[n - s], chain[s]


def uniserial_duality(ctx, M):
    """Check both annihilator identities between M and its dual."""
    g = gamma(ctx, M)
    k = kappa(ctx, M)
    Md = matlis_dual(M)
    g_dual = gamma(ctx, Md)
    k_dual = kappa(ctx, Md)
    return (
        g_dual == annihilator_in_dual(M, k),
        k_dual == annihilator_in_dual(M, g),
    )
