"""The trace and reject functors and membership in the two module classes.

For a fixed ideal I, the class P consists of the I-generated modules
(quotients of direct sums of copies of I) and S of the modules embedding
into products of copies of the dual I° of I.  The largest P-submodule of
M is the trace of I in M, the sum of the images of all maps I -> M: each
image is I-generated, a sum of I-generated submodules is I-generated,
and any I-generated U <= M is a sum of such images.  Dually the smallest
V with M/V in S is the reject, the joint kernel of all maps M -> I°: the
quotient by the joint kernel embeds into a finite product of copies of
I°, and any V with M/V in S contains that kernel.

Both are computed from a presentation of I (see Eisenbud, Commutative
Algebra, GTM 150, on Hom and tensor products of presented modules).  Let
g_1, ..., g_n be the minimal generators of I and Syz <= R^n their
syzygies, the (s_1, ..., s_n) with s_1 g_1 + ... + s_n g_n = 0, so that
I = R^n / Syz.

- A map I -> M is the choice of images m_i of the g_i with
  s_1 m_1 + ... + s_n m_n = 0 for every s in Syz, and its image is
  R m_1 + ... + R m_n.  The solutions (m_1, ..., m_n) form an R-module,
  so the trace is the k-span of the n slots of a basis of solutions.
- Hom_R(M, I°) is the k-dual of I ⊗ M = M^n / Syz.M, where Syz.M is
  spanned by the (s_1 m, ..., s_n m).  A map M -> I° kills m exactly
  when its functional kills g_j ⊗ m for every j, so the reject is the
  set of m that lie in Syz.M when put in slot j, for every j.

A k-basis of Syz gives both systems: n.dim(M) unknowns, against
dim(I).dim(M) for a Hom system.

Membership needs neither system when Ann(I).M != 0: Ann(I) kills every
module in P and in S, so is_p_member and is_s_member return False from
that bound alone.  The suites that test membership, lemma11 and the
satz22 equivalence among them, therefore exercise gamma and kappa only
where Ann(I).M = 0; satz31, folg32, satz35 and folg36 still call them
directly.
"""

from . import linalg
from .algebra import (
    annihilator_of_ideal,
    ideal_product,
    minimal_generators,
)
from .duality import annihilator_in_dual, matlis_dual
from .errors import NotFree, NotUniserial, ParentMismatch
from .modules import (
    Submodule,
    _by_ideal_value,
    ann_ring,
    annihilator_submodule,
    direct_power,
    generated_submodule,
    ideal_times_module,
    quotient_module,
    radical,
    regular_module,
    submodule_as_module,
    submodule_from_spanning,
    uniserial_chain,
)


def _require_ideal_of(algebra, ideal):
    if ideal.parent is not algebra:
        raise ParentMismatch("ideal of another algebra")


def class_context(algebra, ideal):
    """The ClassContext of ``ideal``, built once per distinct ideal.

    Contexts are kept in a dict on the algebra keyed by the ideal's
    value, for the algebra's lifetime: every context depends only
    on the value of I, and its certificates are deterministic, so
    building it again for an equal ideal would prove nothing new.
    Raises ParentMismatch for an ideal of another algebra.
    """
    _require_ideal_of(algebra, ideal)
    memo = algebra._context_memo
    ctx = memo.get(ideal)
    if ctx is None:
        ctx = memo[ideal] = ClassContext(algebra, ideal)
    return ctx


class ClassContext:
    """An algebra with a distinguished ideal I and its derived data.

    Holds Ann_R(I), the double annihilator and I as a module of its own;
    the syzygies of I are computed on first use and kept on the context.
    Build it through :func:`class_context`, which keeps one context per
    distinct ideal on the algebra.  Raises ParentMismatch, before any
    computation, for an ideal of another algebra.
    """

    def __init__(self, algebra, ideal):
        _require_ideal_of(algebra, ideal)
        self.algebra = algebra
        self.I = ideal
        self.ann_i = annihilator_of_ideal(ideal)
        self.bar_i = annihilator_of_ideal(self.ann_i)
        self.regular = regular_module(algebra)
        self.I_sub = Submodule(self.regular, ideal.basis_matrix, ideal.pivots)
        self.I_mod, _ = submodule_as_module(self.I_sub)
        self._syzygies = None
        if ideal_product(self.ann_i, ideal).dim != 0:
            raise NotFree("annihilator certificate failed")  # cannot happen
        if not self.bar_i.contains_ideal(ideal):
            raise NotFree("double annihilator certificate failed")  # cannot happen

    def syzygies(self):
        """A k-basis of the syzygies of the minimal generators g_1..g_n of I.

        Each syzygy is an n-tuple (s_1, ..., s_n) of ring elements with
        s_1 g_1 + ... + s_n g_n = 0: a solution of the row block
        [L_g1 | ... | L_gn], L_g the multiplication by g.  Computed once
        per context and kept on it.
        """
        if self._syzygies is None:
            gens = minimal_generators(self.I)
            block = _row_block([self.regular.action_of(g) for g in gens])
            basis = linalg.kernel(block, self.algebra.field)[0] if gens else ()
            self._syzygies = tuple(_slots(v, len(gens), self.algebra.dim) for v in basis)
        return self._syzygies

    def __repr__(self):
        return "ClassContext(I dim=%d over %r)" % (self.I.dim, self.algebra)


def _row_block(matrices):
    """The matrices, of equal row counts, side by side."""
    return [sum(rows, ()) for rows in zip(*matrices)]


def _slots(v, n, d):
    """A vector of length n*d cut into its n slots of length d."""
    return tuple(tuple(v[j * d:(j + 1) * d]) for j in range(n))


def gamma(ctx, M, shortcut=True):
    """The trace of I in M: the largest submodule of M lying in P.

    With ``shortcut`` the bounds I*M <= trace <= M[Ann(I)] short-circuit
    the computation when they coincide; verification suites compare
    both routes.  Otherwise the trace is the span of the slots of the
    solutions (m_1, ..., m_n) of s_1 m_1 + ... + s_n m_n = 0, s running
    over the syzygies of I.  Each route is computed once per (value of I,
    value of M) in a suite, and kept on M and the modules equal to it.
    """
    return _by_ideal_value(("gamma", shortcut), ctx.I, M, lambda: _gamma(ctx, M, shortcut))


def _gamma(ctx, M, shortcut):
    if shortcut:
        lower = ideal_times_module(ctx.I, M)
        if lower == annihilator_submodule(M, ctx.ann_i):
            return lower
    n = len(minimal_generators(ctx.I))
    if n == 0 or M.dim == 0:
        return M.zero_submodule()
    syz = ctx.syzygies()
    if not syz:
        # I is free, hence I = R
        return M.full_submodule()
    rows = []
    for s in syz:
        rows.extend(_row_block([M.action_of(si) for si in s]))
    sols, _ = linalg.kernel(rows, M.parent.field)
    return submodule_from_spanning(M, [m for v in sols for m in _slots(v, n, M.dim)])


def kappa(ctx, M, shortcut=True):
    """The reject of I° in M: the smallest V with M/V in S.

    Without the shortcut: the m that lie in Syz.M inside M^n when put in
    slot j, for every j.  Memoized per route as gamma is.
    """
    return _by_ideal_value(("kappa", shortcut), ctx.I, M, lambda: _kappa(ctx, M, shortcut))


def _kappa(ctx, M, shortcut):
    if shortcut:
        lower = ideal_times_module(ctx.ann_i, M)
        if lower == annihilator_submodule(M, ctx.I):
            return lower
    n = len(minimal_generators(ctx.I))
    if n == 0 or M.dim == 0:
        return M.full_submodule()
    f = M.parent.field
    # Syz.M is spanned by the (s_1 m, ..., s_n m) over a basis of M: the
    # rows of [S_1^T | ... | S_n^T], S_i the action of s_i
    spanning = []
    for s in ctx.syzygies():
        spanning.extend(_row_block([linalg.transpose(M.action_of(si)) for si in s]))
    # the functionals vanishing on Syz.M; any basis of them gives the
    # same joint kernel below
    funcs = linalg.kernel(spanning, f)[0] if spanning else linalg.identity(n * M.dim, f)
    if not funcs:
        return M.full_submodule()
    rows = [phi for v in funcs for phi in _slots(v, n, M.dim)]
    return Submodule(M, *linalg.kernel(rows, f))


def is_p_member(ctx, M):
    """Is M in P, i.e. is the trace of I in M all of M?

    Ann(I) kills I and so every quotient of a sum of copies of I: M in P
    forces M[Ann(I)] = M.  So M[Ann(I)] != M decides False at once, and
    exactly; otherwise the trace decides.  M[Ann(I)] is the upper bound
    that gamma's shortcut computes anyway, memoized by value.
    """
    if annihilator_submodule(M, ctx.ann_i).dim != M.dim:
        return False
    return gamma(ctx, M).dim == M.dim


def is_s_member(ctx, M):
    """Is M in S, i.e. is the reject of I° in M zero?

    Ann(I) kills I, hence I° and every submodule of a product of copies
    of I°: M in S forces Ann(I)*M = 0.  So Ann(I)*M != 0 decides False
    at once, and exactly; otherwise the reject decides.  Ann(I)*M is the
    lower bound that kappa's shortcut computes anyway, memoized by value.
    """
    if ideal_times_module(ctx.ann_i, M).dim != 0:
        return False
    return kappa(ctx, M).dim == 0


def duality_transfer(ctx, M):
    """Verify both Matlis transfer rules for M; must be (True, True)."""
    Md = matlis_dual(M)
    return (
        is_p_member(ctx, M) == is_s_member(ctx, Md),
        is_s_member(ctx, M) == is_p_member(ctx, Md),
    )


def epi_onto_r_mod_ann_exists(ctx):
    """Does some map I -> R/Ann(I) hit the top of the target?

    A map whose image is not contained in the radical of the cyclic
    target is surjective by Nakayama, and conversely.  The trace is the
    sum of all images, so it leaves the radical exactly when one image
    does.
    """
    R = ctx.regular
    ann_sub = Submodule(R, ctx.ann_i.basis_matrix, ctx.ann_i.pivots)
    Q, _ = quotient_module(R, ann_sub)
    if Q.dim == 0:
        # Ann(I) = R forces I = 0; the zero map is onto the zero module
        return True
    return not radical(Q).contains_submodule(gamma(ctx, Q))


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
