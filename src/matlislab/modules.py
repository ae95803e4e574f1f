"""Finite-length modules and the submodule calculus.

An FModule is a finite-dimensional k-space with one action matrix per
algebra basis element (column-vector convention: f(v) = F.v).  Length
equals k-dimension here: the relations of every algebra have degree
>= 1, so the unique simple module is the residue field k itself.

Submodules are canonical reduced-echelon subspaces closed under the
action; equality of submodules is representation equality.
"""

from . import linalg
from .algebra import Ideal, derived, minimal_generators, unit_ideal
from .errors import (
    NotASubmodule,
    NotEquivariant,
    NotUniserial,
    ParentMismatch,
)


class FModule:
    """A finite-length module over an Artinian local algebra.

    The constructor trusts its actions: the library's constructions
    produce representations, and matrices read from a fixture are
    certified by algebra.actions_from_variables first.

    Immutable after construction, so data derived from it alone is kept
    on it: the generator actions, the stacked columns of the actions (see
    generated_submodule) and the hash of its value, computed on first use
    as Ideal's is.  The submodules I*M, M[I], the trace and the reject
    are kept by value in the algebra's _module_memo instead (see
    _by_ideal_value): for one suite, equal modules of one algebra get
    the same Submodule object, whose ambient is the first of them that
    asked, and drawn modules are one object too.
    """

    def __init__(self, parent, actions):
        self.parent = parent
        self.actions = tuple(tuple(tuple(r) for r in a) for a in actions)
        self.dim = len(self.actions[0]) if self.actions and self.actions[0] else 0
        self._generator_actions = None
        self._span_cols = None  # built on first use by generated_submodule
        self._hash = None
        if len(self.actions) != parent.dim:
            raise NotASubmodule("need one action matrix per algebra basis element")

    def action_of(self, u):
        """Action matrix of an arbitrary ring element (coordinate vector)."""
        return linalg.combination(u, self.actions, self.dim, self.parent.field)

    def generator_actions(self):
        """Action matrices of the algebra variables; they generate with 1.

        Computed once per module (the actions never change) and returned
        as a tuple so that callers cannot alter the kept value.
        """
        if self._generator_actions is None:
            self._generator_actions = tuple(
                self.action_of(v) for v in self.parent.var_elements
            )
        return self._generator_actions

    def full_submodule(self):
        f = self.parent.field
        return Submodule(self, linalg.identity(self.dim, f), tuple(range(self.dim)))

    def zero_submodule(self):
        return Submodule(self, (), ())

    def __eq__(self, other):
        return (
            isinstance(other, FModule)
            and self.parent is other.parent
            and self.actions == other.actions
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.parent), self.actions))
        return self._hash

    def __repr__(self):
        return "FModule(dim=%d over %r)" % (self.dim, self.parent)


class Submodule:
    """An action-closed subspace in canonical reduced-echelon form."""

    def __init__(self, ambient, basis_matrix, pivots):
        self.ambient = ambient
        self.basis_matrix = tuple(tuple(r) for r in basis_matrix)
        self.pivots = tuple(pivots)

    @property
    def dim(self):
        return len(self.basis_matrix)

    def contains(self, vec):
        return linalg.in_row_space(
            self.basis_matrix, self.pivots, vec, self.ambient.parent.field
        )

    def contains_submodule(self, other):
        return all(self.contains(r) for r in other.basis_matrix)

    def coords(self, vec):
        """Coordinates of a member vector over the echelon basis."""
        return tuple(vec[p] for p in self.pivots)

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and self.ambient == other.ambient
            and self.basis_matrix == other.basis_matrix
        )

    def __hash__(self):
        return hash(self.basis_matrix)

    def __repr__(self):
        return "Submodule(dim=%d of %r)" % (self.dim, self.ambient)


class ModuleMap:
    """A linear map between modules over the same algebra.

    The constructor trusts its matrix, as FModule trusts its actions: the
    library's constructions produce equivariant maps.  A map from outside
    them is checked by :meth:`check_equivariance`.
    """

    def __init__(self, source, target, matrix):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(r) for r in matrix)

    def check_equivariance(self):
        """Raise ParentMismatch across two algebras, and NotEquivariant
        unless the map commutes with the action of every variable."""
        if self.source.parent is not self.target.parent:
            raise ParentMismatch("map across different algebras")
        f = self.source.parent.field
        for ga, gb in zip(self.source.generator_actions(), self.target.generator_actions()):
            left = linalg.mat_mul(self.matrix, ga, f)
            right = linalg.mat_mul(gb, self.matrix, f)
            if left != right:
                raise NotEquivariant("map is not equivariant")

    def apply(self, vec):
        return linalg.mat_vec(self.matrix, vec, self.source.parent.field)

    def rank(self):
        return linalg.rank(self.matrix, self.source.parent.field)

    def is_surjective(self):
        return self.rank() == self.target.dim

    def kernel(self):
        if not self.matrix:
            return self.source.full_submodule()
        return Submodule(
            self.source, *linalg.kernel(self.matrix, self.source.parent.field)
        )

    def __repr__(self):
        return "ModuleMap(%d -> %d)" % (self.source.dim, self.target.dim)


def submodule_from_spanning(M, vectors):
    """Canonicalize a spanning set; the caller guarantees action closure."""
    red, pivots = linalg.rref(list(vectors), M.parent.field) if vectors else ((), ())
    return Submodule(M, red, pivots)


def generated_submodule(M, vectors):
    """Smallest submodule containing the given vectors.

    The products a . v over all basis-element actions a already span
    it, as for ideals: one linalg.span of the stacked columns of the
    actions, built on M's first call and kept on M.  Raises
    DimensionMismatch for a vector whose length is not dim(M).
    """
    if M._span_cols is None:
        M._span_cols = linalg.stacked_columns(M.actions)
    return Submodule(M, *linalg.span(M._span_cols, vectors, M.parent.field))


def regular_module(A):
    """R as a module over itself: actions are left multiplication."""
    return FModule(A, A.left_mult)


def residue_field_module(A):
    """The unique simple module k = R/m."""
    f = A.field
    one = ((f.one,),)
    zero = ((f.zero,),)
    return FModule(A, [one] + [zero] * (A.dim - 1))


def zero_module(A):
    return FModule(A, [() for _ in range(A.dim)])


def _require_same_parent(a, b):
    if a.parent is not b.parent:
        raise ParentMismatch("operands live over different algebras")


def _require_ideal_over(I, M):
    if I.parent is not M.parent:
        raise ParentMismatch("ideal and module over different algebras")


def _by_ideal_value(route, I, M, compute):
    """The submodule compute(), computed once per (route, value of I,
    value of M) in a suite.

    It is kept in the algebra's _module_memo under (route, I, M) through
    algebra.derived, so equal ideals and equal modules, equal as keys,
    get the one Submodule built first, and suites.run_suite empties the
    memo after each suite.  Its ambient is the module that asked first,
    equal in value to every module that finds it.
    """
    _require_ideal_over(I, M)
    return derived(M.parent._module_memo, (route, I, M), compute)


def _ideal_times(I, M, basis):
    """I*U inside M, for U spanned by the echelon rows ``basis``, or all of
    M when ``basis`` is None."""
    _require_ideal_over(I, M)
    f = M.parent.field
    rows = []
    for g in minimal_generators(I):
        act = M.action_of(g)
        if basis is None:
            # g*M is spanned by the columns of g's action
            rows.extend(linalg.transpose(act))
        else:
            # the images g*v of the basis rows v are the rows of basis . act^T
            rows.extend(linalg.mat_mul(basis, linalg.transpose(act), f))
    # the images g*U already span an action-closed space, since R is
    # commutative and U is a submodule: r*(g*u) = g*(r*u) with r*u in U
    return submodule_from_spanning(M, rows)


def ideal_times_submodule(I, U):
    """The submodule I*U inside the ambient of U."""
    return _ideal_times(I, U.ambient, U.basis_matrix)


def ideal_times_module(I, M):
    """The submodule I*M, computed once per (value of I, value of M) in a
    suite: the modules equal to M get the same object (see
    _by_ideal_value)."""
    return _by_ideal_value("I*M", I, M, lambda: _ideal_times(I, M, None))


def annihilator_submodule(M, a):
    """M[a] = {v in M | a v = 0}, computed once per (value of a, value of
    M) in a suite: the modules equal to M get the same object (see
    _by_ideal_value)."""
    return _by_ideal_value("M[I]", a, M, lambda: _annihilator_submodule(M, a))


def _annihilator_submodule(M, a):
    gens = minimal_generators(a)
    if not gens:
        return M.full_submodule()
    f = M.parent.field
    stacked = linalg.stack(*[M.action_of(g) for g in gens])
    return Submodule(M, *linalg.kernel(stacked, f))


def ann_ring(M):
    """Ann_R(M) = {r | r acts as zero}, as an Ideal."""
    A = M.parent
    f = A.field
    if M.dim == 0:
        return unit_ideal(A)
    rows = []
    for s in range(M.dim):
        for t in range(M.dim):
            rows.append(tuple(M.actions[i][s][t] for i in range(A.dim)))
    return Ideal(A, *linalg.kernel(rows, f))


def hom_space(M, N):
    """A basis of all equivariant maps M -> N, as a tuple of ModuleMaps,
    solved from the equivariance system.

    Equivariance against the algebra variables suffices since they
    generate the algebra together with 1.  Each equation touches one
    column of the action on M and one row of the action on N, so it is
    built as a sparse row of at most dim M + dim N of the dim M * dim N
    unknowns, and an equation whose column and row are both zero is left
    out; linalg.nullspace eliminates these rows as they are.  The basis
    is the one it fixes on the unknowns X[a][c], read row-major: one map
    per free unknown, 1 there and 0 at the other free unknowns.
    """
    _require_same_parent(M, N)
    f = M.parent.field
    dm, dn = M.dim, N.dim
    if dm == 0 or dn == 0:
        return ()
    rows = []
    for ga, gb in zip(M.generator_actions(), N.generator_actions()):
        # X ga - gb X = 0, unknowns X[a][j] vectorized row-major; with
        # ga = gaI/da and gb = gbI/db each equation is scaled by da*db,
        # so every entry is an int.  Equation (a, c) reads column c of ga
        # and row a of gb: it holds only their nonzero entries
        gaI, da = linalg.int_matrix(ga)
        gbI, db = linalg.int_matrix(gb)
        ga_cols = [
            [(j, db * row[c]) for j, row in enumerate(gaI) if row[c]] for c in range(dm)
        ]
        for a in range(dn):
            gb_terms = [(i * dm, -da * x) for i, x in enumerate(gbI[a]) if x and i != a]
            lo = a * dm
            diag = da * gbI[a][a]
            for c, col in enumerate(ga_cols):
                if not (col or gb_terms or diag):
                    continue
                row = {lo + j: x for j, x in col}
                for i, x in gb_terms:
                    row[i + c] = x
                # the one unknown in both sums: X[a][c], left to
                # linalg.nullspace to drop where it cancels to 0
                row[lo + c] = row.get(lo + c, 0) - diag
                rows.append(row)
    return tuple(
        ModuleMap(M, N, tuple(s[a * dm:(a + 1) * dm] for a in range(dn)))
        for s in linalg.nullspace(rows, dn * dm, f)
    )


def _projection(red, pivots, n, f):
    """The free columns of an echelon basis of a subspace of k^n, and the
    projection of k^n onto them: v -> normal form of v modulo the
    subspace, restricted to the free columns.

    Column j of the projection is the unit vector of j when j is free
    and minus the free entries of echelon row i when j is its pivot
    column c_i.
    """
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    proj = []
    for j in free:
        row = [f.zero] * n
        row[j] = f.one
        for b, c in zip(red, pivots):
            row[c] = f.neg(b[j])
        proj.append(tuple(row))
    return free, tuple(proj)


def quotient_module(M, U):
    """M/U with the canonical projection.

    Quotient coordinates are the non-pivot columns of U's echelon basis.
    Lifting quotient coordinate a to the unit vector at free[a] picks out
    the free columns of each action, so action i of M/U is proj times
    the free columns of action i.  All of them are one linalg.mat_mul, of
    proj with those column blocks side by side, cut back into blocks:
    each entry is still one dot product, and proj is cleared of
    denominators once.
    """
    if U.ambient != M:
        raise NotASubmodule("quotient by a non-submodule")
    f = M.parent.field
    free, proj = _projection(U.basis_matrix, U.pivots, M.dim, f)
    k = len(free)
    lifted = tuple(
        tuple(act[r][j] for act in M.actions for j in free) for r in range(M.dim)
    )
    prod = linalg.mat_mul(proj, lifted, f)
    Q = FModule(M.parent, [
        tuple(row[i * k:(i + 1) * k] for row in prod) for i in range(M.parent.dim)
    ])
    return Q, ModuleMap(M, Q, proj)


def _block_diagonal(A, summands):
    """The direct sum of the summands, block-diagonal in their order."""
    f = A.field
    n = sum(M.dim for M in summands)
    actions = []
    for i in range(A.dim):
        rows = []
        lo = 0
        for M in summands:
            left = (f.zero,) * lo
            right = (f.zero,) * (n - lo - M.dim)
            rows.extend(left + row + right for row in M.actions[i])
            lo += M.dim
        actions.append(rows)
    return FModule(A, actions)


def _unit_block(n, lo, d, f):
    """The n x d matrix whose rows lo .. lo+d-1 hold the identity."""
    zero_row = (f.zero,) * d
    return (zero_row,) * lo + linalg.identity(d, f) + (zero_row,) * (n - lo - d)


def direct_sum(M, N):
    """Block-diagonal sum with injections and projections."""
    _require_same_parent(M, N)
    f = M.parent.field
    S = _block_diagonal(M.parent, (M, N))
    inj_m = _unit_block(S.dim, 0, M.dim, f)
    inj_n = _unit_block(S.dim, M.dim, N.dim, f)
    return (
        S,
        (ModuleMap(M, S, inj_m), ModuleMap(N, S, inj_n)),
        (
            ModuleMap(S, M, linalg.transpose(inj_m)),
            ModuleMap(S, N, linalg.transpose(inj_n)),
        ),
    )


def direct_power(M, j):
    """M^j with injection maps."""
    S = _block_diagonal(M.parent, (M,) * j)
    f = M.parent.field
    injs = [
        ModuleMap(M, S, _unit_block(S.dim, i * M.dim, M.dim, f))
        for i in range(j)
    ]
    return S, injs


def socle(M):
    """M[m], the largest semisimple submodule."""
    return annihilator_submodule(M, M.parent.max_ideal)


def radical(M):
    """m*M, the intersection of the maximal submodules."""
    return ideal_times_module(M.parent.max_ideal, M)


def submodule_sum(U, V):
    if U.ambient != V.ambient:
        raise NotASubmodule("sum of submodules of different modules")
    return submodule_from_spanning(
        U.ambient, list(U.basis_matrix) + list(V.basis_matrix)
    )


def uniserial_chain(M):
    """The radical chain M = M_0 > M_1 > ... > M_n = 0, all layers simple.

    A finite-length module over a local algebra is uniserial exactly when
    every radical layer m^i M / m^(i+1) M is one-dimensional: then every
    submodule is some m^i M, since a submodule not inside m^(i+1)M
    generates M_i by Nakayama.
    """
    chain = [M.full_submodule()]
    current_sub = chain[0]
    while current_sub.dim > 0:
        nxt = ideal_times_submodule(M.parent.max_ideal, current_sub)
        if current_sub.dim - nxt.dim != 1:
            raise NotUniserial(
                "layer of dimension %d" % (current_sub.dim - nxt.dim)
            )
        chain.append(nxt)
        current_sub = nxt
    return chain


def submodule_as_module(U):
    """The submodule as an FModule of its own, with the inclusion map.

    Coordinates are read off the pivot columns of the echelon basis, so
    each action is the pivot rows of the ambient action times the
    inclusion.  All of them are one linalg.mat_mul, of the pivot rows of
    every action stacked on top of each other with the inclusion, cut
    back into blocks: each entry is still one dot product, and the
    inclusion is cleared of denominators once.
    """
    M = U.ambient
    f = M.parent.field
    k = U.dim
    incl = linalg.transpose(U.basis_matrix)  # M.dim x U.dim
    prod = linalg.mat_mul(tuple(act[p] for act in M.actions for p in U.pivots), incl, f)
    Umod = FModule(M.parent, [prod[i * k:(i + 1) * k] for i in range(M.parent.dim)])
    return Umod, ModuleMap(Umod, M, incl)


def cokernel_of_presentation(A, rank, columns):
    """The module R^rank / (columns), columns being vectors of R^rank.

    This is the cokernel of a presentation matrix over R, read off the
    multiplication table T of R with no free module built.  With
    d = dim(R), coordinate s*d + m of R^rank is e_(s,m) = e_s (x) b_m,
    so b_k * e_(s,m) = e_s (x) b_k*b_m, whose coordinates T[k][m] sit in
    slot s:

    - R*c is spanned by the b_k*c, computed slot by slot as b_k*c_s by
      one linalg.span of the algebra's stacked left multiplications;
    - column (s, m) of the action of b_k on the quotient is
      sum_l T[k][m][l] proj[:, s*d + l], a gather of projection columns.
      On a monomial algebra T[k][m] is 0 or one basis element, so each
      column is zero or one column of the projection.

    Raises DimensionMismatch for a column whose length is not rank*d.
    """
    return _cokernel_of_echelon(A, rank, *linalg.span(A.left_cols, columns, A.field, rank))


def _cokernel_of_echelon(A, rank, red, pivots):
    """R^rank / U for U given by its echelon pair, which fixes it."""
    f = A.field
    d = A.dim
    free, proj = _projection(red, pivots, rank * d, f)
    proj_cols = linalg.transpose(proj)
    zero = (f.zero,) * len(free)
    actions = []
    for table in A.mult_table:
        cols = []
        for j in free:
            s, m = divmod(j, d)
            col = zero
            for l, c in enumerate(table[m]):
                if c:
                    v = proj_cols[s * d + l]
                    if c != f.one:
                        v = [f.mul(c, x) for x in v]
                    col = v if col is zero else tuple(map(f.add, col, v))
            cols.append(col)
        actions.append(linalg.transpose(cols))
    return FModule(A, actions)
