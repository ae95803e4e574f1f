"""Artinian local k-algebras from polynomial presentations.

An algebra is built from relations inside the finite-dimensional
truncation spanned by the monomials of total degree below the certified
nilpotency bound; no Groebner machinery is involved.  Elements are
coordinate tuples over the canonical monomial basis (graded-lex, 1
first).  Ideals are canonical reduced-echelon subspaces of the regular
module, closed under multiplication.
"""

from . import linalg
from .errors import (
    BoundNotCertified,
    DimensionMismatch,
    InconsistentPresentation,
    FixtureValidationError,
    NotARepresentation,
    NotLocal,
    ParentMismatch,
)

# the multiplication table has dim^3 entries: building k[x]/(x^32) takes
# about 0.04 s, k[x]/(x^64) 0.2 s
MAX_ALGEBRA_DIM = 32


def glex_key(exps):
    """Sort key realizing graded-lex order with x_1 > x_2 > ..."""
    return (sum(exps), exps)


def monomials_up_to(nvars, maxdeg):
    """All exponent tuples of total degree <= maxdeg, ascending graded-lex."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, maxdeg)
    out.sort(key=glex_key)
    return out


class Presentation:
    """A quotient presentation k[x_1..x_n] / (relations), truncated at m^N.

    relations: list of polynomials, each a list of (coeff, exps) terms,
    exps a tuple of n non-negative integers (fixtures checks its shape);
    a nonzero term of total degree 0 is rejected here.
    """

    def __init__(self, field, variables, relations, nilpotency):
        if not variables:
            raise FixtureValidationError("need at least one variable")
        if len(set(variables)) != len(variables):
            raise FixtureValidationError("duplicate variable names")
        if nilpotency < 1:
            raise FixtureValidationError("nilpotency bound must be >= 1")
        for i, rel in enumerate(relations):
            if any(sum(exps) < 1 and coeff for coeff, exps in rel):
                raise FixtureValidationError(
                    "relation %d has a degree-0 term: residue field must equal "
                    "the coefficient field" % i
                )
        self.field = field
        self.variables = list(variables)
        self.relations = [list(rel) for rel in relations]
        self.nilpotency = nilpotency


class Algebra:
    """An Artinian local k-algebra on a canonical monomial basis.

    Built by :func:`build_algebra`; immutable afterwards.  It keeps the
    left multiplications, the only ring product: a product u*v is
    sum_i u_i L_i v, and their linalg.stacked_columns ``left_cols`` give
    every b_i*v at once (spans R*g, ideal products).  It also keeps the
    maximal ideal, and the two value memos that :func:`derived` fills:
    _ideal_memo holds minimal generators and class contexts for the
    algebra's lifetime, and _module_memo what is derived from modules
    (modules._by_ideal_value, randmod, suites._trials) until
    suites.run_suite ends the suite.
    """

    def __init__(self, field, variables, bound, basis, mult_table, var_elements):
        self.field = field
        self.variables = list(variables)
        self.bound = bound
        self.basis = tuple(basis)  # exponent tuples, ascending graded-lex
        self.dim = len(basis)
        self.mult_table = mult_table  # mult_table[i][j] = coords of b_i * b_j
        self.var_elements = tuple(var_elements)  # coords of each variable
        # left multiplication by b_i as a matrix (columns are b_i * b_j)
        self.left_mult = tuple(
            tuple(
                tuple(mult_table[i][j][r] for j in range(self.dim))
                for r in range(self.dim)
            )
            for i in range(self.dim)
        )
        self.left_cols = linalg.stacked_columns(self.left_mult)
        self.max_ideal = Ideal(
            self,
            tuple(_unit_vector(self.dim, i, field) for i in range(1, self.dim)),
            tuple(range(1, self.dim)),
        )
        self._monomial_nf = {}
        self._ideal_memo = {}
        self._module_memo = {}

    def element_from_terms(self, terms):
        """Build an element from (coeff, exponent-tuple) terms.

        The normal forms are kept for every monomial up to the certified
        bound N; one of higher degree is a multiple of a degree-N
        monomial, so it is zero, however large its exponents.
        """
        f = self.field
        out = [f.zero] * self.dim
        for coeff, exps in terms:
            if len(exps) != len(self.variables):
                raise DimensionMismatch("exponent tuple %r" % (exps,))
            nf = self._monomial_nf.get(tuple(exps), ())
            for r, x in enumerate(nf):
                if x:
                    out[r] = f.add(out[r], f.mul(coeff, x))
        return tuple(out)

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return id(self)

    def __repr__(self):
        return "Algebra(%s, dim=%d, vars=%s)" % (
            self.field.name,
            self.dim,
            ",".join(self.variables),
        )


def _unit_vector(n, i, field):
    return tuple(field.one if j == i else field.zero for j in range(n))


def build_algebra(pres):
    """Construct and validate the algebra of a presentation.

    The reduction space is the span of all monomial multiples of the
    relations inside the degree <= N truncation.  Its echelon form is
    reduced, with the monomials in descending graded-lex order, so every
    normal form is read off it: the monomial at pivot column c_i is
    minus the rest of row i, and every other monomial is its own normal
    form.  The bound is certified by checking that every degree-N
    monomial reduces to zero.
    """
    f = pres.field
    n = len(pres.variables)
    N = pres.nilpotency
    mons = monomials_up_to(n, N)
    # columns ordered by descending graded-lex so pivots are leading terms
    cols = sorted(mons, key=glex_key, reverse=True)
    col_of = {m: i for i, m in enumerate(cols)}
    ncols = len(cols)

    rows = []
    for rel in pres.relations:
        if not any(c for c, _ in rel):
            continue
        for m in mons:
            if sum(m) > N - 1:
                continue
            row = [f.zero] * ncols
            nonzero = False
            for coeff, exps in rel:
                prod = tuple(a + b for a, b in zip(m, exps))
                if sum(prod) <= N and coeff:
                    c = col_of[prod]
                    row[c] = f.add(row[c], coeff)
                    nonzero = True
            if nonzero and any(row):
                rows.append(tuple(row))

    if rows:
        red, pivots = linalg.rref(rows, f)
    else:
        red, pivots = (), ()

    # normal forms as (column, coefficient) pairs
    nf = {m: ((c, f.one),) for c, m in enumerate(cols)}
    for row, c in zip(red, pivots):
        nf[cols[c]] = tuple((k, f.neg(x)) for k, x in enumerate(row) if x and k != c)

    if not nf[tuple(0 for _ in range(n))]:
        raise InconsistentPresentation("1 reduces to 0 in the presentation")

    for m in mons:
        if sum(m) == N:
            if nf[m]:
                raise BoundNotCertified(
                    "degree-%d monomial %r does not reduce to 0" % (N, m)
                )

    pivset = set(pivots)
    basis = sorted(
        (m for i, m in enumerate(cols) if i not in pivset and sum(m) < N),
        key=glex_key,
    )
    dim = len(basis)
    if dim > MAX_ALGEBRA_DIM:
        raise FixtureValidationError(
            "algebra of dimension %d > %d" % (dim, MAX_ALGEBRA_DIM)
        )
    basis_index = {m: i for i, m in enumerate(basis)}

    # the normal forms over the basis; a monomial of degree above N is zero
    zero = (f.zero,) * dim
    monomial_nf = {}
    for m in mons:
        out = list(zero)
        for c, x in nf[m]:
            out[basis_index[cols[c]]] = x
        monomial_nf[m] = tuple(out)
    mult_table = tuple(
        tuple(monomial_nf.get(tuple(a + b for a, b in zip(u, w)), zero) for w in basis)
        for u in basis
    )
    var_elements = [monomial_nf[tuple(int(k == v) for k in range(n))] for v in range(n)]

    A = Algebra(f, pres.variables, N, basis, mult_table, var_elements)
    A._monomial_nf = monomial_nf
    _validate_algebra(A)
    return A


def _validate_algebra(A):
    f = A.field
    dim = A.dim
    # 1 * b_j = b_j, and b_j * 1 = b_j by commutativity
    if A.left_mult[0] != linalg.identity(dim, f):
        raise InconsistentPresentation("basis element 1 is not a unit")
    for i in range(dim):
        for j in range(i + 1, dim):
            if A.mult_table[i][j] != A.mult_table[j][i]:
                raise InconsistentPresentation("multiplication not commutative")
    # associativity: see actions_from_variables
    var_mats = [linalg.combination(v, A.left_mult, dim, f) for v in A.var_elements]
    for exps, got, want in zip(A.basis, actions_from_variables(A, var_mats), A.left_mult):
        if got != want:
            raise InconsistentPresentation(
                "basis monomial %s is not the product of its variables"
                % format_monomial(A, exps)
            )
    # local ring certificate: every basis element except 1 is nilpotent,
    # so c*1 + nilpotent is invertible whenever c != 0
    for i in range(1, dim):
        w = _unit_vector(dim, i, f)
        for _ in range(A.bound + 1):
            if not any(w):
                break
            w = linalg.mat_vec(A.left_mult[i], w, f)
        if any(w):
            raise NotLocal("basis element %d is not nilpotent" % i)
    # maxIdeal^(N+1) = 0 for the certified bound
    mpow = A.max_ideal
    for _ in range(A.bound):
        mpow = ideal_product(mpow, A.max_ideal)
    if mpow.dim != 0:
        raise BoundNotCertified("maximal ideal not nilpotent at the certified bound")


def actions_from_variables(A, var_mats):
    """The actions of A's basis monomials generated by one matrix X_v per
    variable, certified to be a representation of A.

    A_1 = 1 and A_m = X_v A_(m/x_v), v the last variable of m (the basis
    is closed under division).  With rho(r) = sum_l r_l A_l, it checks
    X_v = rho(x_v) for every variable v, and X_v A_m = rho(x_v b_m) for
    every standard v (x_v a basis monomial) and basis monomial m.  That
    suffices.  Over a certified A, induction on the degree of m and the
    associativity of A give A_m rho(r) = rho(b_m r): rho is multiplicative.
    For the regular module, X_v = L_(x_v) and A_m = L_(b_m) on a
    commutative table with unit: the L_(b_m) span the commutative algebra
    S that the L_v generate, and the vector of 1 is cyclic for S, so
    L_a L_b and L_(ab), which agree on it, are equal: A is associative.
    The check reuses the products that build the A_m, at most (dim - 1)^2
    in all.  Raises NotARepresentation naming the variable and monomial
    that fail.
    """
    f = A.field
    n = len(var_mats[0])
    index = {m: i for i, m in enumerate(A.basis)}
    actions, built = [linalg.identity(n, f)], {}  # built[v, j] = i: A_i = X_v A_j
    for i, m in enumerate(A.basis[1:], 1):
        v = max(k for k, e in enumerate(m) if e)
        j = index[tuple(e - (k == v) for k, e in enumerate(m))]
        built[v, j] = i
        actions.append(var_mats[v] if j == 0 else linalg.mat_mul(var_mats[v], actions[j], f))
    for v, mat in enumerate(var_mats):
        if mat != linalg.combination(A.var_elements[v], actions, n, f):
            raise NotARepresentation(
                "action of %s disagrees with its normal form" % A.variables[v]
            )
        x = index.get(tuple(int(k == v) for k in range(len(var_mats))))
        for j in range(A.dim) if x is not None else ():
            i = built.get((v, j))
            prod = actions[i] if i is not None else linalg.mat_mul(mat, actions[j], f)
            if prod != linalg.combination(A.mult_table[x][j], actions, n, f):
                raise NotARepresentation(
                    "%s times the action of %s breaks the representation law"
                    % (A.variables[v], format_monomial(A, A.basis[j]))
                )
    return tuple(actions)


def format_monomial(A, exps):
    parts = [v if e == 1 else "%s^%d" % (v, e) for v, e in zip(A.variables, exps) if e]
    return "*".join(parts) or "1"


class Ideal:
    """A canonical subspace of the regular module, closed under the action.

    Immutable after construction.  Its canonical basis_matrix determines
    it, so data derived from it is memoized by value, not on the object,
    in the parent algebra's memos (see Algebra): keys holding the Ideal,
    whose hash of that value is computed on first use and kept.
    """

    def __init__(self, parent, basis_matrix, pivots):
        self.parent = parent
        self.basis_matrix = tuple(tuple(r) for r in basis_matrix)
        self.pivots = tuple(pivots)
        self._hash = None

    @property
    def dim(self):
        return len(self.basis_matrix)

    def is_whole_ring(self):
        return self.dim == self.parent.dim

    def contains(self, vec):
        return linalg.in_row_space(
            self.basis_matrix, self.pivots, vec, self.parent.field
        )

    def contains_ideal(self, other):
        return all(self.contains(r) for r in other.basis_matrix)

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and self.parent is other.parent
            and self.basis_matrix == other.basis_matrix
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.parent), self.basis_matrix))
        return self._hash

    def __repr__(self):
        return "Ideal(dim=%d of %r)" % (self.dim, self.parent)


def unit_ideal(A):
    return Ideal(
        A,
        linalg.identity(A.dim, A.field),
        tuple(range(A.dim)),
    )


def ideal_from_generators(A, gens):
    """Smallest ideal containing the given elements, canonical basis.

    The span of {b_i * g} over all basis elements b_i already equals the
    ideal R*gens, so one linalg.span of the stacked left multiplications
    suffices; for a unit generator that span is R, with the identity as
    its echelon basis.  Raises DimensionMismatch for a generator whose
    length is not dim(R).
    """
    return Ideal(A, *linalg.span(A.left_cols, gens, A.field))


def ideal_product(I, J):
    if I.parent is not J.parent:
        raise ParentMismatch("ideal product across different algebras")
    A = I.parent
    n = A.dim
    rows = []
    # the u*v over I's basis are its rows times the matrix of rows b_k*v,
    # which linalg.products returns scaled by one positive integer
    for v in J.basis_matrix:
        prods = linalg.products(A.left_cols, v)
        by_k = [prods[k:k + n] for k in range(0, n * n, n)]
        rows.extend(linalg.mat_mul(I.basis_matrix, by_k, A.field))
    return Ideal(A, *linalg.rref(rows, A.field))


def annihilator_of_ideal(I):
    """{r in R | r * I = 0}; applying twice yields the double annihilator."""
    A = I.parent
    f = A.field
    if I.dim == 0:
        return unit_ideal(A)
    rows = []
    # unknown r: for each basis vector g, the equation r * g = 0, one row
    # per coordinate l; entry i*dim + l of the products is that of b_i * g
    for g in I.basis_matrix:
        prods = linalg.products(A.left_cols, g)
        rows.extend(prods[l::A.dim] for l in range(A.dim))
    return Ideal(A, *linalg.kernel(rows, f))


def derived(memo, key, build):
    """memo[key], or build() stored there on a miss: the one get-or-build
    path of the algebra's value memos (see Algebra); no other code reads
    or writes them.  Every key is a tuple led by a str naming the
    construction, so keys of different constructions never meet;
    build() never returns None."""
    value = memo.get(key)
    if value is None:
        value = memo[key] = build()
    return value


def minimal_generators(I):
    """A minimal generating set: basis rows independent modulo m*I.

    Computed once per distinct ideal and kept in the parent algebra's
    _ideal_memo under ("gens", I), so an equal Ideal object gets the
    same tuple.
    """
    return derived(I.parent._ideal_memo, ("gens", I), lambda: _minimal_generators(I))


def _minimal_generators(I):
    if I.dim == 0:
        return ()
    mI = ideal_product(I.parent.max_ideal, I)
    keep = linalg.extend_basis(mI.basis_matrix, I.basis_matrix, I.parent.field)
    return tuple(I.basis_matrix[i] for i in keep)
