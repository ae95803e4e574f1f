"""Exact linear algebra over Q and F_p.

Matrices are tuples of row tuples; vectors are tuples.  Row reduction
runs one of two kernels on plain ints: elimination mod p over F_p, and
fraction-free Gauss-Jordan on denominator-cleared rows over Q.  Four
functions use them:

- :func:`rref`, the reduced row echelon form of a row space;
- :func:`kernel`, the reduced row echelon form of the solution space of
  ``rows . v = 0``, from one elimination of the rows with their columns
  reversed;
- :func:`span`, the reduced row echelon form of the span of all
  products a_k . v of given vectors v, read off the
  :func:`stacked_columns` of the matrices a_k in one integer pass;
- :func:`extend_basis`, the greedy choice of candidates independent of
  given rows, read off the pivot columns of one :func:`rref` of the
  rows and candidates side by side as columns.

:func:`nullspace`, one solution of ``rows . v = 0`` per free column,
takes its rows as mappings from column to coefficient and eliminates
them as sparse rows, with the same arithmetic.  Its caller is
``modules.hom_space``, whose equivariance equations each touch at most
dim M + dim N of the dim M * dim N unknowns.

Most rows of the dense systems are zero, and a zero row spans nothing,
so it is dropped before any per-entry work is spent on it: over Q before
:func:`_int_row` clears denominators (in :func:`rref` and
:func:`kernel`), over F_p before the copy of the rows mod p that starts
:func:`_rref_fp`, and in :func:`kernel` before its columns are reversed.
The integer rows that :func:`span` builds over Q need no conversion and
enter :func:`_rref_int` as they are.  A row of ints that is nonzero but
vanishes mod p still enters the copy mod p and is eliminated there.

Over Q, :func:`kernel` and :func:`nullspace` read their vectors off an
integer echelon form and divide each nonzero entry by its pivot once,
with :func:`_div`.  The product :func:`mat_mul`, and :func:`mat_vec`
through it, also sums plain ints, reduced mod p once per entry over F_p
and divided by the cleared denominators once per entry over Q.  A zero
row of its left factor or a zero column of its right factor gives zero
entries before any conversion or dot product.  Every Q result keeps the
scalar contract of :mod:`matlislab.fields`: an int when integral, else a
Fraction.
"""

from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch
from .fields import PrimeField


def rref(rows, field):
    """Reduced row echelon form; returns (rows, pivots), zero rows dropped.

    Canonical: pivots are 1, pivot columns are cleared, pivot selection
    scans columns left to right taking the topmost available row.  Zero
    rows leave first, before their entries are cleared of denominators
    over Q or reduced mod p; a row of ints that vanishes only mod p is
    dropped by the F_p kernel.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return (), ()
    if isinstance(field, PrimeField):
        return _echelon(rows, field.p)
    rows = [_int_row(r)[0] for r in rows if any(r)]
    if not rows:
        return (), ()
    return _echelon(rows, 0)


def _echelon(rows, p):
    """The rref pair of nonempty int rows, over F_p when p, else over Q."""
    if p:
        out, pivots = _rref_fp(rows, p)
        return tuple(tuple(r) for r in out), tuple(pivots)
    out, pivots = _rref_int(rows)
    frows = []
    for row, c in zip(out, pivots):
        piv = row[c]
        if piv != 1:
            row = [_div(v, piv) if v else 0 for v in row]
        frows.append(tuple(row))
    return tuple(frows), tuple(pivots)


def _div(a, b):
    """The scalar ``a / b`` of Q for ints ``a`` and ``b != 0``: an int on
    exact division, else a Fraction."""
    if a % b:
        return Fraction(a, b)
    return a // b


def _int_row(row):
    """``(ints, den)`` with ``row == ints / den`` and ``den`` the least
    common denominator of a row of Fractions or ints.

    An all-int row comes back as a list as it is.  Otherwise both kinds
    of entry carry numerator/denominator, so clearing denominators needs
    no Fraction arithmetic.
    """
    for v in row:
        if type(v) is not int:
            break
    else:
        return list(row), 1
    den = 1
    for v in row:
        d = v.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return [v.numerator for v in row], 1
    return [v.numerator * (den // v.denominator) for v in row], den


def int_matrix(a):
    """``(ints, den)`` with ``a == ints / den``, ``den`` the least common
    denominator of all entries and ``ints`` a list of int lists."""
    flat, den = _int_row([x for row in a for x in row])
    n = len(a[0]) if a else 0
    return [flat[i * n:(i + 1) * n] for i in range(len(a))], den


def _rref_fp(rows, p):
    """Reduced row echelon form over F_p of a nonempty list of int rows.

    Entries may be any representatives mod p.  Returns ``(rows, pivots)``
    with zero rows dropped, pivot entries equal to 1 and entries in
    ``range(p)``; ``([], [])`` when every row is zero mod p.  Rows that
    are zero as given are dropped before the copy mod p; rows that vanish
    only mod p are copied and eliminated.
    """
    m = [[v % p for v in row] for row in rows if any(row)]
    if not m:
        return [], []
    nrows = len(m)
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        row_r = m[r]
        inv = pow(row_r[c], p - 2, p)
        if inv != 1:
            for k in range(c, ncols):
                row_r[k] = (row_r[k] * inv) % p
        for i in range(nrows):
            if i == r:
                continue
            a = m[i][c]
            if a:
                row_i = m[i]
                for k in range(c, ncols):
                    row_i[k] = (row_i[k] - a * row_r[k]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def _row_gcd(row):
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


def _rref_int(m):
    """Fraction-free Gauss-Jordan on a nonempty list of int-list rows.

    Works in place on ``m``.  Returns ``(rows, pivots)`` where each
    surviving row is primitive (content 1) with a positive pivot entry
    and zeros elsewhere in every pivot column.  Dividing each row by its
    pivot yields the reduced row echelon form over Q.
    """
    nrows = len(m)
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        row_r = m[r]
        piv = row_r[c]
        for i in range(nrows):
            if i == r:
                continue
            a = m[i][c]
            if a:
                row_i = m[i]
                for k in range(ncols):
                    row_i[k] = piv * row_i[k] - a * row_r[k]
                g = _row_gcd(row_i)
                if g > 1:
                    for k in range(ncols):
                        row_i[k] //= g
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for i in range(r):
        row = m[i]
        g = _row_gcd(row)
        if row[pivots[i]] < 0:
            g = -g
        if g != 1:
            row = [v // g for v in row]
        out.append(row)
    return out, pivots


def stacked_columns(matrices):
    """The n x n matrices a_0 .. a_(d-1) stacked on top of each other, as
    the pair (d, columns), denominators cleared by one positive scale.

    Column j lists the (row, entry) pairs of its nonzero entries; row
    k*n + l holds entry (l, j) of a_k.  So sum_j v_j * column j holds
    every a_k . v at once.
    """
    flat, _ = _int_row([x for a in matrices for row in a for x in row])
    n = len(matrices[0]) if matrices else 0
    return len(matrices), tuple(
        tuple((r, x) for r, x in enumerate(flat[j::n]) if x) for j in range(n)
    )


def span(stacked, vectors, field, rank=1):
    """Reduced row echelon form of the span of all a_k . v over the
    vectors v; returns (rows, pivots).

    ``stacked`` is the :func:`stacked_columns` pair of a_0 .. a_(d-1),
    n x n.  A vector of length rank*n is read as rank slots of length n,
    as in R^rank: row k holds the products a_k . slot side by side.  One
    integer combination of the columns per nonzero slot gives its d
    products, and the rows go to the elimination kernel as they are:
    their positive scales do not change the echelon form.  Raises
    DimensionMismatch for a vector whose length is not rank*n.
    """
    d, cols = stacked
    n = len(cols)
    size = rank * n
    zero = [0] * n
    rows = []
    for v in vectors:
        if len(v) != size:
            raise DimensionMismatch("vector of length %d, need %d" % (len(v), size))
        ints = _int_row(v)[0]
        prods = [_combine(cols, ints[s * n:(s + 1) * n], d * n) for s in range(rank)]
        if any(prods):
            for lo in range(0, d * n, n):
                row = []
                for prod in prods:
                    row.extend(prod[lo:lo + n] if prod else zero)
                rows.append(row)
    if not rows:
        return (), ()
    return _echelon(rows, field.p if isinstance(field, PrimeField) else 0)


def products(stacked, v):
    """Every a_k . v at once, scaled by a positive integer, from the
    :func:`stacked_columns` of the a_k: entry k*n + l is coordinate l of
    a_k . v.  None when v is zero."""
    d, cols = stacked
    return _combine(cols, _int_row(v)[0], d * len(cols))


def _combine(cols, v, size):
    """sum_j v[j] * cols[j], a list of ``size`` ints, over the nonzero
    v[j]; None when v is zero."""
    acc = None
    for x, col in zip(v, cols):
        if x:
            if acc is None:
                acc = [0] * size
            for r, c in col:
                acc[r] += x * c
    return acc


def extend_basis(rows, candidates, field):
    """Indices of the candidates kept by a left-to-right greedy pass.

    A candidate is kept when it lies outside the span of ``rows`` and of
    the candidates kept before it, that is, when its column is a pivot
    column of the matrix whose columns are the rows followed by the
    candidates: one :func:`rref` of that matrix reads them all off.
    """
    _, pivots = rref(zip(*rows, *candidates), field)
    n = len(rows)
    return [c - n for c in pivots if c >= n]


def reduce_vector(rref_rows, pivots, vec, field):
    """Normal form of ``vec`` modulo the row space of an RREF matrix."""
    v = list(vec)
    for row, c in zip(rref_rows, pivots):
        a = v[c]
        if a:
            for k in range(c, len(v)):
                v[k] = field.sub(v[k], field.mul(a, row[k]))
    return tuple(v)


def in_row_space(rref_rows, pivots, vec, field):
    return not any(reduce_vector(rref_rows, pivots, vec, field))


def nullspace(rows, n, field):
    """Basis of {v in k^n | rows . v = 0}, one vector per free column.

    Each row is a mapping from column index to coefficient; absent
    columns are zero, and explicit zeros, Fractions over Q and any
    representatives mod p over F_p are accepted.  Only the nonzero
    entries are kept.  Each row is reduced against the pivot rows kept so
    far in column order, mod p over F_p and fraction-free over Q, and
    what is left becomes a pivot row; back-substitution then clears each
    pivot column from the other pivot rows.

    Deterministic: the vector for free column j has a 1 at j, the
    pivot-column entries completing it, and 0 at the other free columns.
    The reduced echelon form is unique, so this is the basis a dense
    elimination of the same rows reads off.
    """
    p = field.p if isinstance(field, PrimeField) else 0
    piv = {}  # pivot column -> its row, whose entries lie at or right of it
    for row in rows:
        r = _sparse_row(row, p)
        while r:
            c = min(r)
            prow = piv.get(c)
            if prow is None:
                piv[c] = _lead_one(r, c, p) if p else _primitive(r, c)
                break
            _eliminate(r, c, prow, p)
    for c in sorted(piv, reverse=True):
        row = piv[c]
        later = [k for k in row if k != c and k in piv]
        for k in later:
            _eliminate(row, k, piv[k], p)
        if later and not p:
            _primitive(row, c)
    entries = {}  # free column j -> [(pivot column c, entry c of its vector)]
    for c, row in piv.items():
        lead = row[c]
        for j, x in row.items():
            if j != c:
                entries.setdefault(j, []).append((c, -x % p if p else _div(-x, lead)))
    basis = []
    for j in range(n):
        if j not in piv:
            v = [field.zero] * n
            v[j] = field.one
            for c, x in entries.get(j, ()):
                v[c] = x
            basis.append(tuple(v))
    return tuple(basis)


def _sparse_row(row, p):
    """The nonzero entries of a mapping row as a dict of ints: reduced
    mod p when p, else with the row's denominators cleared."""
    if p:
        return {k: y for k, x in row.items() if (y := x % p)}
    r = {k: x for k, x in row.items() if x}
    for x in r.values():
        if type(x) is not int:
            return dict(zip(r, _int_row(list(r.values()))[0]))
    return r


def _eliminate(r, c, prow, p):
    """Clear column c of the sparse row r, in place, with the pivot row
    prow whose leading column is c: r - r[c] * prow over F_p, where that
    lead is 1; over Q the integer combination b * r - a * prow with
    a / b = r[c] / prow[c] in lowest terms."""
    a = r[c]
    if not p:
        b = prow[c]
        g = gcd(a, b)
        a //= g
        b //= g
        if b != 1:
            for k in r:
                r[k] *= b
    for k, x in prow.items():
        y = r.get(k, 0) - a * x
        if p:
            y %= p
        if y:
            r[k] = y
        else:
            del r[k]


def _lead_one(r, c, p):
    """The sparse row r over F_p scaled, in place, to a 1 at column c."""
    x = r[c]
    if x != 1:
        inv = pow(x, p - 2, p)
        for k in r:
            r[k] = r[k] * inv % p
    return r


def _primitive(r, c):
    """The sparse int row r divided, in place, by its content, signed so
    that its leading entry, at column c, is positive."""
    g = gcd(*r.values())
    if r[c] < 0:
        g = -g
    if g != 1:
        for k in r:
            r[k] //= g
    return r


def kernel(rows, field):
    """Reduced row echelon form of {v | rows . v = 0}; returns (rows, pivots).

    Equal to the :func:`rref` of the :func:`nullspace` of the same rows,
    from one elimination: the nonzero rows are reduced with their columns
    reversed.  The null-space vector of a free column j then has its 1
    at j, zeros at the other free columns and nonzero entries only at
    pivot columns right of j, so these vectors in column order are
    already the reduced echelon form, with the free columns as its
    pivots.  Over Q the elimination runs on integer rows and each
    nonzero entry is divided by its pivot once; when every row is zero,
    every column is free.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return (), ()
    n = len(rows[0])
    rev = [r[::-1] for r in rows if any(r)]
    p = field.p if isinstance(field, PrimeField) else 0
    if not rev:
        red, pivots = [], []
    elif p:
        red, pivots = _rref_fp(rev, p)
    else:
        red, pivots = _rref_int([_int_row(r)[0] for r in rev])
    pivset = set(pivots)
    basis = []
    free = []
    # reversed column j is column n - 1 - j of the rows as given
    for j in range(n - 1, -1, -1):
        if j in pivset:
            continue
        v = [field.zero] * n
        v[n - 1 - j] = field.one
        for c, row in zip(pivots, red):
            x = row[j]
            if x:
                v[n - 1 - c] = -x % p if p else _div(-x, row[c])
        basis.append(tuple(v))
        free.append(n - 1 - j)
    return tuple(basis), tuple(free)


def identity(n, field):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def zeros(m, n, field):
    # rows are immutable, so one row tuple serves every row
    return ((field.zero,) * n,) * m


def mat_mul(a, b, field):
    if not a or not b:
        return tuple(() for _ in a)
    if isinstance(field, PrimeField):
        return _mat_mul_fp(a, b, field.p)
    return _mat_mul_q(a, b)


def _mat_mul_fp(a, b, p):
    # sum plain ints and reduce once per entry; zero columns of b and
    # zero rows of a give zero entries with no dot product
    cols = [(j, col) for j, col in enumerate(zip(*b)) if any(col)]
    zero_row = (0,) * len(b[0])
    out = []
    for row in a:
        terms = [(k, x) for k, x in enumerate(row) if x]
        if not terms:
            out.append(zero_row)
            continue
        orow = list(zero_row)
        for j, col in cols:
            s = 0
            for k, x in terms:
                s += x * col[k]
            orow[j] = s % p
        out.append(tuple(orow))
    return tuple(out)


def _mat_mul_q(a, b):
    # integer dot products of denominator-cleared rows of a and columns
    # of b; one division per nonzero entry.  Zero columns of b and zero
    # rows of a are neither cleared nor multiplied: their entries are 0
    cols = [(j, *_int_row(col)) for j, col in enumerate(zip(*b)) if any(col)]
    zero_row = (0,) * len(b[0])
    out = []
    for row in a:
        if not any(row):
            out.append(zero_row)
            continue
        ints, da = _int_row(row)
        terms = [(k, x) for k, x in enumerate(ints) if x]
        orow = list(zero_row)
        for j, col, db in cols:
            s = 0
            for k, x in terms:
                s += x * col[k]
            if s:
                orow[j] = _div(s, da * db)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(a, v, field):
    """a . v, the one column of the product of a and v as a column."""
    if not v:
        return (field.zero,) * len(a)
    return tuple(row[0] for row in mat_mul(a, tuple((y,) for y in v), field))


def mat_add(a, b, field):
    return tuple(tuple(field.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a, field):
    return tuple(tuple(field.mul(c, x) for x in row) for row in a)


def combination(coeffs, mats, n, field):
    """sum_i coeffs[i] * mats[i] of n x n matrices; a lone 1 * mats[i] is mats[i]."""
    terms = [(c, a) for c, a in zip(coeffs, mats) if c]
    if not terms:
        return zeros(n, n, field)
    if len(terms) == 1 and terms[0][0] == field.one:
        return terms[0][1]
    out = mat_scale(*terms[0], field)
    for c, a in terms[1:]:
        out = mat_add(out, mat_scale(c, a, field), field)
    return out


def transpose(a):
    return tuple(zip(*a))


def rank(rows, field):
    _, pivots = rref(rows, field)
    return len(pivots)


def stack(*matrices):
    out = []
    for m in matrices:
        out.extend(m)
    return tuple(out)
