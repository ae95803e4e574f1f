"""Exact linear algebra over Q and F_p.

Matrices are tuples of row tuples; vectors are tuples.  Row reduction
runs one of two kernels on plain ints: elimination mod p over F_p, and
fraction-free Gauss-Jordan on denominator-cleared rows over Q.  Four
functions use them:

- :func:`rref`, the reduced row echelon form of a row space;
- :func:`nullspace`, one solution of ``rows . v = 0`` per free column;
- :func:`kernel`, the reduced row echelon form of that solution space.
  It equals ``rref(nullspace(rows))`` but needs one elimination, of the
  rows with their columns reversed, instead of two;
- :func:`span`, the reduced row echelon form of the span of all
  products a_k . v of given vectors v, read off the
  :func:`stacked_columns` of the matrices a_k in one integer pass.

Over Q the last two read their vectors off the integer echelon form and
divide each nonzero entry by its pivot once, with :func:`_div`.  The
product :func:`mat_mul`, and :func:`mat_vec` through it, also sums plain
ints, reduced mod p once per entry over F_p and divided by the cleared
denominators once per entry over Q.  Every Q result keeps the scalar
contract of :mod:`matlislab.fields`: an int when integral, else a
Fraction.
"""

from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch
from .fields import PrimeField


def rref(rows, field):
    """Reduced row echelon form; returns (rows, pivots), zero rows dropped.

    Canonical: pivots are 1, pivot columns are cleared, pivot selection
    scans columns left to right taking the topmost available row.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return (), ()
    if isinstance(field, PrimeField):
        return _echelon(rows, field.p)
    return _echelon([_int_row(r)[0] for r in rows], 0)


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
    ``range(p)``.
    """
    m = [[v % p for v in row] for row in rows]
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
        if rank == 1:
            if prods[0]:
                rows.extend([prods[0][lo:lo + n] for lo in range(0, d * n, n)])
        elif any(prods):
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
    the candidates kept before it.  Each one is reduced against the
    current RREF, and a kept one joins it by one Gauss-Jordan step on
    its normal form: scaled to a leading 1, its pivot column cleared in
    the other rows, and inserted in pivot order.
    """
    red, pivots = rref(rows, field)
    red = [list(r) for r in red]
    pivots = list(pivots)
    ncols = len(candidates[0]) if candidates else 0
    kept = []
    for i, cand in enumerate(candidates):
        if len(pivots) == ncols:
            break
        v = reduce_vector(red, pivots, cand, field)
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        kept.append(i)
        inv = field.inv(v[c])
        v = [field.mul(inv, x) if x else x for x in v]
        # v is 0 left of c and at the pivot columns of red, so clearing
        # column c leaves red in reduced echelon form
        for row in red:
            a = row[c]
            if a:
                for k in range(c, ncols):
                    if v[k]:
                        row[k] = field.sub(row[k], field.mul(a, v[k]))
        at = bisect_left(pivots, c)
        red.insert(at, v)
        pivots.insert(at, c)
    return kept


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


def nullspace(rows, field):
    """Basis of {v | rows . v = 0}, one vector per free column.

    Deterministic: the vector for free column j has a 1 at j, the
    pivot-column entries completing it, and 0 at the other free columns.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return ()
    basis, _ = _null_basis(rows, field)
    return tuple(tuple(v) for v in basis)


def kernel(rows, field):
    """Reduced row echelon form of {v | rows . v = 0}; returns (rows, pivots).

    Equal to ``rref(nullspace(rows, field), field)``, from one
    elimination: the rows are reduced with their columns reversed.  The
    null-space vector of a free column j then has its 1 at j, zeros at
    the other free columns and nonzero entries only at pivot columns
    right of j, so these vectors in column order are already the reduced
    echelon form, with the free columns as its pivots.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return (), ()
    n = len(rows[0])
    basis, free = _null_basis([r[::-1] for r in rows], field)
    return (
        tuple(tuple(v[::-1]) for v in reversed(basis)),
        tuple(n - 1 - j for j in reversed(free)),
    )


def _null_basis(rows, field):
    """The null-space vectors (lists) of nonempty rows, and their free
    columns, read off the kernel's echelon form: over Q the elimination
    runs on integer rows and each nonzero entry is divided by its pivot
    once.
    """
    p = field.p if isinstance(field, PrimeField) else 0
    if p:
        red, pivots = _rref_fp(rows, p)
    else:
        red, pivots = _rref_int([_int_row(r)[0] for r in rows])
    n = len(rows[0])
    pivset = set(pivots)
    basis = []
    free = []
    for j in range(n):
        if j in pivset:
            continue
        v = [field.zero] * n
        v[j] = field.one
        for c, row in zip(pivots, red):
            x = row[j]
            if x:
                v[c] = -x % p if p else _div(-x, row[c])
        basis.append(v)
        free.append(j)
    return basis, free


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
    # sum plain ints and reduce once per entry
    cols = tuple(zip(*b))
    out = []
    for row in a:
        terms = [(k, x) for k, x in enumerate(row) if x]
        orow = []
        for col in cols:
            s = 0
            for k, x in terms:
                s += x * col[k]
            orow.append(s % p)
        out.append(tuple(orow))
    return tuple(out)


def _mat_mul_q(a, b):
    # integer dot products of denominator-cleared rows of a and columns
    # of b; one division per nonzero entry
    cols = [_int_row(col) for col in zip(*b)]
    out = []
    for row in a:
        ints, da = _int_row(row)
        terms = [(k, x) for k, x in enumerate(ints) if x]
        orow = []
        for col, db in cols:
            s = 0
            for k, x in terms:
                s += x * col[k]
            orow.append(_div(s, da * db) if s else 0)
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
