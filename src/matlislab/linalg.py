"""Exact linear algebra over Q and F_p.

Matrices are tuples of row tuples; vectors are tuples.  Row reduction is
delegated to a kernel backend: the compiled ``matlislab._kernels``
extension when available, otherwise the pure-Python
``matlislab._kernels_py`` module.  Set ``MATLISLAB_PURE=1`` to force the
fallback.  Both backends produce identical output.
"""

import os
from fractions import Fraction
from math import gcd

from .fields import PrimeField
from . import _kernels_py

if os.environ.get("MATLISLAB_PURE") == "1":
    _kernels = _kernels_py
else:
    try:
        from . import _kernels  # type: ignore[attr-defined]
    except ImportError:
        _kernels = _kernels_py

BACKEND = _kernels.BACKEND


def rref(rows, field):
    """Reduced row echelon form; returns (rows, pivots), zero rows dropped.

    Canonical: pivots are 1, pivot columns are cleared, pivot selection
    scans columns left to right taking the topmost available row.
    """
    rows = list(rows)
    if not rows or not rows[0]:
        return (), ()
    if isinstance(field, PrimeField):
        p = field.p
        out, pivots = _kernels.rref_fp([[v % p for v in r] for r in rows], p)
        return tuple(tuple(r) for r in out), tuple(pivots)
    # entries are Fractions or ints; both carry numerator/denominator, so
    # clearing denominators needs no Fraction arithmetic
    int_rows = []
    for r in rows:
        den = 1
        for v in r:
            d = v.denominator
            if d != 1:
                den = den * d // gcd(den, d)
        if den == 1:
            int_rows.append([v.numerator for v in r])
        else:
            int_rows.append([v.numerator * (den // v.denominator) for v in r])
    out, pivots = _kernels.rref_int(int_rows)
    zero = field.zero
    frows = []
    for i, row in enumerate(out):
        piv = row[pivots[i]]
        frows.append(tuple(Fraction(v, piv) if v else zero for v in row))
    return tuple(frows), tuple(pivots)


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
    rows = [tuple(r) for r in rows]
    if not rows:
        return ()
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    pivset = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = [field.zero] * ncols
        v[j] = field.one
        for i, c in enumerate(pivots):
            v[c] = field.neg(red[i][j])
        basis.append(tuple(v))
    return tuple(basis)


def identity(n, field):
    return tuple(
        tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
    )


def zeros(m, n, field):
    return tuple(tuple(field.zero for _ in range(n)) for _ in range(m))


def mat_mul(a, b, field):
    if not a or not b:
        return tuple(() for _ in a)
    n = len(b)
    cols = len(b[0])
    out = []
    for row in a:
        orow = []
        for j in range(cols):
            s = field.zero
            for k in range(n):
                x = row[k]
                if x:
                    s = field.add(s, field.mul(x, b[k][j]))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(a, v, field):
    out = []
    for row in a:
        s = field.zero
        for x, y in zip(row, v):
            if x and y:
                s = field.add(s, field.mul(x, y))
        out.append(s)
    return tuple(out)


def mat_add(a, b, field):
    return tuple(tuple(field.add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b, field):
    return tuple(tuple(field.sub(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a, field):
    return tuple(tuple(field.mul(c, x) for x in row) for row in a)


def transpose(a):
    if not a:
        return ()
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def rank(rows, field):
    _, pivots = rref(rows, field)
    return len(pivots)


def stack(*matrices):
    out = []
    for m in matrices:
        out.extend(m)
    return tuple(out)


def vanishing_functionals(rows, ncols, field):
    """Basis of linear functionals killing the row space of ``rows``.

    Functionals are returned as row vectors f with rows . f^T = 0.
    """
    if not rows:
        return identity(ncols, field)
    return nullspace(rows, field)


def is_zero_matrix(a, field):
    return not any(x for row in a for x in row)
