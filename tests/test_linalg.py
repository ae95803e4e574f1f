from fractions import Fraction

import pytest

from matlislab import _kernels_py
from matlislab.fields import PrimeField, QQ
from matlislab import linalg

try:
    from matlislab import _kernels

    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False

F5 = PrimeField(5)


def F(n, d=1):
    return Fraction(n, d)


def test_rref_rational_known():
    rows = [
        (F(1), F(2), F(3)),
        (F(2), F(4), F(7)),
    ]
    red, pivots = linalg.rref(rows, QQ)
    assert red == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))
    assert pivots == (0, 2)


def test_rref_rational_fractions():
    rows = [(F(1, 2), F(1, 3)), (F(1, 4), F(1))]
    red, pivots = linalg.rref(rows, QQ)
    assert pivots == (0, 1)
    assert red == ((F(1), F(0)), (F(0), F(1)))


def _rref_by_fractions(rows):
    """Textbook Gauss-Jordan on Fractions, the reference for rref over Q."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                a = m[i][c]
                m[i] = [x - a * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def test_rref_rational_mixed_ints_and_large_denominators():
    p, q = 1_000_000_007, 998_244_353  # coprime
    r0 = (3, F(1, p), F(-2, q), 0, F(5, 7))
    r1 = (F(2, q), 1, F(7, p * q), F(1, 3), -4)
    dependent = tuple(2 * a - F(5, p) * b for a, b in zip(r0, r1))
    rows = [r0, r1, dependent, (0, 0, 0, 0, 0), (F(p, q), -1, 2, F(1, p), F(q, p))]
    red, pivots = linalg.rref(rows, QQ)
    assert (red, pivots) == _rref_by_fractions(rows)
    assert len(pivots) == 3
    assert all(type(x) is Fraction for row in red for x in row)
    # the same rows written with Fractions only give the same answer
    as_fractions = [tuple(F(x) for x in r) for r in rows]
    assert linalg.rref(as_fractions, QQ) == (red, pivots)


def test_rref_mod_p():
    rows = [(1, 2, 3), (2, 4, 2)]
    red, pivots = linalg.rref(rows, F5)
    assert pivots == (0, 2)
    assert red[0][0] == 1 and red[1][2] == 1


def test_rref_mod_p_dependent_rows():
    # (2,4,1) = 2*(1,2,3) over F5, so the rank drops to 1
    red, pivots = linalg.rref([(1, 2, 3), (2, 4, 1)], F5)
    assert pivots == (0,)
    assert red == ((1, 2, 3),)


def test_rref_zero_matrix():
    red, pivots = linalg.rref([(F(0), F(0))], QQ)
    assert red == () and pivots == ()


def test_nullspace_annihilates():
    rows = [(F(1), F(2), F(3)), (F(0), F(1), F(1))]
    ns = linalg.nullspace(rows, QQ)
    assert len(ns) == 1
    for r in rows:
        assert sum(a * b for a, b in zip(r, ns[0])) == 0


def test_nullspace_full_rank():
    assert linalg.nullspace([(F(1), F(0)), (F(0), F(1))], QQ) == ()


def test_in_row_space():
    rows = [(F(1), F(0), F(1)), (F(0), F(1), F(1))]
    red, piv = linalg.rref(rows, QQ)
    assert linalg.in_row_space(red, piv, (F(2), F(3), F(5)), QQ)
    assert not linalg.in_row_space(red, piv, (F(0), F(0), F(1)), QQ)


def test_vanishing_functionals_dimension():
    rows = [(F(1), F(1), F(0))]
    funcs = linalg.vanishing_functionals(rows, 3, QQ)
    assert len(funcs) == 2
    for phi in funcs:
        assert sum(a * b for a, b in zip(rows[0], phi)) == 0


def _random_rows(nrows, ncols, mod, seed):
    state = seed
    out = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            row.append((state >> 32) % mod - mod // 2)
        out.append(tuple(row))
    return tuple(out)


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernels not built")
def test_backends_agree_mod_p():
    for seed in range(5):
        rows = _random_rows(12, 17, 5, seed + 1)
        rows_fp = tuple(tuple(x % 5 for x in r) for r in rows)
        assert _kernels.rref_fp(rows_fp, 5) == _kernels_py.rref_fp(rows_fp, 5)


@pytest.mark.skipif(not HAVE_COMPILED, reason="compiled kernels not built")
def test_backends_agree_integer():
    for seed in range(5):
        rows = _random_rows(10, 14, 9, seed + 11)
        assert _kernels.rref_int(rows) == _kernels_py.rref_int(rows)


def test_pure_env_forces_fallback(monkeypatch):
    import importlib
    import matlislab.linalg as lin

    monkeypatch.setenv("MATLISLAB_PURE", "1")
    mod = importlib.reload(lin)
    assert mod.BACKEND == "python"
    monkeypatch.delenv("MATLISLAB_PURE")
    importlib.reload(lin)
