"""The Q scalar contract: an int when integral, else a Fraction whose
denominator is not 1.

Every field operation of ``QQ`` and every ``linalg`` result over Q keeps
to it, and so does every module the shipped Q fixtures and a non-monomial
Q algebra build.
"""

import random
from fractions import Fraction

import pytest

from matlislab import linalg
from matlislab.classes import gamma, kappa
from matlislab.duality import matlis_dual
from matlislab.fields import QQ
from matlislab.modules import (
    direct_power,
    direct_sum,
    hom_space,
    ideal_times_module,
    quotient_module,
)
from matlislab.randmod import Lcg, random_module

# QXY-sums has products of basis elements with two Fraction terms
Q_FIXTURES = ["R3", "KXY", "V2", "QXY-sums"]


def _is_q_scalar(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _assert_contract(rows):
    bad = [x for row in rows for x in row if not _is_q_scalar(x)]
    assert not bad, "not Q scalars: %r" % bad[:5]


def _scalar(rng):
    """An int, a Fraction, or a quotient that turns out integral."""
    n = rng.randint(-12, 12)
    return QQ.of(n, rng.choice((1, 1, 2, 3, 4, 6, 10**9 + 7)))


def _rows(rng, nrows, ncols):
    rows = [[_scalar(rng) if rng.random() < 0.7 else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 2:  # a dependent row
        rows.append([QQ.sub(QQ.mul(2, a), b) for a, b in zip(rows[0], rows[1])])
    return [tuple(r) for r in rows]


def _vectors(rng, n):
    """Zero, unit, scaled unit and dense vectors of length n."""
    vecs = [(0,) * n]
    for k in range(n):
        for c in (1, -3, Fraction(1, 2), Fraction(-7, 3)):
            vecs.append(tuple(c if j == k else 0 for j in range(n)))
    vecs += [tuple(_scalar(rng) for _ in range(n)) for _ in range(3)]
    return vecs


VALUES = [0, 1, -1, 2, -6, 10**20, Fraction(1, 2), Fraction(-1, 2),
          Fraction(3, 2), Fraction(-5, 3), Fraction(7, 10**9 + 7)]


def test_field_operations_keep_the_contract():
    assert type(QQ.zero) is int and type(QQ.one) is int
    for a in VALUES:
        assert _is_q_scalar(QQ.neg(a))
        if a:
            assert _is_q_scalar(QQ.inv(a))
            assert QQ.mul(a, QQ.inv(a)) == 1
        for b in VALUES:
            for op in (QQ.add, QQ.sub, QQ.mul):
                assert _is_q_scalar(op(a, b)), (op, a, b)
    # integral results of non-integral arguments, and inverses of ints
    assert type(QQ.add(Fraction(1, 2), Fraction(1, 2))) is int
    assert type(QQ.sub(Fraction(5, 3), Fraction(2, 3))) is int
    assert type(QQ.mul(Fraction(3, 2), Fraction(4, 3))) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    for num, den in ((6, 3), (-4, 2), (0, 5), (3, 1), (3, 4), (Fraction(1, 2), 1)):
        x = QQ.of(num, den)
        assert x == Fraction(num, den) and _is_q_scalar(x)


def _mapping_rows(rows):
    """Dense rows as the mapping rows linalg.nullspace takes, explicit
    zeros included."""
    return [dict(enumerate(r)) for r in rows]


@pytest.mark.parametrize("seed", range(6))
def test_linalg_results_keep_the_contract(seed):
    rng = random.Random(seed)
    for nrows, ncols in ((1, 1), (3, 5), (5, 3), (6, 6), (2, 8)):
        rows = _rows(rng, nrows, ncols)
        red, pivots = linalg.rref(rows, QQ)
        _assert_contract(red)
        _assert_contract(linalg.nullspace(_mapping_rows(rows), ncols, QQ))
        _assert_contract(linalg.kernel(rows, QQ)[0])
        for v in _vectors(rng, ncols):
            _assert_contract([linalg.reduce_vector(red, pivots, v, QQ)])
            _assert_contract([linalg.mat_vec(rows, v, QQ)])
        other = _rows(rng, ncols, 4)
        _assert_contract(linalg.mat_mul(rows, other, QQ))
        # integral entries written as Fractions are accepted and put back
        # into the contract, with the same values
        as_fractions = [tuple(Fraction(x) for x in r) for r in rows]
        results = (
            (linalg.rref(as_fractions, QQ)[0], red),
            (linalg.kernel(as_fractions, QQ)[0], linalg.kernel(rows, QQ)[0]),
            (
                linalg.nullspace(_mapping_rows(as_fractions), ncols, QQ),
                linalg.nullspace(_mapping_rows(rows), ncols, QQ),
            ),
            (linalg.mat_mul(as_fractions, other, QQ), linalg.mat_mul(rows, other, QQ)),
        )
        results += tuple(
            ([linalg.mat_vec(as_fractions, v, QQ)], [linalg.mat_vec(rows, v, QQ)])
            for v in _vectors(rng, ncols)
        )
        for got, want in results:
            _assert_contract(got)
            assert tuple(got) == tuple(want)


def _modules(fx):
    """The fixture's modules, a few random ones, and their duals."""
    mods = list(fx.modules.values())
    rng = Lcg(fx.seed)
    mods += [random_module(fx.algebra, rng) for _ in range(3)]
    return mods + [matlis_dual(M) for M in mods]


@pytest.mark.parametrize("name", Q_FIXTURES)
def test_fixture_modules_keep_the_contract(fixtures, extra_fixtures, name):
    fx = {**fixtures, **extra_fixtures}[name]
    A = fx.algebra
    assert A.field is QQ
    for table in A.mult_table:
        _assert_contract(table)
    _assert_contract(fx.ideal.basis_matrix)
    for M in _modules(fx):
        for action in M.actions:
            _assert_contract(action)
        g = gamma(fx.ctx, M)
        k = kappa(fx.ctx, M)
        _assert_contract(g.basis_matrix)
        _assert_contract(k.basis_matrix)
        for h in hom_space(fx.ctx.I_mod, M):
            _assert_contract(h.matrix)
        Q, proj = quotient_module(M, g)
        _assert_contract(proj.matrix)
        for action in Q.actions:
            _assert_contract(action)
        S, injs, projs = direct_sum(M, fx.ctx.I_mod)
        P, powers = direct_power(M, 2)
        for action in S.actions + P.actions:
            _assert_contract(action)
        for h in injs + projs + tuple(powers):
            _assert_contract(h.matrix)
        _assert_contract(ideal_times_module(fx.ideal, M).basis_matrix)
