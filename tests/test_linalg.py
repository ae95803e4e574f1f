from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from reference import extend_basis_by_rereduction, vanishing_functionals
from matlislab.fields import PrimeField, QQ
from matlislab import linalg

F5 = PrimeField(5)
F101 = PrimeField(101)


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
    want_red, want_pivots = _rref_by_fractions(rows)
    _assert_same(red, want_red)
    assert pivots == want_pivots
    assert len(pivots) == 3
    # the same rows written with Fractions only give the same answer
    as_fractions = [tuple(F(x) for x in r) for r in rows]
    red_f, pivots_f = linalg.rref(as_fractions, QQ)
    _assert_same(red_f, want_red)
    assert pivots_f == pivots


def test_rref_mod_p():
    rows = [(1, 2, 3), (2, 4, 2)]
    red, pivots = linalg.rref(rows, F5)
    assert pivots == (0, 2)
    assert red[0][0] == 1 and red[1][2] == 1


def test_rref_mod_p_reduces_representatives():
    # the pivot is already 1, so only the initial reduction mod p touches
    # the other entries
    assert linalg.rref([(1, -1, 7)], F5) == (((1, 4, 2),), (0,))


def test_rref_mod_p_dependent_rows():
    # (2,4,1) = 2*(1,2,3) over F5, so the rank drops to 1
    red, pivots = linalg.rref([(1, 2, 3), (2, 4, 1)], F5)
    assert pivots == (0,)
    assert red == ((1, 2, 3),)


def test_rref_zero_matrix():
    red, pivots = linalg.rref([(F(0), F(0))], QQ)
    assert red == () and pivots == ()


def _as_mappings(rows):
    """``rows`` as mapping rows twice over: their nonzero entries, and
    every entry with its explicit zeros."""
    return (
        [{j: x for j, x in enumerate(r) if x} for r in rows],
        [dict(enumerate(r)) for r in rows],
    )


def test_nullspace_annihilates():
    for field in (QQ, F5, F101):
        cases = [((F(1), F(2), F(3)), (F(0), F(1), F(1)))] if field is QQ else []
        for rows in cases + _kernel_cases(field):
            n = len(rows[0])
            for mapped in _as_mappings(rows):
                ns = linalg.nullspace(mapped, n, field)
                assert len(ns) == n - linalg.rank(rows, field)
                for v in ns:
                    for r in rows:
                        assert _dot_ref(r, v, field) == 0


def test_nullspace_full_rank():
    rows = [(F(1), F(0)), (F(0), F(1))]
    for mapped in _as_mappings(rows):
        assert linalg.nullspace(mapped, 2, QQ) == ()
    for field in (QQ, F5, F101):
        for rows in _kernel_cases(field):
            n = len(rows[0])
            if linalg.rank(rows, field) == n:
                for mapped in _as_mappings(rows):
                    assert linalg.nullspace(mapped, n, field) == ()


def test_in_row_space():
    rows = [(F(1), F(0), F(1)), (F(0), F(1), F(1))]
    red, piv = linalg.rref(rows, QQ)
    assert linalg.in_row_space(red, piv, (F(2), F(3), F(5)), QQ)
    assert not linalg.in_row_space(red, piv, (F(0), F(0), F(1)), QQ)


def test_vanishing_functionals_dimension():
    rows = [(F(1), F(1), F(0))]
    funcs = vanishing_functionals(rows, 3, QQ)
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


def _rref_mod_p(rows, p):
    """Textbook Gauss-Jordan mod p, the reference for rref over F_p."""
    m = [[x % p for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                a = m[i][c]
                m[i] = [(x - a * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def _with_zero_rows(rows, field):
    """``rows`` with zero rows at the top, in the middle and at the
    bottom, and the zero matrix of its shape.  Over Q some zero rows are
    written as ``Fraction(0)``; over F_p a multiple of p of the first row
    is a row of nonzero ints that vanishes mod p."""
    n = len(rows[0])
    mid = len(rows) // 2
    zero = (0,) * n
    if field is QQ:
        vanishing = (F(0),) * n
    else:
        vanishing = tuple(field.p * x for x in rows[0])
    return [
        (zero,) + rows,
        rows[:mid] + (zero, vanishing) + rows[mid:],
        rows + (vanishing, zero),
        (vanishing,) + rows[:mid] + (zero,) + rows[mid:] + (vanishing,),
        (zero,) * len(rows),
    ]


@pytest.mark.parametrize(
    "shape", [(12, 17), (10, 14), (17, 6), (6, 6), (3, 1), (3, 2), (2, 3), (2, 4)]
)
def test_rref_random_rows_match_references(shape):
    nrows, ncols = shape
    for seed in range(1, 6):
        rows = _random_rows(nrows, ncols, 9, seed)
        # a repeated combination keeps some reductions rank deficient
        rows += (tuple(2 * a - b for a, b in zip(rows[0], rows[1])),)
        assert linalg.rref(rows, QQ) == _rref_by_fractions(rows)
        for field in (F5, F101):
            assert linalg.rref(rows, field) == _rref_mod_p(rows, field.p)
        # zero rows, as given or only mod p, change nothing
        for case in _with_zero_rows(rows, QQ):
            red, pivots = linalg.rref(case, QQ)
            want_red, want_pivots = _rref_by_fractions(case)
            _assert_same(red, want_red)
            assert pivots == want_pivots
        for field in (F5, F101):
            for case in _with_zero_rows(rows, field):
                assert linalg.rref(case, field) == _rref_mod_p(case, field.p)


def _extend_basis_by_rank(rows, candidates, field):
    """The greedy loop extend_basis replaces: keep what raises the rank."""
    current = list(rows)
    rk = linalg.rank(current, field) if current else 0
    kept = []
    for i, cand in enumerate(candidates):
        r2 = linalg.rank(current + [cand], field)
        if r2 > rk:
            kept.append(i)
            current.append(cand)
            rk = r2
    return kept


@pytest.mark.parametrize("field", [QQ, F5])
def test_extend_basis_matches_rank_loop(field):
    for seed in range(1, 8):
        rows = _random_rows(3, 7, 3, seed)
        cands = _random_rows(9, 7, 3, seed + 100)
        cands = tuple(tuple(field.of(x) for x in r) for r in cands)
        rows = tuple(tuple(field.of(x) for x in r) for r in rows)
        # dependent candidates: a row of rows, and the sum of two candidates
        cands += (rows[1], tuple(field.add(a, b) for a, b in zip(cands[0], cands[1])))
        assert linalg.extend_basis(rows, cands, field) == _extend_basis_by_rank(
            rows, cands, field
        )


def test_extend_basis_empty_rows_and_dependent_candidates():
    e = linalg.identity(3, QQ)
    cands = (e[0], e[0], (F(2), F(0), F(0)), e[2], (F(1), F(0), F(-1)), e[1])
    assert linalg.extend_basis((), cands, QQ) == [0, 3, 5]
    assert linalg.extend_basis(e, cands, QQ) == []
    assert linalg.extend_basis((e[0], e[2]), cands, QQ) == [5]
    assert linalg.extend_basis((), (), QQ) == []


@st.composite
def _extension_problems(draw):
    """(field, rows, candidates) over Q or F_101.  A candidate is a fresh
    vector, a copy of an earlier row or candidate, a combination of two
    earlier vectors, or zero."""
    field = draw(st.sampled_from([QQ, F101]))
    n = draw(st.integers(1, 6))
    scalar = st.builds(field.of, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))

    def fresh():
        return tuple(draw(scalar) for _ in range(n))

    rows = [fresh() for _ in range(draw(st.integers(0, 4)))]
    cands = []
    for _ in range(draw(st.integers(0, 9))):
        earlier = rows + cands
        kind = draw(st.sampled_from(["fresh", "copy", "combination", "zero"]))
        if kind == "copy" and earlier:
            cands.append(draw(st.sampled_from(earlier)))
        elif kind == "combination" and earlier:
            u, v = draw(st.sampled_from(earlier)), draw(st.sampled_from(earlier))
            a, b = draw(scalar), draw(scalar)
            cands.append(tuple(field.add(field.mul(a, x), field.mul(b, y)) for x, y in zip(u, v)))
        elif kind == "zero":
            cands.append((field.zero,) * n)
        else:
            cands.append(fresh())
    return field, rows, cands


_E3 = linalg.identity(3, QQ)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_extension_problems())
# empty rows, with a duplicate and a dependent candidate
@example((QQ, [], [_E3[1], _E3[1], (0, 2, 0), _E3[0], (1, -1, 0), _E3[2]]))
# full rank from rows alone, and after the second kept candidate
@example((F101, [_E3[0], _E3[1], _E3[2]], [(1, 2, 3)]))
@example((F101, [(1, 1, 0)], [(2, 2, 0), (0, 1, 0), (0, 0, 5), (1, 0, 0)]))
# dependent rows out of echelon order: a repeated row, and the sum of two
@example((QQ, [(1, 2, 0), (1, 2, 0), (0, 1, 1), (1, 3, 1)],
          [(1, 2, 0), (2, 5, 1), (0, 0, 1), (1, 0, 0)]))
@example((F101, [(0, 1, 1), (1, 1, 0), (1, 1, 0), (1, 2, 1)], [(2, 3, 1), (0, 0, 5), (1, 0, 0)]))
# vectors of length zero: nothing to keep
@example((QQ, [()], [(), ()]))
@example((F101, [], [()]))
# restriction rows and Hom(K, A) vectors of ext1 with Fraction entries: of
# ext1(k, rescaled(I)) on R3, whose first candidate is a coboundary, and
# of ext1(R-mod-x, rescaled(regular)) on V2
@example((QQ, [(0, 0, 6, 0), (0, 0, 0, 0)], [(0, 0, 1, 0), (F(1, 6), 0, 0, 1)]))
@example((QQ, [(0, 0, F(4, 7)), (0, 0, 0), (0, 0, 0)], [(0, 1, 0), (0, 0, 1)]))
def test_extend_basis_matches_rereduction(problem):
    """The pivot columns among the candidates, read off one rref of the
    rows and candidates as columns, are the candidates kept by
    row-reducing the stack again after each kept one, and by the loop
    that keeps what raises the rank."""
    field, rows, cands = problem
    kept = linalg.extend_basis(rows, cands, field)
    assert kept == extend_basis_by_rereduction(rows, cands, field)
    assert kept == _extend_basis_by_rank(rows, cands, field)


def _dot_ref(row, col, field):
    """Textbook dot product: Fraction sums over Q, one reduction mod p."""
    if field is QQ:
        return sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
    return sum(x * y for x, y in zip(row, col)) % field.p


def _mat_mul_ref(a, b, field):
    cols = [tuple(r[j] for r in b) for j in range(len(b[0]) if b else 0)]
    return tuple(tuple(_dot_ref(row, col, field) for col in cols) for row in a)


def _mat_vec_ref(a, v, field):
    return tuple(_dot_ref(row, v, field) for row in a)


def _in_contract(x):
    """A reference scalar written in the Q scalar contract: an int when
    integral, else a Fraction.  Ints mod p are unchanged."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _assert_same(got, want):
    """Equal matrices, entry by entry, whose scalar types are those of
    the reference written in the scalar contract: over Q an entry is an
    int exactly when its denominator is 1."""
    want = tuple(tuple(_in_contract(x) for x in r) for r in want)
    assert tuple(got) == want
    assert [type(x) for r in got for x in r] == [type(x) for r in want for x in r]


P_BIG, Q_BIG = 1_000_000_007, 998_244_353  # coprime


def _mixed(rows):
    """Ints and Fractions with large coprime denominators, side by side;
    denominator 1 gives Fractions such as ``F(x, 1)`` that are integral."""
    dens = (1, P_BIG, Q_BIG, 7, P_BIG * Q_BIG)
    out = []
    for i, row in enumerate(rows):
        out.append(tuple(
            x if (i + j) % 3 == 0 else F(x, dens[(i * 5 + j) % len(dens)])
            for j, x in enumerate(row)
        ))
    return tuple(out)


def _product_cases(field):
    """(a, b) pairs: random, with zero rows and columns, and empty shapes."""
    cases = []
    for seed in range(1, 5):
        a = _random_rows(5, 6, 9, seed)
        b = _random_rows(6, 4, 9, seed + 50)
        a = a[:2] + ((0,) * 6,) + a[3:]  # a zero row
        b = tuple(row[:1] + (0,) + row[2:] for row in b)  # a zero column
        if field is QQ:
            a, b = _mixed(a), _mixed(b)
        else:
            a = tuple(tuple(x % field.p for x in r) for r in a)
            b = tuple(tuple(x % field.p for x in r) for r in b)
        cases.append((a, b))
    # zero rows of a and zero columns of b, Fraction(0) among them over Q
    a, b = cases[0]
    n = len(b[0])
    zero = F(0) if field is QQ else 0
    cases += [
        (tuple(r if i % 2 else (zero,) * len(r) for i, r in enumerate(a)), b),
        (a, tuple(r[:1] + (zero,) + r[2:] for r in b)),
        (a, tuple(r[:3] + (0,) * (n - 3) for r in b)),
        (a, ((0,) * n,) * len(b)),  # all of b zero
        (((zero,) * len(b),) * 2, b),  # all of a zero
    ]
    cases += [((), ()), (((), ()), ()), (((1, 2),), ((), ())), ((), ((1, 2),))]
    return cases


@pytest.mark.parametrize("field", [QQ, F5, F101])
def test_mat_mul_matches_reference(field):
    for a, b in _product_cases(field):
        _assert_same(linalg.mat_mul(a, b, field), _mat_mul_ref(a, b, field))


@pytest.mark.parametrize("field", [QQ, F5, F101])
def test_mat_vec_matches_reference(field):
    one = field.one
    for a, b in _product_cases(field):
        n = len(a[0]) if a else 0
        vecs = [tuple(r[0] for r in b) if b and b[0] else (field.zero,) * n]
        vecs.append((field.zero,) * n)
        vecs.append((F(0),) * n if field is QQ else (0,) * n)
        for k in range(n):
            unit = tuple(one if j == k else field.zero for j in range(n))
            vecs.append(unit)
            vecs.append(tuple(1 if j == k else 0 for j in range(n)))  # int entries
            # scaled unit vectors, by a Fraction and by an int over Q
            for c in (F(P_BIG, Q_BIG), -2) if field is QQ else (3, field.p - 1):
                vecs.append(tuple(c if j == k else field.zero for j in range(n)))
        for v in vecs:
            _assert_same([linalg.mat_vec(a, v, field)], [_mat_vec_ref(a, v, field)])


def _nullspace_ref(rows, field):
    """One vector per free column of a textbook reduced echelon form."""
    red, pivots = _rref_by_fractions(rows) if field is QQ else _rref_mod_p(rows, field.p)
    basis = []
    for j in range(len(rows[0])):
        if j in pivots:
            continue
        v = [field.zero] * len(rows[0])
        v[j] = field.one
        for row, c in zip(red, pivots):
            v[c] = field.neg(row[j])
        basis.append(tuple(v))
    return tuple(basis)


def _kernel_cases(field):
    """Random rows, rank deficient and of full rank, zero rows, zero width."""
    cases = []
    for seed in range(1, 5):
        for nrows, ncols in ((4, 7), (7, 4), (5, 5), (2, 9)):
            rows = _random_rows(nrows, ncols, 9, seed)
            rows += (tuple(2 * a - b for a, b in zip(rows[0], rows[1])),)
            cases.append(_mixed(rows) if field is QQ else rows)
    cases += [
        ((0,) * 4, (0,) * 4),
        tuple(tuple(1 if i == j else 0 for j in range(4)) for i in range(4)),
        ((0, 3, 0, 1), (0, 0, 0, 2)),
    ]
    cases += _with_zero_rows(cases[0], field)
    if field is QQ:
        cases.append(((F(0), F(0), F(0)), (1, F(1, 2), 0), (0, 0, 0)))
    else:
        vanishing = {5: (5, 10, -15), 101: (101, 0, -202)}[field.p]
        cases += [(vanishing,), (vanishing, (1, 2, 3), vanishing)]
    # the zero matrix of each width from 1 to 4: every column is free
    for n in range(1, 5):
        cases += [((0,) * n,), ((0,) * n,) * 3]
        if field is QQ:
            cases.append(((F(0),) * n,) * 2)
    return cases


@pytest.mark.parametrize("field", [QQ, F5, F101])
def test_kernel_matches_rref_of_nullspace(field):
    for rows in _kernel_cases(field):
        n = len(rows[0])
        want = _nullspace_ref(rows, field)
        for mapped in _as_mappings(rows):
            _assert_same(linalg.nullspace(mapped, n, field), want)
        red, pivots = linalg.kernel(rows, field)
        want_red, want_pivots = linalg.rref(want, field)
        _assert_same(red, want_red)
        assert pivots == want_pivots
        assert len(pivots) == n - linalg.rank(rows, field)
    # rows of zero width have no kernel vectors
    for rows in ((), ((), ())):
        assert linalg.kernel(rows, field) == ((), ())
        assert linalg.nullspace([{} for _ in rows], 0, field) == ()
    # with no rows, or only zero ones, every column is free
    for n in range(1, 5):
        unit = linalg.identity(n, field)
        _assert_same(linalg.nullspace([], n, field), unit)
        _assert_same(linalg.nullspace([{}, {n - 1: 0}], n, field), unit)
