import random
from fractions import Fraction

import pytest

from reference import ideal_sum, is_associative, multiply, zero_ideal
from matlislab.algebra import (
    Algebra,
    Presentation,
    _validate_algebra,
    annihilator_of_ideal,
    build_algebra,
    ideal_from_generators,
    ideal_product,
    minimal_generators,
    unit_ideal,
)
from matlislab.errors import BoundNotCertified, FixtureValidationError, MatlisLabError, NotLocal
from matlislab.fields import PrimeField, QQ

F = Fraction


def _build(field, variables, relations, bound):
    return build_algebra(Presentation(field, variables, relations, bound))


@pytest.fixture(scope="module")
def R3():
    return _build(QQ, ["x"], [[(F(1), (3,))]], 3)


@pytest.fixture(scope="module")
def KXY():
    return _build(QQ, ["x", "y"], [[(F(1), (2, 0))], [(F(1), (0, 2))]], 3)


def test_truncated_polynomial_dims(R3):
    assert R3.dim == 3
    assert R3.basis == ((0,), (1,), (2,))


def test_two_variable_basis_order(KXY):
    # graded-lex ascending: 1, y, x, xy
    assert KXY.basis == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_square_of_max_ideal_relations():
    V2 = _build(QQ, ["x", "y"], [[(F(1), (2, 0))], [(F(1), (1, 1))], [(F(1), (0, 2))]], 2)
    assert V2.dim == 3


def test_prime_field_algebra():
    R4 = _build(PrimeField(5), ["x"], [[(1, (4,))]], 4)
    assert R4.dim == 4
    x = R4.var_elements[0]
    x2 = multiply(R4, x, x)
    assert multiply(R4, x2, x2) == tuple([0] * 4)


def test_bound_not_certified():
    # x^3 = 0 declared with nilpotency 2: x^2 does not reduce to zero
    with pytest.raises(BoundNotCertified):
        _build(QQ, ["x"], [[(F(1), (3,))]], 2)


def test_multiplication_matches_table(R3):
    x = R3.var_elements[0]
    x2 = multiply(R3, x, x)
    assert x2 == (F(0), F(0), F(1))
    assert multiply(R3, x2, x) == (F(0), F(0), F(0))


def test_relation_with_lower_order_terms():
    # x^2 = x^3 collapses: x^2(1 - x) = 0 and 1 - x is a unit
    A = _build(QQ, ["x"], [[(F(1), (2,)), (F(-1), (3,))]], 4)
    assert A.dim == 2


def test_annihilator_and_double_annihilator(R3):
    x = R3.var_elements[0]
    I = ideal_from_generators(R3, [x])
    ann = annihilator_of_ideal(I)
    assert ann.dim == 1 and ann.contains(multiply(R3, x, x))
    bar = annihilator_of_ideal(ann)
    assert bar.basis_matrix == I.basis_matrix


def test_ideal_product_and_sum(KXY):
    x, y = KXY.var_elements
    m = ideal_from_generators(KXY, [x, y])
    m2 = ideal_product(m, m)
    assert m2.dim == 1 and m2.contains(multiply(KXY, x, y))
    assert ideal_sum(m2, m).basis_matrix == m.basis_matrix


def test_annihilator_of_max_ideal(KXY):
    x, y = KXY.var_elements
    m = ideal_from_generators(KXY, [x, y])
    ann = annihilator_of_ideal(m)
    assert ann.dim == 1 and ann.contains(multiply(KXY, x, y))


def test_zero_and_unit_ideals(R3):
    assert zero_ideal(R3).dim == 0
    assert unit_ideal(R3).is_whole_ring()
    assert annihilator_of_ideal(unit_ideal(R3)).dim == 0
    assert annihilator_of_ideal(zero_ideal(R3)).is_whole_ring()


def test_minimal_generators(KXY):
    x, y = KXY.var_elements
    m = ideal_from_generators(KXY, [x, y])
    gens = minimal_generators(m)
    assert len(gens) == 2
    assert ideal_from_generators(KXY, gens).basis_matrix == m.basis_matrix


def test_minimal_generators_memo_matches_fresh_ideal(KXY):
    x = KXY.var_elements[0]
    m = KXY.max_ideal
    for I in (m, ideal_from_generators(KXY, [x]), ideal_product(m, m), zero_ideal(KXY)):
        gens = minimal_generators(I)
        assert minimal_generators(I) is gens
        fresh = ideal_from_generators(KXY, list(I.basis_matrix))
        assert fresh == I and fresh is not I
        assert minimal_generators(fresh) is gens


def test_is_iso_to_regular(R3, KXY):
    # an injective map R -> I, r -> r*g, forces dim I >= dim R, so an ideal
    # isomorphic to R is R itself
    assert unit_ideal(R3).is_whole_ring()
    x = R3.var_elements[0]
    assert not ideal_from_generators(R3, [x]).is_whole_ring()
    # a principal ideal generated by a unit is the whole ring
    u = tuple(F(a) for a in (1, 1, 0))
    assert ideal_from_generators(R3, [u]).is_whole_ring()
    xk, yk = KXY.var_elements
    assert not ideal_from_generators(KXY, [xk, yk]).is_whole_ring()


def test_degree_zero_relation_rejected():
    with pytest.raises(Exception):
        _build(QQ, ["x"], [[(F(1), (0,))]], 3)


def _corrupted(A, rng):
    """A with one or two entries of its multiplication table replaced,
    each together with its mirror entry, so the table stays commutative."""
    table = [[list(c) for c in row] for row in A.mult_table]
    for _ in range(rng.randint(1, 2)):
        i, j, r = (rng.randrange(A.dim) for _ in range(3))
        table[i][j][r] = table[j][i][r] = A.field.of(rng.randint(-2, 2))
    table = tuple(tuple(tuple(c) for c in row) for row in table)
    return Algebra(A.field, A.variables, A.bound, A.basis, table, A.var_elements)


def test_certificate_rejects_every_non_associative_table(fixtures):
    """The generated-action certificate rejects every corrupted table that
    the dim^3 associativity loop rejects, and some associative ones whose
    basis monomials are not the products of their variables."""
    algebras = [fixtures[name].algebra for name in ("R3", "R4", "KXY", "V2")] + [
        _build(QQ, ["x"], [[(F(1), (8,))]], 8),
        _build(QQ, ["x", "y"], [[(F(1), (2, 0))], [(F(1), (0, 3))]], 4),
        _build(QQ, ["x", "y"], [[(F(1), (1, 0)), (F(-1), (0, 2))], [(F(1), (0, 4))]], 4),
    ]
    non_associative = stricter = 0
    for seed, A in enumerate(algebras):
        assert is_associative(A)
        _validate_algebra(A)
        rng = random.Random(seed)
        for _ in range(60):
            B = _corrupted(A, rng)
            try:
                _validate_algebra(B)
                error = ""
            except MatlisLabError as exc:
                error = str(exc)
            if not is_associative(B):
                assert error
                non_associative += 1
            elif "not the product of its variables" in error:
                stricter += 1
    assert non_associative and stricter


def test_validation_rejects_an_idempotent_variable():
    # x*x = x: the table is associative, so only locality rejects it
    A = Algebra(QQ, ["x"], 3, ((0,), (1,)), (((1, 0), (0, 1)), ((0, 1), (0, 1))), ((0, 1),))
    with pytest.raises(NotLocal, match="basis element 1 is not nilpotent"):
        _validate_algebra(A)


def test_validation_rejects_a_bound_below_the_nilpotency(R3):
    # Q[x]/(x^3) at bound 1: every basis element passes locality, but
    # m^2 = (x^2) is not zero
    A = Algebra(QQ, R3.variables, 1, R3.basis, R3.mult_table, R3.var_elements)
    with pytest.raises(BoundNotCertified,
                       match="maximal ideal not nilpotent at the certified bound"):
        _validate_algebra(A)
