"""The span kernel linalg.span against the per-action route of
tests/reference.py.

Ideals R*(gens), generated submodules, the relations of a cokernel and
the equations of an annihilator are all read off stacked integer
columns in one pass.  These tests hold each of them to one mat_vec per
action and vector and one rref, entry by entry and scalar type by
scalar type, over Q with Fraction inputs and actions and over F_p with
representatives that are not reduced.
"""

from fractions import Fraction

import pytest

from reference import (
    annihilator_by_actions,
    cokernel_by_free_module,
    per_scalar_ideal_generators,
    rescaled,
    span_by_actions,
)
from matlislab.algebra import Ideal, annihilator_of_ideal, ideal_from_generators, unit_ideal
from matlislab.errors import DimensionMismatch
from matlislab.fields import PrimeField
from matlislab.modules import (
    cokernel_of_presentation,
    direct_power,
    generated_submodule,
    regular_module,
    zero_module,
)
from matlislab.randmod import Lcg, random_module

from conftest import load

SPAN_CASES = ["R3", "R4", "KXY", "V2", "dim10-Q", "dim10-F101", "QXY-half", "QXY-sums"]


def typed(x):
    if isinstance(x, (tuple, list)):
        return tuple(typed(y) for y in x)
    return (type(x), x)


def assert_contract(rows, field):
    """Over Q an int whenever the denominator is 1, else a Fraction;
    over F_p an int in range(p)."""
    for row in rows:
        for x in row:
            if isinstance(field, PrimeField):
                assert type(x) is int and 0 <= x < field.p, x
            else:
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x


def vectors(field, rng, count, length):
    """count vectors of length ``length``.  Over Q their entries are ints
    and Fractions, an integral Fraction among them; over F_p they are
    representatives of -2 .. p+1, so -1 and p+1 occur.  Every third
    vector is zero."""
    out = []
    for i in range(count):
        if i % 3 == 2:
            out.append((0,) * length)
            continue
        v = []
        for _ in range(length):
            k = rng.randint(7)
            if isinstance(field, PrimeField):
                v.append((-2, -1, 0, 1, field.p - 1, field.p, field.p + 1)[k])
            else:
                v.append((0, 1, -2, Fraction(1, 2), Fraction(-3, 7), Fraction(4, 1), 0)[k])
        out.append(tuple(v))
    return out


def modules_of(fx):
    A = fx.algebra
    R = regular_module(A)
    mods = [R, fx.ctx.I_mod, direct_power(R, 2)[0], random_module(A, Lcg(9)), zero_module(A)]
    if A.field.char == 0:
        mods += [rescaled(R), rescaled(fx.ctx.I_mod)]
    return mods


@pytest.mark.parametrize("name", SPAN_CASES)
def test_ideals_match_the_per_action_route(name):
    A = load(name).algebra
    f = A.field
    rng = Lcg(21)
    for count in (0, 1, 2, 3, 4):
        gens = vectors(f, rng, count, A.dim)
        got = ideal_from_generators(A, gens)
        want = Ideal(A, *span_by_actions(A.left_mult, gens, f))
        assert typed(got.basis_matrix) == typed(want.basis_matrix), gens
        assert got.pivots == want.pivots
        assert_contract(got.basis_matrix, f)


@pytest.mark.parametrize("name", SPAN_CASES)
def test_generated_submodules_match_the_per_action_route(name):
    fx = load(name)
    f = fx.algebra.field
    rng = Lcg(22)
    for M in modules_of(fx):
        for count in (0, 1, 2, 3):
            vecs = vectors(f, rng, count, M.dim)
            got = generated_submodule(M, vecs)
            red, pivots = span_by_actions(M.actions, vecs, f)
            assert typed(got.basis_matrix) == typed(red), (M, vecs)
            assert got.pivots == pivots
            assert_contract(got.basis_matrix, f)


@pytest.mark.parametrize("name", SPAN_CASES)
def test_cokernels_match_the_per_action_route(name):
    A = load(name).algebra
    f = A.field
    rng = Lcg(23)
    for rank in (1, 2):
        for count in (0, 1, 2, 3, 4):
            cols = vectors(f, rng, count, rank * A.dim)
            got = cokernel_of_presentation(A, rank, cols)
            want = cokernel_by_free_module(A, rank, cols)
            assert typed(got.actions) == typed(want.actions), (rank, cols)
            for act in got.actions:
                assert_contract(act, f)


@pytest.mark.parametrize("name", SPAN_CASES)
def test_annihilators_match_the_per_action_route(name):
    fx = load(name)
    A = fx.algebra
    rng = Lcg(24)
    ideals = [fx.ctx.I, A.max_ideal, unit_ideal(A), Ideal(A, (), ())]
    ideals += [ideal_from_generators(A, per_scalar_ideal_generators(A, rng, unit=k % 4 == 3))
               for k in range(8)]
    for I in ideals:
        got = annihilator_of_ideal(I)
        want = annihilator_by_actions(I)
        assert typed(got.basis_matrix) == typed(want.basis_matrix), I
        assert_contract(got.basis_matrix, A.field)


def test_wrong_lengths_raise_dimension_mismatch():
    fx = load("R3")
    A = fx.algebra
    d = A.dim
    for gens in ([(1,) * (d + 1)], [(1,) * d, (1,) * (d - 1)], [()]):
        with pytest.raises(DimensionMismatch):
            ideal_from_generators(A, gens)
    M = fx.ctx.I_mod
    for vecs in ([(1,) * (M.dim + 1)], [(1,) * (M.dim - 1)]):
        with pytest.raises(DimensionMismatch):
            generated_submodule(M, vecs)
    with pytest.raises(DimensionMismatch):
        generated_submodule(zero_module(A), [(1,)])
    for rank, length in ((2, d), (1, 2 * d), (2, 2 * d + 1)):
        with pytest.raises(DimensionMismatch):
            cokernel_of_presentation(A, rank, [(0,) * length])
