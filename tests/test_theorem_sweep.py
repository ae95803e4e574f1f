"""The paper as the oracle: a sweep of `verify all` over drawn algebras.

Every suite checks a theorem that holds for every Artinian local ring and
every ideal, so on a valid fixture any FAIL record, and any raised error,
is a defect of the program.  The four shipped fixtures are a handful of
algebras and ideals; a memo with a wrong key, or a choice that only
generic coefficients make right, can pass on all of them.

The algebras are k[x_1, .., x_v] / (m^N + up to two binomials below
degree N), over Q, F_2, F_3 and F_101, with an ideal of one or two
monomial or binomial generators, or the zero or the unit ideal.  The
examples are derived from a fixed seed and their number is bounded, so
every run checks the same fixtures in a few seconds.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from matlislab.fixtures import fixture_from_dict
from matlislab.suites import run_suite

SWEEP = settings(derandomize=True, max_examples=10, deadline=None, database=None)

VARIABLES = ["x", "y", "z"]
FIELDS = ["Q", "Fp:2", "Fp:3", "Fp:101"]
# a second coefficient that vanishes mod 2 or 3 turns a binomial into a
# monomial there
COEFFICIENTS = [-1, 1, 2, -3]


def _monomials(nvars, lo, hi):
    """The exponent lists of the monomials of degree lo to hi."""
    return [list(e) for e in itertools.product(range(hi + 1), repeat=nvars)
            if lo <= sum(e) <= hi]


def _doc(field, nvars, n, ideal, binomials=(), seed=1):
    relations = [[[1, 1, e]] for e in _monomials(nvars, n, n)] + list(binomials)
    return {"name": "sweep", "field": field, "vars": VARIABLES[:nvars],
            "relations": relations, "nilpotency": n, "ideal": ideal, "seed": seed}


@st.composite
def _elements(draw, monomials):
    """A monomial, or a binomial with a drawn second coefficient."""
    terms = draw(st.lists(st.sampled_from(range(len(monomials))),
                          min_size=1, max_size=2, unique=True))
    coeffs = [1] + [draw(st.sampled_from(COEFFICIENTS)) for _ in terms[1:]]
    return [[c, 1, monomials[t]] for c, t in zip(coeffs, terms)]


# (variables, N), each swept on its own.  k[x,y]/m^3, k[x,y]/m^4 and
# k[x,y,z]/m^3 held monomial ideals that the old satz25 witness failed
# on; k[x,y,z]/m^4 has dimension 20 and takes seconds per fixture.
SHAPES = [(1, 2), (1, 4), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
IDEALS = ["drawn"] * 4 + ["zero", "unit"]


@st.composite
def sweep_docs(draw, nvars, n):
    # binomials of degree >= 2 keep x_1, .., x_v independent mod m^2
    below = _monomials(nvars, 2, n - 1)
    binomials = []
    if len(below) > 1:
        binomials = draw(st.lists(_elements(below), max_size=2))
    kind = draw(st.sampled_from(IDEALS))
    if kind == "drawn":
        elements = _elements(_monomials(nvars, 1, n - 1))
        ideal = draw(st.lists(elements, min_size=1, max_size=2))
    else:
        ideal = [] if kind == "zero" else [[[1, 1, [0] * nvars]]]
    field = draw(st.sampled_from(FIELDS))
    return _doc(field, nvars, n, ideal, binomials, draw(st.integers(0, 2**16)))


@pytest.mark.parametrize("nvars, n", SHAPES)
@SWEEP
@given(data=st.data())
def test_verify_all_passes_on_drawn_fixtures(nvars, n, data):
    _verify_all(data.draw(sweep_docs(nvars, n)))


@pytest.mark.parametrize("field", ["Q", "Fp:3"])
def test_verify_all_passes_on_the_satz25_reproducer(field):
    # k[x,y]/(x,y)^3 with I = (x, y^2): the first basis class of
    # Ext^1(I°, I°) once gave a satz25-S FAIL here
    _verify_all(_doc(field, 2, 3, [[[1, 1, [1, 0]]], [[1, 1, [0, 2]]]]))


def _verify_all(doc):
    fx = fixture_from_dict(doc, name=doc["name"])
    report = run_suite(fx, "all", trials=2)
    assert not report.has_fail(), report.render()
