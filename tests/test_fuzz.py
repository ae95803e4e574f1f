"""Property tests of the input boundary: malformed fixtures end in a
MatlisLabError (exit status 2), never in another exception (status 3) or
in the FAIL status 1.

The examples are derived from a fixed seed and their number is bounded,
so every run checks the same inputs in a few seconds.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from matlislab.cli import main
from matlislab.errors import FixtureValidationError, MatlisLabError
from matlislab.fixtures import MAX_MODULE_DIM, MAX_MONOMIALS, fixture_from_dict

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)

# a valid fixture using every module spec type; examples perturb it
BASE = {
    "name": "fuzz",
    "field": "Q",
    "vars": ["x"],
    "relations": [[[1, 1, [3]]]],
    "nilpotency": 3,
    "ideal": [[[1, 1, [1]]]],
    "seed": 1,
    "modules": {
        "Q": {"type": "quotient", "by": [[[1, 1, [2]]]]},
        "P": {"type": "presentation", "rank": 2, "columns": [[[[1, 1, [1]]], []]]},
        "X": {"type": "explicit", "dim": 2, "actions": {"x": [[0, 0], [1, 0]]}},
        "R": {"type": "regular"},
        "K": {"type": "residue-field"},
        "E": {"type": "injective"},
    },
}

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# sizes and exponents are drawn from all integers: fixture_from_dict
# rejects an oversized truncation, algebra or module before building it
SIZE = st.integers()
EXPONENTS = st.lists(st.integers(-1, 4) | st.just(10**9) | st.integers(), max_size=2)
TERM = st.builds(list, st.tuples(st.integers(-3, 3), st.integers(-1, 3), EXPONENTS)) | JSON
ELEMENT = st.lists(TERM, max_size=3) | JSON
SCALAR = st.integers(-3, 3) | st.lists(st.integers(-2, 3), min_size=2, max_size=2) | JSON
MATRIX = st.lists(st.lists(SCALAR, max_size=2), max_size=2) | JSON
MODULE = st.fixed_dictionaries(
    {
        "type": st.sampled_from(
            ["regular", "residue-field", "injective", "quotient", "presentation",
             "explicit", "other"]
        ) | JSON
    },
    optional={
        "by": st.lists(ELEMENT, max_size=2) | JSON,
        "rank": SIZE | JSON,
        "columns": st.lists(st.lists(ELEMENT, max_size=2), max_size=2) | JSON,
        "dim": SIZE | JSON,
        "actions": st.dictionaries(st.sampled_from(["x", "y"]) | st.text(max_size=2),
                                   MATRIX, max_size=2) | JSON,
    },
)
VALUES = {
    "field": st.sampled_from(["Q", "Fp:2", "Fp:5", "Fp:4", "Fp:x", "R"]) | JSON,
    "vars": st.lists(st.sampled_from(["x", "y"]), max_size=2) | JSON,
    "relations": st.lists(ELEMENT, max_size=2) | JSON,
    "nilpotency": SIZE | JSON,
    "ideal": st.lists(ELEMENT, max_size=2) | JSON,
    "seed": st.integers(-2, 2) | JSON,
    "modules": st.dictionaries(st.text(max_size=2), MODULE | JSON, max_size=2) | JSON,
}


def _paths(value, prefix=()):
    """Every position inside a JSON value, as key/index paths."""
    yield prefix
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for k, v in items:
        yield from _paths(v, prefix + (k,))


def _at(value, path):
    for k in path:
        value = value[k]
    return value


def _replaced(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


PATHS = [p for p in _paths(BASE) if p]
LEAVES = [p for p in PATHS if not isinstance(_at(BASE, p), (dict, list))]


# two-variable algebras for explicit modules: k[x,y]/(x^2, y^2), and
# k[y]/(y^4) with x = y^2, whose relation is not a monomial
TWO_VARIABLE = [
    dict(BASE, vars=["x", "y"], relations=[[[1, 1, [2, 0]]], [[1, 1, [0, 2]]]], ideal=[]),
    dict(BASE, vars=["x", "y"], relations=[[[1, 1, [1, 0]], [-1, 1, [0, 2]]], [[1, 1, [0, 4]]]],
         nilpotency=4, ideal=[]),
]
ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2]) | st.integers(-3, 3)


@st.composite
def explicit_modules(draw):
    """A two-variable algebra with an explicit module of small random
    matrices; most of them do not commute or are not nilpotent."""
    dim = draw(st.integers(0, 3))
    matrix = st.lists(st.lists(ENTRY, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    actions = draw(st.dictionaries(st.sampled_from(["x", "y"]), matrix, max_size=2))
    return dict(draw(st.sampled_from(TWO_VARIABLE)),
                modules={"X": {"type": "explicit", "dim": dim, "actions": actions}})


@st.composite
def fixture_docs(draw):
    """BASE with whole keys redrawn (a quarter of the examples), an
    explicit module over a two-variable algebra (a quarter), or BASE with
    one or two positions replaced: mostly scalars and mostly by integers,
    small or of any size, since most of the checks sit at the leaves."""
    doc = dict(BASE)
    branch = draw(st.integers(0, 3))
    if branch == 1:
        return draw(explicit_modules())
    if branch == 0:
        keys = st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=3, unique=True)
        for key in draw(keys):
            doc[key] = draw(VALUES[key])
        for key in draw(st.lists(st.sampled_from(sorted(BASE)), max_size=1)):
            del doc[key]
    else:
        where = st.sampled_from(LEAVES) | st.sampled_from(LEAVES) | st.sampled_from(PATHS)
        small = st.integers(-1, 2)
        for path in draw(st.lists(where, min_size=1, max_size=2)):
            try:
                doc = _replaced(doc, path, draw(small | small | SIZE | JSON))
            except (KeyError, IndexError, TypeError):
                pass  # an earlier replacement removed this position
    return doc


@FUZZ
@given(fixture_docs())
def test_fixture_from_dict_raises_only_matlislab_error(doc):
    try:
        fixture_from_dict(doc)
    except MatlisLabError:
        pass


# each size field of BASE with the number of basis vectors it asks for
SIZES = [
    (("nilpotency",), lambda n: n + 1, MAX_MONOMIALS),  # C(1 + N, 1) monomials
    (("modules", "X", "dim"), lambda n: n, MAX_MODULE_DIM),
    (("modules", "P", "rank"), lambda n: 3 * n, MAX_MODULE_DIM),  # R^rank, dim R = 3
]


@FUZZ
@given(st.sampled_from(SIZES), SIZE)
def test_size_fields_of_any_value_are_built_or_rejected(size, n):
    path, count, limit = size
    doc = _replaced(BASE, path, n)
    if count(n) > limit:
        with pytest.raises(FixtureValidationError):
            fixture_from_dict(doc)
        return
    try:
        fixture_from_dict(doc)
    except MatlisLabError:
        pass


@FUZZ
@given(
    fixture_docs().map(json.dumps)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
)
def test_ring_check_exit_status_is_zero_or_two(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-fixture.json"
    path.write_text(text, encoding="utf-8")
    assert main(["ring", "check", "--fixture", str(path)]) in (0, 2)
