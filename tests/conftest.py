import itertools
import pathlib

import pytest

from matlislab.fixtures import fixture_from_dict, parse_fixture

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE_DIR = ROOT / "fixtures"

FIXTURE_NAMES = ["R3", "R4", "KXY", "V2"]


def _cubes(nvars):
    """Every monomial of degree 3 in nvars variables, as relations."""
    return [[[1, 1, list(e)]] for e in itertools.product(range(4), repeat=nvars) if sum(e) == 3]


def _dim10_doc(name, field):
    return {"name": name, "field": field, "vars": ["x", "y", "z"],
            "relations": _cubes(3), "nilpotency": 3,
            "ideal": [[[1, 1, [1, 0, 0]]], [[1, 1, [0, 1, 0]]]], "seed": 3}


# Two non-monomial Q algebras with Fraction structure constants.  In
# QXY-half, x*x = y^2/2 is one scaled basis element; in QXY-sums, x*x =
# xy/2 + y^2/3 has two terms.
EXTRA_DOCS = [
    _dim10_doc("dim10-Q", "Q"),
    _dim10_doc("dim10-F101", "Fp:101"),
    {"name": "QXY-half", "field": "Q", "vars": ["x", "y"],
     "relations": [[[1, 1, [2, 0]], [-1, 2, [0, 2]]], [[1, 1, [1, 1]]], [[1, 1, [0, 3]]]],
     "nilpotency": 3, "ideal": [[[1, 1, [1, 0]]]], "seed": 5},
    {"name": "QXY-sums", "field": "Q", "vars": ["x", "y"],
     "relations": [[[1, 1, [2, 0]], [-1, 2, [1, 1]], [-1, 3, [0, 2]]]] + _cubes(2),
     "nilpotency": 3, "ideal": [[[1, 1, [1, 0]]]], "seed": 5,
     "modules": {"R-mod-g": {"type": "quotient", "by": [[[1, 1, [1, 0]], [1, 2, [0, 2]]]]}}},
]


def load(name):
    """A freshly parsed fixture, shipped or from EXTRA_DOCS, so that
    nothing is memoized on its algebra."""
    if name not in FIXTURE_NAMES:
        doc = next(d for d in EXTRA_DOCS if d["name"] == name)
        return fixture_from_dict(doc, name=name)
    return parse_fixture(str(FIXTURE_DIR / (name + ".json")))


@pytest.fixture(scope="session")
def fixtures():
    return {name: load(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def extra_fixtures():
    """The dim-10 algebras k[x,y,z]/(x,y,z)^3 over Q and F_101, and the
    non-monomial Q algebras."""
    return {doc["name"]: fixture_from_dict(doc, name=doc["name"]) for doc in EXTRA_DOCS}


@pytest.fixture(scope="session")
def r3(fixtures):
    return fixtures["R3"]


@pytest.fixture(scope="session")
def r4(fixtures):
    return fixtures["R4"]


@pytest.fixture(scope="session")
def kxy(fixtures):
    return fixtures["KXY"]


@pytest.fixture(scope="session")
def v2(fixtures):
    return fixtures["V2"]
