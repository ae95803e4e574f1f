import json
import time

import pytest

from matlislab.cli import main
from matlislab.errors import (
    FixtureParseError,
    FixtureValidationError,
    UnknownModuleRef,
)
from matlislab.fixtures import (
    element_terms,
    fixture_from_dict,
    format_element,
    format_ideal,
    format_submodule,
    parse_fixture,
)

R3_DOC = {
    "name": "R3",
    "field": "Q",
    "vars": ["x"],
    "relations": [[[1, 1, [3]]]],
    "nilpotency": 3,
    "ideal": [[[1, 1, [1]]]],
    "seed": 1,
}


def test_parse_fixture_files(fixtures):
    assert fixtures["R3"].algebra.dim == 3
    assert fixtures["R4"].algebra.dim == 4
    assert fixtures["KXY"].algebra.dim == 4
    assert fixtures["V2"].algebra.dim == 3


def test_default_modules_present(r3):
    for name in ("regular", "k", "E"):
        assert r3.module(name).dim > 0
    with pytest.raises(UnknownModuleRef):
        r3.module("nonexistent")


def test_malformed_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "X",\n  "field": }')
    with pytest.raises(FixtureParseError) as e:
        parse_fixture(str(p))
    assert "line 2" in str(e.value)


def test_malformed_exponent_tuple():
    doc = dict(R3_DOC, relations=[[[1, 1, [3, 0]]]])
    with pytest.raises(FixtureValidationError):
        fixture_from_dict(doc)


def test_degree_zero_relation_term():
    doc = dict(R3_DOC, relations=[[[1, 1, [0]]]])
    with pytest.raises(FixtureValidationError) as e:
        fixture_from_dict(doc)
    assert "residue field" in str(e.value)


def test_missing_key():
    doc = {k: v for k, v in R3_DOC.items() if k != "nilpotency"}
    with pytest.raises(FixtureValidationError):
        fixture_from_dict(doc)


@pytest.mark.parametrize(
    "changes",
    [
        {"nilpotency": "abc"},
        {"nilpotency": 2.5},
        {"nilpotency": True},
        {"seed": "abc"},
        {"seed": None},
        {"modules": {"M": {"type": "presentation", "rank": "one", "columns": []}}},
        {"modules": {"M": {"type": "presentation", "columns": []}}},
        {"modules": {"M": {"type": "presentation", "rank": -1, "columns": []}}},
        {"modules": {"M": {"type": "explicit", "dim": 1.5, "actions": {}}}},
        {"modules": {"M": {"type": "explicit", "dim": -2, "actions": {}}}},
    ],
)
def test_bad_integer_fields_rejected(changes):
    with pytest.raises(FixtureValidationError):
        fixture_from_dict(dict(R3_DOC, **changes))


@pytest.mark.parametrize(
    "changes",
    [
        {"modules": {"M": "regular"}},
        {"modules": ["regular"]},
        {"relations": [[[1, 0, [3]]]]},
        {"ideal": [[[1, 0, [1]]]]},
        {"relations": [[["1", 1, [3]]]]},
        {"relations": [[[1, 1.5, [3]]]]},
        {"relations": [[[1, 1, [3.0]]]]},
        {"ideal": [[[1, 1, [-1]]]]},
        {"modules": {"M": {"type": "explicit", "dim": 1, "actions": {"x": [[[0, 0]]]}}}},
        {"modules": {"M": {"type": "explicit", "dim": 1, "actions": {"x": [[[1, "2"]]]}}}},
        {"modules": {"M": {"type": "quotient", "by": [[[1, "one", [2]]]]}}},
        {"vars": "x"},
        {"vars": [1]},
    ],
)
def test_malformed_input_is_validation_error(tmp_path, changes):
    doc = dict(R3_DOC, **changes)
    with pytest.raises(FixtureValidationError):
        fixture_from_dict(doc)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["ring", "check", "--fixture", str(p)]) == 2


def test_huge_exponent_reduces_without_iterating():
    # x^(10^9) is zero in k[x]/(x^3); reaching that must not take 10^9 steps
    huge = [[1, 1, [10**9]]]
    doc = dict(R3_DOC, ideal=[huge, [[1, 1, [2]]]],
               modules={"M": {"type": "quotient", "by": [huge]}})
    t0 = time.perf_counter()
    fx = fixture_from_dict(doc)
    assert time.perf_counter() - t0 < 1.0
    assert format_ideal(fx.ideal) == "(x^2)"
    assert fx.ideal.basis_matrix == ((0, 0, 1),)
    assert fx.module("M").dim == 3


def test_unknown_module_type():
    doc = dict(R3_DOC, modules={"M": {"type": "mystery"}})
    with pytest.raises(FixtureValidationError):
        fixture_from_dict(doc)


def test_explicit_module_spec():
    doc = dict(
        R3_DOC,
        modules={
            "M": {
                "type": "explicit",
                "dim": 2,
                "actions": {"x": [[0, 0], [1, 0]]},
            }
        },
    )
    fx = fixture_from_dict(doc)
    M = fx.module("M")
    assert M.dim == 2
    x = fx.algebra.var_elements[0]
    assert M.action_of(x)[1][0] == 1


def test_explicit_module_invalid_representation():
    # x acts with x^3 != 0 on a 1-dim space: scalar 1 has cube 1 != 0
    doc = dict(
        R3_DOC,
        modules={"M": {"type": "explicit", "dim": 1, "actions": {"x": [[1]]}}},
    )
    with pytest.raises(FixtureValidationError):
        fixture_from_dict(doc)


def test_presentation_module_spec(r3):
    doc = dict(
        R3_DOC,
        modules={
            "M": {
                "type": "presentation",
                "rank": 1,
                "columns": [[[[1, 1, [2]]]]],
            }
        },
    )
    fx = fixture_from_dict(doc)
    assert fx.module("M").dim == 2


def test_serialization_round_trip(r3):
    A = r3.algebra
    e = A.element_from_terms([(A.field.of(3, 2), (1,)), (A.field.of(-1), (2,))])
    assert format_element(A, e) == "3/2*x + -1*x^2"
    terms = element_terms(A, e)
    assert A.element_from_terms(
        [(A.field.of(n, d), tuple(x)) for n, d, x in terms]
    ) == e


def test_format_ideal_and_submodule(r3):
    assert format_ideal(r3.ideal) == "(x, x^2)"
    from matlislab.modules import regular_module, socle

    R = regular_module(r3.algebra)
    assert format_submodule(socle(R)) == "span{[0, 0, 1]}"
    assert format_submodule(R.zero_submodule()) == "span{}"


def test_fixture_determinism(r3):
    from matlislab.suites import run_suite

    a = run_suite(r3, "all", trials=3).render()
    b = run_suite(r3, "all", trials=3).render()
    assert a == b
