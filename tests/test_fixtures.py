import json
import random
import time

import pytest

from reference import is_representation_by_pairs
from matlislab.cli import main
from matlislab.errors import (
    FixtureParseError,
    FixtureValidationError,
    NotARepresentation,
    UnknownModuleRef,
)
from matlislab.algebra import MAX_ALGEBRA_DIM, actions_from_variables
from matlislab.fixtures import (
    MAX_ACTION_ROWS,
    MAX_MODULE_DIM,
    MAX_MONOMIALS,
    MAX_RELATION_ROWS,
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


@pytest.mark.parametrize(
    "changes",
    [
        # C(1 + N, 1) = N + 1 monomials in one variable
        {"nilpotency": MAX_MONOMIALS},
        {"nilpotency": 10**18},
        {"vars": ["v%d" % i for i in range(400)], "relations": [], "ideal": [],
         "nilpotency": 10**18},
        # C(n + 1, n) = n + 1 monomials at nilpotency 1
        {"vars": ["v%d" % i for i in range(999)], "relations": [], "ideal": [],
         "nilpotency": 1},
        # 3 relations times the N = 100 monomials of degree below N
        {"relations": [[[1, 1, [3]]]] * 3, "nilpotency": 100},
        # k[x]/(x^33) passes the monomial limit; its algebra is too large
        {"relations": [[[1, 1, [MAX_ALGEBRA_DIM + 1]]]], "nilpotency": MAX_ALGEBRA_DIM + 1},
        {"modules": {"M": {"type": "explicit", "dim": MAX_MODULE_DIM + 1}}},
        {"modules": {"M": {"type": "explicit", "dim": 10**12, "actions": {}}}},
        # over k[x]/(x^4) the action matrices of dim d stack to 4d rows
        {"relations": [[[1, 1, [4]]]], "nilpotency": 4,
         "modules": {"M": {"type": "explicit", "dim": MAX_ACTION_ROWS // 4 + 1}}},
        # R3 has dimension 3, so R^43 has dimension 129
        {"modules": {"M": {"type": "presentation", "rank": MAX_MODULE_DIM // 3 + 1,
                           "columns": []}}},
        {"modules": {"M": {"type": "presentation", "rank": 10**12, "columns": []}}},
    ],
)
def test_oversized_input_is_rejected_before_building(tmp_path, changes):
    doc = dict(R3_DOC, **changes)
    t0 = time.perf_counter()
    with pytest.raises(FixtureValidationError) as e:
        fixture_from_dict(doc)
    assert time.perf_counter() - t0 < 0.5
    assert ">" in str(e.value) or "more than" in str(e.value)
    p = tmp_path / "big.json"
    p.write_text(json.dumps(doc))
    assert main(["ring", "check", "--fixture", str(p)]) == 2


def _built_in_time(doc):
    t0 = time.perf_counter()
    fx = fixture_from_dict(doc)
    assert time.perf_counter() - t0 < 5
    return fx


def test_inputs_at_the_size_limits_are_accepted():
    N = MAX_MONOMIALS - 1
    assert _built_in_time(dict(R3_DOC, nilpotency=N)).algebra.dim == 3
    # banded relations: elimination fills in every earlier pivot row
    x_is_x2 = [[1, 1, [1]], [-1, 1, [2]]]
    assert _built_in_time(dict(R3_DOC, relations=[x_is_x2], ideal=[], nilpotency=N)).algebra.dim == 1
    two = [x_is_x2, [[2, 1, [1]], [-1, 1, [3]]]]
    assert 2 * N <= MAX_RELATION_ROWS
    assert _built_in_time(dict(R3_DOC, relations=two, ideal=[], nilpotency=N)).algebra.dim == 1
    assert _built_in_time(dict(
        R3_DOC, relations=[[[1, 1, [MAX_ALGEBRA_DIM]]]], nilpotency=MAX_ALGEBRA_DIM
    )).algebra.dim == MAX_ALGEBRA_DIM
    dim = min(MAX_MODULE_DIM, MAX_ACTION_ROWS // 3)
    fx = _built_in_time(dict(R3_DOC, modules={
        "X": {"type": "explicit", "dim": dim},
        "P": {"type": "presentation", "rank": MAX_MODULE_DIM // 3, "columns": []},
    }))
    assert fx.module("X").dim == dim
    assert fx.module("P").dim == 3 * (MAX_MODULE_DIM // 3)
    # as many variables as the monomial limit allows, each one zero
    nvars = MAX_MONOMIALS - 1
    fx = _built_in_time({
        "field": "Q", "vars": ["v%d" % i for i in range(nvars)],
        "relations": [[[1, 1, [int(i == j) for j in range(nvars)]]] for i in range(nvars)],
        "nilpotency": 1, "modules": {"X": {"type": "explicit", "dim": MAX_MODULE_DIM}},
    })
    assert fx.algebra.dim == 1 and fx.module("X").dim == MAX_MODULE_DIM


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


KXY_DOC = dict(R3_DOC, name="KXY", vars=["x", "y"],
               relations=[[[1, 1, [2, 0]]], [[1, 1, [0, 2]]]], ideal=[])
# k[y]/(y^4) with x = y^2; the basis is 1, y, x, xy
X_IS_Y2_DOC = dict(KXY_DOC, name="x=y^2",
                   relations=[[[1, 1, [1, 0]], [-1, 1, [0, 2]]], [[1, 1, [0, 4]]]],
                   nilpotency=4)
# k[y]/(y^2) with x = y; x is not a basis monomial
X_IS_Y_DOC = dict(KXY_DOC, name="x=y", relations=[[[1, 1, [1, 0]], [-1, 1, [0, 1]]],
                                                  [[1, 1, [0, 2]]]], nilpotency=2)


def test_explicit_module_invalid_representation():
    cases = [
        # x acts with x^3 != 0 on a 1-dim space: scalar 1 has cube 1 != 0
        (R3_DOC, {"x": [[1]]}, "x times the action of x^2 breaks the representation law"),
        # x^2 = y^2 = 0, but xy != yx
        (KXY_DOC, {"x": [[0, 0], [1, 0]], "y": [[0, 1], [0, 0]]},
         "x times the action of y breaks the representation law"),
        # y^2 = 0 is not the declared x
        (X_IS_Y2_DOC, {"x": [[0, 0], [1, 0]], "y": [[0, 0], [1, 0]]},
         "y times the action of y breaks the representation law"),
        # x = y, but the declared x is not the declared y
        (X_IS_Y_DOC, {"x": [[0, 0], [1, 0]], "y": [[0, 0], [2, 0]]},
         "action of x disagrees with its normal form"),
    ]
    for doc, actions, message in cases:
        doc = dict(doc, modules={"M": {"type": "explicit", "dim": len(actions["x"]),
                                       "actions": actions}})
        with pytest.raises(FixtureValidationError) as e:
            fixture_from_dict(doc)
        assert str(e.value) == "module 'M': " + message


def test_explicit_module_certificate_matches_pairwise_law(fixtures):
    """On random strictly lower-triangular variable matrices, the library's
    certificate accepts exactly what the pairwise representation law and
    the normal-form agreement accept."""
    algebras = [fixtures[name].algebra for name in ("R3", "R4", "KXY", "V2")] + [
        fixture_from_dict(doc).algebra
        for doc in (dict(R3_DOC, relations=[[[1, 1, [8]]]], nilpotency=8),
                    dict(KXY_DOC, relations=[[[1, 1, [2, 0]]], [[1, 1, [0, 3]]]], nilpotency=4),
                    X_IS_Y2_DOC, X_IS_Y_DOC)
    ]
    verdicts = {True: 0, False: 0}
    for seed, A in enumerate(algebras):
        rng = random.Random(seed)
        f = A.field
        for _ in range(60):
            n = rng.randint(1, 3)
            var_mats = [
                tuple(tuple(f.of(rng.choice((0, 0, 0, 1, -1, 2))) if c < r else f.zero
                            for c in range(n)) for r in range(n))
                for _ in A.variables
            ]
            try:
                actions_from_variables(A, var_mats)
                accepted = True
            except NotARepresentation:
                accepted = False
            assert accepted == is_representation_by_pairs(A, var_mats)
            verdicts[accepted] += 1
    assert verdicts[True] and verdicts[False]


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
