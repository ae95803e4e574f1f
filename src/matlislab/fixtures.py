"""Fixture files: presentations, ideals and named modules, plus the
canonical text serialization used by reports and the CLI.

A fixture is a JSON document:

    {
      "name": "R3",
      "field": "Q",                     // or "Fp:<p>"
      "vars": ["x"],
      "relations": [[[1, 1, [3]]]],     // term = [num, den, exponents]
      "nilpotency": 3,
      "ideal": [[[1, 1, [1]]]],         // generators, each a term list
      "seed": 1,
      "modules": { "name": <module spec>, ... }
    }

Module specs: {"type": "regular"}, {"type": "residue-field"},
{"type": "injective"}, {"type": "quotient", "by": [element, ...]},
{"type": "presentation", "rank": t, "columns": [[element, ...], ...]},
{"type": "explicit", "dim": d, "actions": {"x": matrix, ...}} with one
row-major matrix per variable (entries [num, den] over Q, residues over
F_p); algebra.actions_from_variables derives the actions of the other
basis monomials from them and certifies the representation law.

Size limits; a larger input raises FixtureValidationError before the
matrices it asks for are built.  Each is computed from the numbers of
the document:

- the truncation k[x_1..x_n] / m^(N+1) has at most ``MAX_MONOMIALS``
  monomials, C(n + N, n) for n variables and nilpotency bound N;
- the relation system has at most ``MAX_RELATION_ROWS`` rows, one for
  each relation and monomial of degree below N;
- the algebra has at most ``algebra.MAX_ALGEBRA_DIM`` basis monomials,
  counted on the basis before its multiplication table is built;
- an explicit module's ``dim``, and the dimension rank * dim(R) of a
  presentation's free module R^rank, are at most ``MAX_MODULE_DIM``;
- an explicit module's dim(R) action matrices, stacked, have at most
  ``MAX_ACTION_ROWS`` rows: certifying the representation law takes at
  most (dim(R) - 1)^2 products of dim x dim matrices.

With coefficients of one digit, a fixture at these limits builds in at
most about 5 s: two dense relations in x at N = 127 take 5 s, one 2.3 s,
and a dense explicit module of dimension 128 over k[x]/(x^3) 0.3 s.
Exact elimination grows with the size of the coefficients too, which
no limit bounds: one dense relation in x at N = 127 with 20-digit
coefficients takes about 100 s.  The largest shipped or benchmark
fixture, k[x,y,z]/(x,y,z)^3, has 20 monomials, 100 relation rows and an
algebra of dimension 10.
"""

import json

from .algebra import (
    Presentation,
    actions_from_variables,
    build_algebra,
    format_monomial,
    ideal_from_generators,
)
from .classes import class_context
from .duality import injective_cogenerator
from .errors import (
    FixtureParseError,
    FixtureValidationError,
    MatlisLabError,
    UnknownModuleRef,
)
from .fields import field_from_spec
from .modules import (
    FModule,
    cokernel_of_presentation,
    regular_module,
    residue_field_module,
)
from . import linalg

MAX_MONOMIALS = 128
MAX_RELATION_ROWS = 256
MAX_MODULE_DIM = 128
MAX_ACTION_ROWS = 384


class Fixture:
    def __init__(self, name, algebra, ideal, modules, seed):
        self.name = name
        self.algebra = algebra
        self.ideal = ideal
        self.modules = modules
        self.seed = seed

    @property
    def ctx(self):
        return class_context(self.algebra, self.ideal)

    def module(self, name):
        if name not in self.modules:
            raise UnknownModuleRef(
                "module %r not in fixture %s (have: %s)"
                % (name, self.name, ", ".join(sorted(self.modules)))
            )
        return self.modules[name]


def _term_list(field, raw, nvars, where):
    terms = []
    for t in _json(raw, list, where):
        if not (isinstance(t, list) and len(t) == 3):
            raise FixtureValidationError(
                "%s: term must be [num, den, exponents], got %r" % (where, t)
            )
        num, den, exps = t
        if not isinstance(exps, list) or len(exps) != nvars:
            raise FixtureValidationError(
                "%s: exponent tuple %r does not have %d entries" % (where, exps, nvars)
            )
        for e in exps:
            _integer(e, "%s: exponent" % where, minimum=0)
        terms.append((_fraction(field, num, den, where), tuple(exps)))
    return terms


def _fraction(field, num, den, where):
    _integer(num, "%s: numerator" % where)
    if _integer(den, "%s: denominator" % where) == 0:
        raise FixtureValidationError("%s: denominator is 0" % where)
    return field.of(num, den)


def _scalar(field, raw, where):
    if isinstance(raw, list):
        if len(raw) != 2:
            raise FixtureValidationError("%s: scalar must be [num, den]" % where)
        return _fraction(field, raw[0], raw[1], where)
    return field.of(_integer(raw, "%s: scalar" % where))


def _integer(raw, where, minimum=None):
    """A JSON integer field; booleans, floats and strings are rejected."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise FixtureValidationError("%s must be an integer, got %r" % (where, raw))
    if minimum is not None and raw < minimum:
        raise FixtureValidationError("%s must be >= %d, got %d" % (where, minimum, raw))
    return raw


def _json(raw, kind, where):
    """A JSON array (kind list) or object (kind dict); anything else is rejected."""
    if not isinstance(raw, kind):
        name = "an array" if kind is list else "an object"
        raise FixtureValidationError("%s must be %s, got %r" % (where, name, raw))
    return raw


def _monomial_count(nvars, bound, cap):
    """C(nvars + bound, nvars), the number of monomials of degree at most
    ``bound`` in ``nvars`` variables, or ``cap + 1`` once it passes ``cap``."""
    count = 1
    for k in range(1, nvars + 1):
        count = count * (bound + k) // k  # C(bound + k, k)
        if count > cap:
            return cap + 1
    return count


def fixture_from_dict(doc, name="<fixture>"):
    for key in ("field", "vars", "relations", "nilpotency"):
        if key not in doc:
            raise FixtureValidationError("missing fixture key %r" % key)
    field = field_from_spec(doc["field"])
    variables = _json(doc["vars"], list, "vars")
    if not all(isinstance(v, str) for v in variables):
        raise FixtureValidationError("vars must be a list of strings, got %r" % (variables,))
    nvars = len(variables)
    relations = [
        _term_list(field, rel, nvars, "relation %d" % i)
        for i, rel in enumerate(_json(doc["relations"], list, "relations"))
    ]
    nilpotency = _integer(doc["nilpotency"], "nilpotency")
    if nilpotency >= 1:
        if _monomial_count(nvars, nilpotency, MAX_MONOMIALS) > MAX_MONOMIALS:
            raise FixtureValidationError(
                "nilpotency %d in %d variables gives more than %d monomials"
                % (nilpotency, nvars, MAX_MONOMIALS)
            )
        rows = len(relations) * _monomial_count(nvars, nilpotency - 1, MAX_MONOMIALS)
        if rows > MAX_RELATION_ROWS:
            raise FixtureValidationError(
                "%d relations at nilpotency %d give %d relation rows > %d"
                % (len(relations), nilpotency, rows, MAX_RELATION_ROWS)
            )
    pres = Presentation(field, variables, relations, nilpotency)
    algebra = build_algebra(pres)

    gens = [
        algebra.element_from_terms(_term_list(field, g, nvars, "ideal generator %d" % i))
        for i, g in enumerate(_json(doc.get("ideal", []), list, "ideal"))
    ]
    ideal = ideal_from_generators(algebra, gens)

    modules = {}
    for mname, spec in _json(doc.get("modules", {}), dict, "modules").items():
        modules[mname] = _build_module(algebra, field, nvars, mname, spec)
    modules.setdefault("regular", regular_module(algebra))
    modules.setdefault("k", residue_field_module(algebra))
    modules.setdefault("E", injective_cogenerator(algebra))

    seed = _integer(doc.get("seed", 1), "seed")
    return Fixture(doc.get("name", name), algebra, ideal, modules, seed)


def _build_module(A, field, nvars, mname, spec):
    where = "module %r" % mname
    kind = _json(spec, dict, where).get("type")
    if kind == "regular":
        return regular_module(A)
    if kind == "residue-field":
        return residue_field_module(A)
    if kind == "injective":
        return injective_cogenerator(A)
    if kind == "quotient":
        gens = [
            A.element_from_terms(_term_list(field, g, nvars, where))
            for g in _json(spec.get("by", []), list, "%s: by" % where)
        ]
        return cokernel_of_presentation(A, 1, gens)
    if kind == "presentation":
        rank = _integer(spec.get("rank"), "%s: rank" % where, minimum=0)
        if rank * A.dim > MAX_MODULE_DIM:
            raise FixtureValidationError(
                "%s: rank %d gives a free module of dimension %d > %d"
                % (where, rank, rank * A.dim, MAX_MODULE_DIM)
            )
        cols = []
        for col in _json(spec.get("columns", []), list, "%s: columns" % where):
            if len(_json(col, list, "%s: column" % where)) != rank:
                raise FixtureValidationError(
                    "%s: presentation column needs %d entries" % (where, rank)
                )
            vec = []
            for entry in col:
                vec.extend(A.element_from_terms(_term_list(field, entry, nvars, where)))
            cols.append(tuple(vec))
        return cokernel_of_presentation(A, rank, cols)
    if kind == "explicit":
        dim = _integer(spec.get("dim"), "%s: dim" % where, minimum=0)
        if dim > MAX_MODULE_DIM:
            raise FixtureValidationError(
                "%s: dim %d > %d" % (where, dim, MAX_MODULE_DIM)
            )
        if A.dim * dim > MAX_ACTION_ROWS:
            raise FixtureValidationError(
                "%s: %d action matrices of dim %d have %d rows > %d"
                % (where, A.dim, dim, A.dim * dim, MAX_ACTION_ROWS)
            )
        var_mats = {}
        for vname, mat in _json(spec.get("actions", {}), dict, "%s: actions" % where).items():
            if vname not in A.variables:
                raise FixtureValidationError("%s: unknown variable %r" % (where, vname))
            mat = _json(mat, list, "%s: action of %s" % (where, vname))
            if len(mat) != dim or any(
                len(_json(r, list, "%s: action row" % where)) != dim for r in mat
            ):
                raise FixtureValidationError("%s: action matrix must be %dx%d" % (where, dim, dim))
            var_mats[vname] = tuple(tuple(_scalar(field, x, where) for x in row) for row in mat)
        mats = [var_mats.get(v, linalg.zeros(dim, dim, field)) for v in A.variables]
        try:
            return FModule(A, actions_from_variables(A, mats))
        except MatlisLabError as exc:
            raise FixtureValidationError("%s: %s" % (where, exc))
    raise FixtureValidationError("%s: unknown module spec type %r" % (where, kind))


def parse_fixture(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FixtureParseError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        )
    except UnicodeDecodeError as exc:
        raise FixtureParseError("%s: not UTF-8: %s" % (path, exc))
    except OSError as exc:
        raise FixtureParseError("%s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise FixtureParseError("%s: fixture must be a JSON object" % path)
    return fixture_from_dict(doc, name=str(path))


# --- canonical text serialization -----------------------------------------


def format_element(A, vec):
    """A ring element as a sum of monomial terms, graded-lex order."""
    parts = []
    for i, c in enumerate(vec):
        if not c:
            continue
        mono = format_monomial(A, A.basis[i])
        s = str(c)
        if mono == "1":
            parts.append(s)
        elif s == "1":
            parts.append(mono)
        else:
            parts.append("%s*%s" % (s, mono))
    return " + ".join(parts) if parts else "0"


def element_terms(A, vec):
    """A ring element as a JSON-compatible term list."""
    terms = []
    for i, c in enumerate(vec):
        if c:
            terms.append([c.numerator, c.denominator, list(A.basis[i])])
    return terms


def format_ideal(I):
    A = I.parent
    if I.dim == 0:
        return "(0)"
    return "(" + ", ".join(format_element(A, r) for r in I.basis_matrix) + ")"


def format_vector(vec):
    return "[" + ", ".join(map(str, vec)) + "]"


def format_submodule(U):
    """Canonical basis rows of a submodule, one bracketed row each."""
    if U.dim == 0:
        return "span{}"
    return "span{" + "; ".join(format_vector(r) for r in U.basis_matrix) + "}"
