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
F_p); actions of the other basis monomials are derived from the variable
actions and verified against the representation law.
"""

import json
from fractions import Fraction

from .algebra import Presentation, build_algebra, ideal_from_generators
from .classes import ClassContext
from .duality import injective_cogenerator
from .errors import (
    FixtureParseError,
    FixtureValidationError,
    UnknownModuleRef,
)
from .fields import field_from_spec
from .modules import (
    FModule,
    cokernel_of_presentation,
    quotient_module,
    regular_module,
    residue_field_module,
    generated_submodule,
)
from . import linalg


class Fixture:
    def __init__(self, name, algebra, ideal, modules, seed):
        self.name = name
        self.algebra = algebra
        self.ideal = ideal
        self.modules = modules
        self.seed = seed
        self._ctx = None

    @property
    def ctx(self):
        if self._ctx is None:
            self._ctx = ClassContext(self.algebra, self.ideal)
        return self._ctx

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
    for i, rel in enumerate(relations):
        for coeff, exps in rel:
            if sum(exps) < 1 and coeff != field.zero:
                raise FixtureValidationError(
                    "relation %d has a degree-0 term: residue field must equal "
                    "the coefficient field" % i
                )
    pres = Presentation(
        field, variables, relations, _integer(doc["nilpotency"], "nilpotency")
    )
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
        R = regular_module(A)
        sub = generated_submodule(R, gens)
        return quotient_module(R, sub)[0]
    if kind == "presentation":
        rank = _integer(spec.get("rank"), "%s: rank" % where, minimum=0)
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
        return cokernel_of_presentation(A, rank, cols)[0]
    if kind == "explicit":
        dim = _integer(spec.get("dim"), "%s: dim" % where, minimum=0)
        var_mats = {}
        for vname, mat in _json(spec.get("actions", {}), dict, "%s: actions" % where).items():
            if vname not in A.variables:
                raise FixtureValidationError("%s: unknown variable %r" % (where, vname))
            mat = _json(mat, list, "%s: action of %s" % (where, vname))
            if len(mat) != dim or any(
                len(_json(r, list, "%s: action row" % where)) != dim for r in mat
            ):
                raise FixtureValidationError("%s: action matrix must be %dx%d" % (where, dim, dim))
            var_mats[vname] = tuple(
                tuple(_scalar(field, x, where) for x in row) for row in mat
            )
        for vname in A.variables:
            var_mats.setdefault(vname, linalg.zeros(dim, dim, field))
        # derive actions of all basis monomials from the variable matrices
        actions = []
        for exps in A.basis:
            mat = linalg.identity(dim, field)
            for vi, e in enumerate(exps):
                vm = var_mats[A.variables[vi]]
                for _ in range(e):
                    mat = linalg.mat_mul(vm, mat, field)
            actions.append(mat)
        try:
            M = FModule(A, actions, check=True)
        except Exception as exc:
            raise FixtureValidationError("%s: %s" % (where, exc))
        # declared variable matrices must agree with the reduced variables
        for vi, vname in enumerate(A.variables):
            if M.action_of(A.var_elements[vi]) != var_mats[vname]:
                raise FixtureValidationError(
                    "%s: action of %s disagrees with its normal form" % (where, vname)
                )
        return M
    raise FixtureValidationError("%s: unknown module spec type %r" % (where, kind))


def parse_fixture(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FixtureParseError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        )
    except OSError as exc:
        raise FixtureParseError("%s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise FixtureParseError("%s: fixture must be a JSON object" % path)
    return fixture_from_dict(doc, name=str(path))


# --- canonical text serialization -----------------------------------------


def format_scalar(field, x):
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    return str(x)


def format_element(A, vec):
    """A ring element as a sum of monomial terms, graded-lex order."""
    f = A.field
    parts = []
    for i, c in enumerate(vec):
        if c == f.zero:
            continue
        mono = _format_monomial(A, A.basis[i])
        s = format_scalar(f, c)
        if mono == "1":
            parts.append(s)
        elif s == "1":
            parts.append(mono)
        else:
            parts.append("%s*%s" % (s, mono))
    return " + ".join(parts) if parts else "0"


def _format_monomial(A, exps):
    if sum(exps) == 0:
        return "1"
    out = []
    for name, e in zip(A.variables, exps):
        if e == 1:
            out.append(name)
        elif e > 1:
            out.append("%s^%d" % (name, e))
    return "*".join(out)


def element_terms(A, vec):
    """A ring element as a JSON-compatible term list."""
    f = A.field
    terms = []
    for i, c in enumerate(vec):
        if c == f.zero:
            continue
        if isinstance(c, Fraction):
            terms.append([c.numerator, c.denominator, list(A.basis[i])])
        else:
            terms.append([int(c), 1, list(A.basis[i])])
    return terms


def format_ideal(I):
    A = I.parent
    if I.dim == 0:
        return "(0)"
    return "(" + ", ".join(format_element(A, r) for r in I.basis_matrix) + ")"


def format_vector(field, vec):
    return "[" + ", ".join(format_scalar(field, x) for x in vec) + "]"


def format_submodule(U):
    """Canonical basis rows of a submodule, one bracketed row each."""
    f = U.ambient.parent.field
    if U.dim == 0:
        return "span{}"
    return "span{" + "; ".join(format_vector(f, r) for r in U.basis_matrix) + "}"
