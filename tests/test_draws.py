"""The seeded draws: fused scalar loops, interned modules, pinned streams.

randmod draws each vector of scalars in one loop and keeps each drawn
module once per value, in the algebra's _module_memo through
algebra.derived, until run_suite ends the suite; the suites keep the
quotients and direct sums that they build from drawn values there too,
under ("quotient", U) and ("sum", M, N).  These tests hold the draws to the
per-scalar route of tests/reference.py bit for bit, the interned modules
to an uncached cokernel, the builds of the closure and satz22 draws to
one per drawn value, and the drawn values of each shipped fixture and the
two verify-dim10 digests to their pinned values.
"""

import collections
import hashlib

import pytest

from reference import (
    per_scalar_draws,
    per_scalar_ideal_generators,
    per_scalar_presentation,
    per_scalar_submodule_vectors,
)
from matlislab import suites
from matlislab.algebra import ideal_from_generators
from matlislab.fields import QQ, PrimeField
from matlislab.fixtures import fixture_from_dict
from matlislab.modules import cokernel_of_presentation, generated_submodule
from matlislab.randmod import Lcg, _vectors, random_ideal, random_module, random_submodule
from matlislab.report import Report
from matlislab.suites import run_suite

from conftest import EXTRA_DOCS, FIXTURE_NAMES, load

DRAW_CASES = FIXTURE_NAMES + ["dim10-Q", "dim10-F101"]


def typed(x):
    """x with every scalar paired with its type."""
    if isinstance(x, (tuple, list)):
        return tuple(typed(y) for y in x)
    return (type(x), x)


def test_lcg_stream_is_pinned():
    # values of Lcg(seed).randint(n) for n = 2, 5, 101, 2^31, 1 in turn,
    # and the state after them
    pinned = {
        0: ([0, 3, 58, 1986924557, 0], 1182729975619806813),
        1: ([0, 1, 71, 2095050313, 0], 6542617854620281148),
        2**40: ([0, 1, 89, 2128595725, 0], 14928524179400975965),
    }
    for seed, (values, state) in pinned.items():
        rng = Lcg(seed)
        assert [rng.randint(n) for n in (2, 5, 101, 2**31, 1)] == values
        assert rng.state == state


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5), PrimeField(101)],
                         ids=lambda field: field.name)
def test_fused_draw_matches_the_per_scalar_route(field):
    for seed in range(6):
        fused, single = Lcg(seed), Lcg(seed)
        for count, length in ((1, 7), (3, 4), (2, 0), (0, 5), (5, 20)):
            got = _vectors(field, fused, count, length)
            want = [per_scalar_draws(field, single, length) for _ in range(count)]
            assert typed(got) == typed(want), (seed, count, length)
            assert fused.state == single.state


def _f2_fixture():
    """F_2[x,y]/(x,y)^3 with I = (x)."""
    return fixture_from_dict({
        "name": "F2", "field": "Fp:2", "vars": ["x", "y"],
        "relations": [[[1, 1, [a, 3 - a]]] for a in range(4)],
        "nilpotency": 3, "ideal": [[[1, 1, [1, 0]]]],
    })


@pytest.mark.parametrize("name", ["R3", "R4", "dim10-F101", "F2"])
def test_random_ideal_and_submodule_match_the_per_scalar_route(name):
    fx = _f2_fixture() if name == "F2" else load(name)
    A = fx.algebra
    fused, single = Lcg(5), Lcg(5)
    for _ in range(4):
        got = random_ideal(A, fused)
        want = ideal_from_generators(A, per_scalar_ideal_generators(A, single))
        assert typed(got.basis_matrix) == typed(want.basis_matrix)
        assert fused.state == single.state
    for M in (fx.module("regular"), fx.module("E"), fx.ctx.I_mod):
        for _ in range(4):
            got = random_submodule(M, fused)
            want = generated_submodule(M, per_scalar_submodule_vectors(M, single))
            assert typed(got.basis_matrix) == typed(want.basis_matrix)
            assert fused.state == single.state


@pytest.mark.parametrize("name", DRAW_CASES)
def test_interned_draw_equals_the_uncached_cokernel(name):
    A = load(name).algebra
    fused, single = Lcg(3), Lcg(3)
    for _ in range(12):
        M = random_module(A, fused)
        t, cols = per_scalar_presentation(A, single)
        want = cokernel_of_presentation(A, t, cols)
        assert M.dim == want.dim and typed(M.actions) == typed(want.actions)
        assert fused.state == single.state


def test_repeated_value_is_one_object():
    A = load("R3").algebra
    rng = Lcg(11)
    by_value = {}
    draws = [random_module(A, rng) for _ in range(40)]
    for M in draws:
        assert by_value.setdefault(M.actions, M) is M
    assert len(by_value) < len(draws)


def test_repeated_value_within_a_suite_is_one_object(monkeypatch):
    fx = load("KXY")
    drawn = []
    draw = suites.random_module

    def recording_draw(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(suites, "random_module", recording_draw)
    run_suite(fx, "lemma11", trials=60)
    by_value = {}
    for M in drawn:
        assert by_value.setdefault(M.actions, M) is M
    assert len(by_value) < len(drawn)
    # the suite has ended: the same draws now build new objects
    assert fx.algebra._module_memo == {}
    rng = Lcg((fx.seed << 8) + 0)
    assert random_module(fx.algebra, rng) is not drawn[0]


@pytest.mark.parametrize("suite", ["closure", "satz22"])
def test_drawn_quotients_and_sums_are_built_once_per_value(monkeypatch, suite):
    """The draws of a suite build the quotient of I or I^j by a drawn
    submodule U once per value of U, and closure builds the direct sum of
    its drawn M and N once per value of (M, N): a repeated draw returns
    the same object, and nothing is kept after the suite."""
    drawing, builds, kept = [], collections.Counter(), []

    def counted(name):
        original = getattr(suites, name)

        def wrapper(*args):
            builds[name] += bool(drawing)
            return original(*args)

        monkeypatch.setattr(suites, name, wrapper)

    counted("quotient_module")
    counted("direct_sum")
    keep = suites.derived

    def recording_keep(memo, key, build):
        # the verdicts of the trials go through derived too
        kept.append((key, keep(memo, key, build)))
        return kept[-1][1]

    monkeypatch.setattr(suites, "derived", recording_keep)
    trial_loop = suites._trials

    def marking_trials(fx, record, count, draw, verdict):
        def marked_draw():
            drawing.append(record)
            try:
                return draw()
            finally:
                drawing.pop()

        return trial_loop(fx, record, count, marked_draw, verdict)

    monkeypatch.setattr(suites, "_trials", marking_trials)
    for name in FIXTURE_NAMES:
        fx = load(name)
        builds.clear()
        kept.clear()
        run_suite(fx, suite)
        by_key = {}
        for key, M in kept:
            assert by_key.setdefault(key, M) is M
        distinct = collections.Counter(key[0] for key in by_key)
        assert builds["quotient_module"] <= distinct["quotient"]
        assert builds["direct_sum"] <= distinct["sum"]
        assert fx.algebra._module_memo == {}
        # the satz22 draws of KXY, whose ideal fails the epi criterion,
        # are random_module's; every other run repeats some draw
        if not (suite == "satz22" and name == "KXY"):
            assert builds["quotient_module"] < sum(key[0] == "quotient" for key, _ in kept)
        if suite == "closure":
            assert 0 < builds["direct_sum"] < sum(key[0] == "sum" for key, _ in kept)


# sha256 prefixes of the reprs (scalar types included) of the actions of
# the first 50 random_module draws at the fixture's seed, of the echelon
# bases of one random_submodule of each, and of the next 50 random_ideal
# draws: the report digests cannot see which values are drawn
DRAW_PINS = {
    "R3": ("e6cce0f458510008", "22152afd230a6aa0", "28c1bd0b9278bfe8"),
    "R4": ("e6f45fdad2cc552f", "b5bc225473349502", "7d0d6f7e5af91b80"),
    "KXY": ("e168d27d8590b313", "a30c6a80f6fa5741", "4b0d3b14476e828e"),
    "V2": ("150f864f79f58c1e", "143dc23e9cc97818", "4f49282e4674f033"),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_drawn_values_are_pinned(name):
    fx = load(name)
    A = fx.algebra
    rng = Lcg(fx.seed)
    modules = [random_module(A, rng) for _ in range(50)]
    subs = [random_submodule(M, rng) for M in modules]
    ideals = [random_ideal(A, rng) for _ in range(50)]
    got = tuple(
        hashlib.sha256(repr(values).encode()).hexdigest()[:16]
        for values in ([M.actions for M in modules], [U.basis_matrix for U in subs],
                       [I.basis_matrix for I in ideals])
    )
    assert got == DRAW_PINS[name]


# verify-dim10: Q[x,y,z]/(x,y,z)^3, I = (x, y), and its F_101 twin at
# fixture seed 1; five suites at five trials, records joined in suite order
DIM10_DIGESTS = {"dim10-Q": "2763ef4621f8", "dim10-F101": "7b0f9a1e9d89"}
DIM10_SUITES = ("lemma11", "satz22", "satz31", "duality", "closure")


@pytest.mark.parametrize("name", sorted(DIM10_DIGESTS))
def test_dim10_digest(name):
    doc = dict(next(d for d in EXTRA_DOCS if d["name"] == name), seed=1)
    fx = fixture_from_dict(doc, name=name)
    records = []
    for suite in DIM10_SUITES:
        records.extend(run_suite(fx, suite, trials=5).records)
    text = Report("all", name, records).render()
    assert hashlib.sha256(text.encode()).hexdigest()[:12] == DIM10_DIGESTS[name]
