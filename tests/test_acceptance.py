"""Acceptance criteria: nine property batches at exact (zero) tolerance.

Each test prints one line ``ACCEPTANCE <n> <name> PASS`` on success and
asserts its runtime budget; any mismatch fails the assertion carrying the
offending data.
"""

import time

import pytest

from reference import (
    embed_into_injective,
    image_in_quotient,
    is_short_exact,
    lower_star,
    multiply,
    upper_star,
    zero_ideal,
)
from matlislab.algebra import (
    Presentation,
    build_algebra,
    ideal_from_generators,
    unit_ideal,
)
from matlislab.classes import (
    ClassContext,
    epi_onto_r_mod_ann_exists,
    gamma,
    is_p_member,
    is_s_member,
    kappa,
    submodule_counterexample,
    uniserial_duality,
    uniserial_s,
)
from matlislab.duality import evaluation_map, matlis_dual
from matlislab.ext import satz25_search
from matlislab.fields import PrimeField, QQ
from matlislab.modules import (
    direct_power,
    generated_submodule,
    quotient_module,
    regular_module,
)
from matlislab.randmod import Lcg, random_module, random_submodule
from matlislab.suites import run_suite

from conftest import FIXTURE_NAMES


def _report(n, name, elapsed, limit):
    print("ACCEPTANCE %d %s PASS (%.2fs < %ds)" % (n, name, elapsed, limit))
    assert elapsed < limit, "%s exceeded runtime budget: %.2fs" % (name, elapsed)


def test_criterion_1_duality_involution(fixtures):
    for fname in FIXTURE_NAMES:
        fx = fixtures[fname]
        t0 = time.time()
        rng = Lcg(fx.seed)
        for i in range(100):
            M = random_module(fx.algebra, rng)
            ev = evaluation_map(M)
            assert ev.rank() == ev.source.dim and ev.is_surjective(), (fname, i)
            assert matlis_dual(M).dim == M.dim, (fname, i)
        _report(1, "duality-involution-%s" % fname, time.time() - t0, 10)


def test_criterion_2_trace_reject_bounds(fixtures):
    for fname in FIXTURE_NAMES:
        fx = fixtures[fname]
        t0 = time.time()
        rep = run_suite(fx, "satz31", trials=200, seed=fx.seed)
        assert not rep.has_fail(), rep.render()
        assert rep.n_pass >= 200
        _report(2, "satz31-suite-%s" % fname, time.time() - t0, 30)


def test_criterion_3_uniserial_exhaustive():
    t0 = time.time()
    checked = 0
    for field in (QQ, PrimeField(5)):
        for n in (2, 3, 4, 5, 6):
            pres = Presentation(field, ["x"], [[(field.one, (n,))]], n)
            A = build_algebra(pres)
            R = regular_module(A)
            x = A.var_elements[0]
            powers = [A.element_from_terms([(field.one, (0,))])]
            for _ in range(n):
                powers.append(multiply(A, powers[-1], x))
            for j in range(n + 1):
                I = ideal_from_generators(A, [powers[j]])
                ctx = ClassContext(A, I)
                for i in range(1, n + 1):
                    sub = generated_submodule(R, [powers[i]])
                    M, _ = quotient_module(R, sub)
                    s, g_formula, k_formula = uniserial_s(ctx, M)
                    assert g_formula == gamma(ctx, M, shortcut=False), (field, n, j, i)
                    assert k_formula == kappa(ctx, M, shortcut=False), (field, n, j, i)
                    assert uniserial_duality(ctx, M) == (True, True), (field, n, j, i)
                    checked += 1
    assert checked == 2 * sum(n * (n + 1) for n in (2, 3, 4, 5, 6))
    _report(3, "uniserial-exhaustive-%d-cases" % checked, time.time() - t0, 20)


def test_criterion_4_epi_dichotomy(r3, kxy):
    t0 = time.time()
    assert epi_onto_r_mod_ann_exists(r3.ctx)
    rng = Lcg(r3.seed)
    from matlislab.modules import submodule_as_module

    for i in range(100):
        j = 1 + rng.randint(2)
        Ij, _ = direct_power(r3.ctx.I_mod, j)
        U = random_submodule(Ij, rng)
        Q, _ = quotient_module(Ij, U)
        assert is_p_member(r3.ctx, Q), i
        V = random_submodule(Q, rng)
        if V.dim:
            Vmod, _ = submodule_as_module(V)
            assert is_p_member(r3.ctx, Vmod), i
    assert not epi_onto_r_mod_ann_exists(kxy.ctx)
    w = submodule_counterexample(kxy.ctx)
    assert w is not None and w.verified()
    assert w.ambient_is_p and not w.submodule_is_p
    _report(4, "epi-criterion-dichotomy", time.time() - t0, 10)


def test_criterion_5_extension_witness(r3):
    t0 = time.time()
    _, witnesses = satz25_search(r3.ctx)
    assert len(witnesses) == 2
    for member, (C, (B, iota, pi), outside) in zip((is_p_member, is_s_member), witnesses):
        assert outside
        assert iota.source is C and pi.target is C
        assert member(r3.ctx, C)
        assert not member(r3.ctx, B)
        assert is_short_exact(iota, pi)
    A = r3.algebra
    for I in (unit_ideal(A), zero_ideal(A)):
        assert satz25_search(ClassContext(A, I)) is None
    _report(5, "extension-closure-witness", time.time() - t0, 30)


def test_criterion_6_star_operators(fixtures):
    t0 = time.time()
    lower_checked = upper_checked = 0
    for fname in FIXTURE_NAMES:
        fx = fixtures[fname]
        rng = Lcg(fx.seed + 100)
        for i in range(100):
            M = random_module(fx.algebra, rng)
            W, e = embed_into_injective(M)
            assert lower_star(fx.ctx, M, W, e) == gamma(fx.ctx, M), (fname, i)
            lower_checked += 1
        R = regular_module(fx.algebra)
        for rank in (1, 2, 3):
            A, _ = direct_power(R, rank)
            for i in range(9):
                B = random_submodule(A, rng)
                upper = upper_star(fx.ctx, A, B)
                Q, proj = quotient_module(A, B)
                assert image_in_quotient(upper, proj) == kappa(fx.ctx, Q), (fname, rank, i)
                upper_checked += 1
    assert lower_checked >= 400 and upper_checked >= 100
    _report(6, "star-operator-cross-validation", time.time() - t0, 60)


def test_criterion_7_injective_flat_identities(fixtures):
    t0 = time.time()
    for fname in FIXTURE_NAMES:
        fx = fixtures[fname]
        rep32 = run_suite(fx, "folg32", seed=fx.seed)
        assert not rep32.has_fail(), rep32.render()
        rep33 = run_suite(fx, "folg33", seed=fx.seed)
        assert not rep33.has_fail(), rep33.render()
    _report(7, "injective-flat-identities", time.time() - t0, 15)


def test_criterion_8_implication_chain(fixtures):
    t0 = time.time()
    for fname in FIXTURE_NAMES:
        fx = fixtures[fname]
        rep = run_suite(fx, "lemma11", trials=200, seed=fx.seed)
        assert not rep.has_fail(), rep.render()
        assert rep.n_pass >= 203  # 200 random chains + 3 injective powers
    _report(8, "implication-chain", time.time() - t0, 15)


def test_criterion_9_determinism(fixtures):
    t0 = time.time()
    for fname in FIXTURE_NAMES:
        fx = fixtures[fname]
        a = run_suite(fx, "all", trials=10, seed=7).render()
        b = run_suite(fx, "all", trials=10, seed=7).render()
        assert a.encode() == b.encode(), fname
    _report(9, "report-determinism", time.time() - t0, 120)
