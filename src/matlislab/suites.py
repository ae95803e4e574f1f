"""Named verification suites over a fixture.

Each suite runs a batch of structural checks with a seeded generator and
returns a deterministic Report: same (fixture, seed, flags), same bytes.
Failures are report content, not process errors, and always carry a
replayable witness.
"""

from .algebra import (
    annihilator_of_ideal,
    minimal_generators,
    unit_ideal,
)
from .classes import (
    class_context,
    duality_transfer,
    epi_onto_r_mod_ann_exists,
    gamma,
    is_p_member,
    is_s_member,
    kappa,
    submodule_counterexample,
    uniserial_duality,
    uniserial_s,
)
from .duality import annihilator_in_dual, evaluation_map, matlis_dual, injective_cogenerator
from .errors import MatlisLabError, NotUniserial
from .ext import satz25_search
from .fixtures import format_element, format_ideal, format_submodule
from .modules import (
    annihilator_submodule,
    direct_power,
    direct_sum,
    ideal_times_module,
    ideal_times_submodule,
    quotient_module,
    radical,
    regular_module,
    socle,
    submodule_as_module,
    submodule_intersection,
    submodule_sum,
    uniserial_chain,
    zero_module,
)
from .randmod import Lcg, random_ideal, random_module, random_submodule
from .report import FAIL, PASS, CheckRecord, Report, check


def _rand_p_member(ctx, rng):
    """A quotient of I^j: an I-generated module by construction."""
    j = 1 + rng.randint(2)
    Ij, _ = direct_power(ctx.I_mod, j)
    U = random_submodule(Ij, rng)
    Q, _ = quotient_module(Ij, U)
    return Q


def suite_lemma11(fx, trials, rng):
    ctx = fx.ctx
    A = fx.algebra
    records = []
    for t in range(trials):
        M = random_module(A, rng)
        im_full = ideal_times_module(ctx.I, M).dim == M.dim
        in_p = is_p_member(ctx, M)
        ann_kills = ideal_times_module(ctx.ann_i, M).dim == 0
        ok = (not im_full or in_p) and (not in_p or ann_kills)
        records.append(
            check(
                "lemma11-chain-%03d" % t,
                fx.name,
                ok,
                "dimM=%d IM=M:%s P:%s AnnI.M=0:%s" % (M.dim, im_full, in_p, ann_kills),
            )
        )
    E = injective_cogenerator(A)
    for j in (1, 2, 3):
        M, _ = direct_power(E, j)
        conds = [
            ideal_times_module(ctx.I, M).dim == M.dim,
            is_p_member(ctx, M),
            ideal_times_module(ctx.ann_i, M).dim == 0,
            annihilator_submodule(M, ctx.bar_i).dim == 0,
        ]
        ok = len(set(conds)) == 1
        records.append(
            check("lemma11-injective-E%d" % j, fx.name, ok, "conditions=%s" % conds)
        )
    return records


def suite_satz22(fx, trials, rng):
    ctx = fx.ctx
    A = fx.algebra
    records = []
    crit = epi_onto_r_mod_ann_exists(ctx)
    records.append(
        CheckRecord("satz22-criterion", fx.name, PASS, "epi-exists=%s" % crit)
    )
    if crit:
        for t in range(trials):
            M = _rand_p_member(ctx, rng)
            U = random_submodule(M, rng)
            if U.dim == 0:
                records.append(check("satz22-submodule-%03d" % t, fx.name, True))
                continue
            Umod, _ = submodule_as_module(U)
            records.append(
                check(
                    "satz22-submodule-%03d" % t,
                    fx.name,
                    is_p_member(ctx, Umod),
                    "submodule %s of P-member fails P" % format_submodule(U),
                )
            )
        for t in range(trials):
            M = random_module(A, rng)
            lhs = is_p_member(ctx, M)
            rhs = ideal_times_module(ctx.ann_i, M).dim == 0
            records.append(
                check(
                    "satz22-equivalence-%03d" % t,
                    fx.name,
                    lhs == rhs,
                    "dimM=%d P:%s AnnI.M=0:%s" % (M.dim, lhs, rhs),
                )
            )
    else:
        w = submodule_counterexample(ctx)
        ok = w is not None and w.verified()
        witness = "criterion-false branch: no counterexample built (dim I=%d)" % ctx.I.dim
        if w is not None:
            gens = ", ".join(
                format_element(A, g) for g in minimal_generators(ctx.I)
            )
            witness = (
                "criterion-false branch: R.(%s) in I^n, dim %d inside dim %d, "
                "P(ambient)=%s P(sub)=%s"
                % (gens, w.submodule.dim, w.ambient.dim, w.ambient_is_p, w.submodule_is_p)
            )
        records.append(CheckRecord("satz22-counterexample", fx.name, PASS if ok else FAIL, witness))
        if w is not None:
            ann_ok = ideal_times_module(ctx.ann_i, w.submodule_module).dim == 0
            records.append(
                check(
                    "satz22-equivalence-breaks",
                    fx.name,
                    ann_ok and not w.submodule_is_p,
                    "AnnI kills witness: %s, P: %s" % (ann_ok, w.submodule_is_p),
                )
            )
        for t in range(trials):
            M = random_module(A, rng)
            in_p = is_p_member(ctx, M)
            ann_kills = ideal_times_module(ctx.ann_i, M).dim == 0
            records.append(
                check(
                    "satz22-forward-%03d" % t,
                    fx.name,
                    not in_p or ann_kills,
                    "dimM=%d" % M.dim,
                )
            )
    return records


def suite_satz25(fx, trials, rng):
    # the PASS texts, "tested=0" and "after 1 extensions" included, are
    # fixed by the pinned report digests
    names = ("satz25-P", "satz25-S")
    found = satz25_search(fx.ctx)
    if found is None:
        return [CheckRecord(name, fx.name, PASS, "ClosedTrivially (tested=0)") for name in names]
    classes, witnesses = found
    if not witnesses:
        dim = fx.ctx.I.dim
        if classes:
            cause = "no class of Ext^1(C, C) gives Ann(I)*B != 0 for C of dim %d" % dim
        else:
            cause = "Ext^1(C, C) = 0 for C of dim %d: no extension to test" % dim
        return [CheckRecord(name, fx.name, FAIL, cause) for name in names]
    records = []
    for name, (C, (B, _, _), outside) in zip(names, witnesses):
        witness = "0 -> dim%d -> dim%d -> dim%d -> 0 " % (C.dim, B.dim, C.dim)
        if outside:
            witness += "after 1 extensions"
        else:
            witness += "stays in %s although Ann(I)*B != 0" % name[-1]
        records.append(CheckRecord(name, fx.name, PASS if outside else FAIL, witness))
    return records


def suite_satz31(fx, trials, rng):
    A = fx.algebra
    records = []
    for t in range(trials):
        I = random_ideal(A, rng, allow_unit=True)
        ctx = class_context(A, I)
        M = random_module(A, rng)
        g_fast = gamma(ctx, M, shortcut=True)
        g = gamma(ctx, M, shortcut=False)
        k_fast = kappa(ctx, M, shortcut=True)
        k = kappa(ctx, M, shortcut=False)
        lower_g = ideal_times_module(I, M)
        upper_g = annihilator_submodule(M, ctx.ann_i)
        lower_k = ideal_times_module(ctx.ann_i, M)
        upper_k = annihilator_submodule(M, I)
        ok = (
            g == g_fast
            and k == k_fast
            and g.contains_submodule(lower_g)
            and upper_g.contains_submodule(g)
            and k.contains_submodule(lower_k)
            and upper_k.contains_submodule(k)
            # essential: the socle of M[Ann I] lies inside the trace
            and g.contains_submodule(submodule_intersection(upper_g, socle(M)))
            # small: the reject lands in m.M + Ann(I).M
            and submodule_sum(radical(M), lower_k).contains_submodule(k)
        )
        records.append(
            check(
                "satz31-%03d" % t,
                fx.name,
                ok,
                "I=%s dimM=%d gamma=%s kappa=%s"
                % (format_ideal(I), M.dim, format_submodule(g), format_submodule(k)),
            )
        )
    return records


def suite_folg32(fx, trials, rng):
    ctx = fx.ctx
    A = fx.algebra
    E = injective_cogenerator(A)
    R = regular_module(A)
    records = []
    for j in (1, 2, 3):
        M, _ = direct_power(E, j)
        g = gamma(ctx, M, shortcut=False)
        k = kappa(ctx, M, shortcut=False)
        im = ideal_times_module(ctx.I, M)
        upper = annihilator_submodule(M, ctx.ann_i)
        ok = (
            im == g
            and g == upper
            and k.contains_submodule(annihilator_submodule(M, ctx.bar_i))
            and annihilator_submodule(M, ctx.I).contains_submodule(k)
        )
        records.append(check("folg32-injective-E%d" % j, fx.name, ok,
                             "gamma=%s" % format_submodule(g)))
    for j in (1, 2, 3):
        M, _ = direct_power(R, j)
        g = gamma(ctx, M, shortcut=False)
        k = kappa(ctx, M, shortcut=False)
        ok = (
            ideal_times_module(ctx.ann_i, M) == k
            and k == annihilator_submodule(M, ctx.I)
            and g.contains_submodule(ideal_times_module(ctx.I, M))
            and ideal_times_module(ctx.bar_i, M).contains_submodule(g)
        )
        records.append(check("folg32-flat-R%d" % j, fx.name, ok,
                             "kappa=%s" % format_submodule(k)))
    return records


def suite_folg33(fx, trials, rng):
    A = fx.algebra
    E = injective_cogenerator(A)
    R = regular_module(A)
    records = []
    n_ideals = max(3, min(trials, 8))
    for t in range(n_ideals):
        J = random_ideal(A, rng, allow_unit=True)
        I2 = annihilator_of_ideal(J)
        ctx = class_context(A, I2)
        closed = ctx.bar_i == I2
        oks = [closed]
        for j in (1, 2):
            ME, _ = direct_power(E, j)
            if is_p_member(ctx, ME):
                oks.append(is_s_member(ctx, ME))
            MR, _ = direct_power(R, j)
            if is_s_member(ctx, MR):
                oks.append(is_p_member(ctx, MR))
        records.append(
            check(
                "folg33-%02d" % t,
                fx.name,
                all(oks),
                "I=%s annihilator-closed=%s" % (format_ideal(I2), closed),
            )
        )
    return records


def _uniserial_pool(fx):
    """R/m^i for every i up to the nilpotency index, where uniserial."""
    A = fx.algebra
    R = regular_module(A)
    pool = []
    power = R.full_submodule()
    subs = []
    while power.dim > 0:
        power = ideal_times_submodule(A.max_ideal, power)
        subs.append(power)
    for i, sub in enumerate(subs):
        Q, _ = quotient_module(R, sub)
        if Q.dim == 0:
            continue
        try:
            uniserial_chain(Q)
        except NotUniserial:
            continue
        pool.append(("R/m^%d" % (i + 1), Q))
    return pool


def suite_satz35(fx, trials, rng):
    ctx = fx.ctx
    records = []
    pool = _uniserial_pool(fx)
    if not pool:
        records.append(CheckRecord("satz35-pool", fx.name, PASS, "no uniserial modules"))
        return records
    for name, M in pool:
        s, g_formula, k_formula = uniserial_s(ctx, M)
        g = gamma(ctx, M, shortcut=False)
        k = kappa(ctx, M, shortcut=False)
        ok = g_formula == g and k_formula == k
        records.append(
            check(
                "satz35-%s" % name,
                fx.name,
                ok,
                "s=%d formula-gamma=%s trace=%s formula-kappa=%s reject=%s"
                % (s, format_submodule(g_formula), format_submodule(g),
                   format_submodule(k_formula), format_submodule(k)),
            )
        )
    return records


def suite_folg36(fx, trials, rng):
    ctx = fx.ctx
    records = []
    pool = _uniserial_pool(fx)
    if not pool:
        records.append(CheckRecord("folg36-pool", fx.name, PASS, "no uniserial modules"))
        return records
    for name, M in pool:
        a, b = uniserial_duality(ctx, M)
        records.append(
            check("folg36-%s" % name, fx.name, a and b, "identities=(%s, %s)" % (a, b))
        )
    return records


def suite_duality(fx, trials, rng):
    ctx = fx.ctx
    A = fx.algebra
    records = []
    for t in range(trials):
        M = random_module(A, rng)
        try:
            evaluation_map(M)
            ev_ok = True
        except MatlisLabError:
            ev_ok = False
        Md = matlis_dual(M)
        dims_ok = Md.dim == M.dim
        ta, tb = duality_transfer(ctx, M)
        U = random_submodule(M, rng)
        D1 = annihilator_in_dual(M, U)
        comp_ok = D1.dim == M.dim - U.dim
        V = submodule_sum(U, random_submodule(M, rng))
        rev_ok = D1.contains_submodule(annihilator_in_dual(M, V))
        # exact double-annihilator identity through the evaluation map
        D2 = annihilator_in_dual(Md, D1)
        galois_ok = D2.basis_matrix == U.basis_matrix
        ok = ev_ok and dims_ok and ta and tb and comp_ok and rev_ok and galois_ok
        records.append(
            check(
                "duality-%03d" % t,
                fx.name,
                ok,
                "dimM=%d eval=%s transfer=(%s,%s) complement=%s reversal=%s galois=%s"
                % (M.dim, ev_ok, ta, tb, comp_ok, rev_ok, galois_ok),
            )
        )
    E = injective_cogenerator(A)
    records.append(
        check(
            "duality-hull-certificate",
            fx.name,
            socle(E).dim == 1 and E.dim == A.dim,
            "socle(E) dim %d" % socle(E).dim,
        )
    )
    return records


def suite_closure(fx, trials, rng):
    ctx = fx.ctx
    records = []
    for t in range(trials):
        M = _rand_p_member(ctx, rng)
        N = _rand_p_member(ctx, rng)
        S, _, _ = direct_sum(M, N)
        sum_ok = is_p_member(ctx, S)
        U = random_submodule(S, rng)
        Q, _ = quotient_module(S, U)
        quot_ok = is_p_member(ctx, Q)
        summand_ok = True
        if sum_ok:
            summand_ok = is_p_member(ctx, M) and is_p_member(ctx, N)
        ok = sum_ok and quot_ok and summand_ok
        records.append(
            check(
                "closure-%03d" % t,
                fx.name,
                ok,
                "sum=%s quotient=%s summand=%s" % (sum_ok, quot_ok, summand_ok),
            )
        )
    # degenerate identity: I = R acting on the zero module
    ctx_r = class_context(fx.algebra, unit_ideal(fx.algebra))
    Z = zero_module(fx.algebra)
    dims = [
        ("gamma", gamma(ctx_r, Z).dim),
        ("kappa", kappa(ctx_r, Z).dim),
        ("I.Z", ideal_times_module(ctx_r.I, Z).dim),
        ("Z[I]", annihilator_submodule(Z, ctx_r.I).dim),
    ]
    bad = ", ".join("dim %s=%d" % (n, d) for n, d in dims if d)
    records.append(
        check(
            "closure-degenerate-identity",
            fx.name,
            not bad,
            "nonzero on the zero module: %s" % bad,
        )
    )
    return records


SUITE_ORDER = [
    ("lemma11", suite_lemma11, 200),
    ("satz22", suite_satz22, 100),
    ("satz25", suite_satz25, 1),
    ("satz31", suite_satz31, 200),
    ("folg32", suite_folg32, 1),
    ("folg33", suite_folg33, 5),
    ("satz35", suite_satz35, 1),
    ("folg36", suite_folg36, 1),
    ("duality", suite_duality, 100),
    ("closure", suite_closure, 100),
]

SUITES = {name: (fn, default) for name, fn, default in SUITE_ORDER}


def run_suite(fx, suite, trials=None, seed=None):
    """Run one named suite (or "all") and return its Report.

    The memos that equal modules share (see modules._by_ideal_value) are
    emptied after each suite, also when it raises.
    """
    if trials is not None and trials < 0:
        raise MatlisLabError("trials must be non-negative, got %d" % trials)
    if suite != "all" and suite not in SUITES:
        raise MatlisLabError(
            "unknown suite %r (have: %s, all)" % (suite, ", ".join(SUITES))
        )
    if seed is None:
        seed = fx.seed
    names = [n for n, _, _ in SUITE_ORDER] if suite == "all" else [suite]
    records = []
    for idx, (name, fn, default) in enumerate(SUITE_ORDER):
        if name not in names:
            continue
        rng = Lcg((seed << 8) + idx)
        try:
            records.extend(fn(fx, trials if trials is not None else default, rng))
        finally:
            # the memos of equal modules live for one suite: kept longer
            # they would grow with every module the algebra ever saw
            fx.algebra._module_memo.clear()
    return Report(suite, fx.name, records)
