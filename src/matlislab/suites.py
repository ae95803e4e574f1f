"""Named verification suites over a fixture.

Each suite runs a batch of structural checks with a seeded generator and
returns a deterministic Report: same (fixture, seed, flags), same bytes.
Failures are report content, not process errors, and always carry a
replayable witness.  A drawn module is one object per value until the
suite ends, kept in the algebra's _module_memo through algebra.derived
(see randmod): the cokernels that random_module draws, the quotients of
_rand_p_member under ("quotient", U), U the drawn submodule, and the
direct sums of the closure draw under ("sum", M, N).  A repeated draw
returns that object, with the columns that random_submodule spans.

The random trials go through _trials, which checks each distinct draw
once per suite: a trial that draws the same values as an earlier one
reuses the verdict of its first occurrence, PASS or FAIL with its
witness, under its own record name; the verdicts are kept in the same
memo.  That is exact, as every verdict is a deterministic function of
the drawn values: the key holds every value the verdict reads, and the
memos behind it are keyed by value too.  The trial still draws, so the
stream and every later draw are unchanged.

Some records hold by construction, as is_p_member and is_s_member decide
False from the Ann(I) bound: the second half of each lemma11 chain,
satz22-forward and that direction of satz22-equivalence, and the satz25
verdicts.  The first half of each lemma11 chain (I.M = M implies M in P)
holds by construction too: Ann(I).M = Ann(I).I.M = 0 passes the Ann(I)
exit, and the I.M = M exit returns True.  So the random chains test no
gamma, and of lemma11 only the E^j records do.

Checks that hold by construction are not run: the map M -> M°° (the
dual transposes the actions, so M°° carries M's own and the map is the
identity), dim(M°) = dim(M) (matlis_dual keeps it), and the socle of
M[Ann I] in satz31 (for I != 0, Ann(I) lies in m, so it is socle(M)).
A PASS record renders no witness, so check calls a callable witness
only on FAIL.
"""

from .algebra import (
    annihilator_of_ideal,
    derived,
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
from .duality import annihilator_in_dual, matlis_dual, injective_cogenerator
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
    submodule_sum,
    uniserial_chain,
    zero_module,
)
from .randmod import Lcg, random_ideal, random_module, random_submodule
from .report import FAIL, PASS, CheckRecord, Report, check


def _rand_p_member(powers, rng):
    """A quotient of I or I^2 (powers): I-generated by construction.
    Built once per value of U in a suite (see the module docstring)."""
    Ij = powers[rng.randint(2)]
    U = random_submodule(Ij, rng)
    return derived(Ij.parent._module_memo, ("quotient", U), lambda: quotient_module(Ij, U)[0])


def _trials(fx, name, count, draw, verdict):
    """The records name % t for t < count, one per trial.

    draw() draws a trial from the suite's stream and returns every value
    that verdict reads, as a hashable tuple; verdict(*inputs) returns
    (ok, witness) for check.  Each distinct draw is checked once per
    suite, and a repeated one reuses its verdict, kept under
    (name,) + inputs (see the module docstring).
    """
    records = []
    for t in range(count):
        inputs = draw()
        found = derived(fx.algebra._module_memo, (name,) + inputs,
                        lambda: verdict(*inputs))
        records.append(check(name % t, fx.name, *found))
    return records


def suite_lemma11(fx, trials, rng):
    ctx = fx.ctx
    A = fx.algebra

    def chain(M):
        im_full = ideal_times_module(ctx.I, M).dim == M.dim
        in_p = is_p_member(ctx, M)
        ann_kills = ideal_times_module(ctx.ann_i, M).dim == 0
        ok = (not im_full or in_p) and (not in_p or ann_kills)
        return ok, "dimM=%d IM=M:%s P:%s AnnI.M=0:%s" % (M.dim, im_full, in_p, ann_kills)

    records = _trials(fx, "lemma11-chain-%03d", trials,
                      lambda: (random_module(A, rng),), chain)
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
        powers = ctx.I_mod, direct_power(ctx.I_mod, 2)[0]

        def draw_submodule():
            M = _rand_p_member(powers, rng)
            return M, random_submodule(M, rng)

        def submodule(M, U):
            if U.dim == 0:
                return True, "-"
            Umod, _ = submodule_as_module(U)
            return is_p_member(ctx, Umod), lambda: (
                "submodule %s of P-member fails P" % format_submodule(U))

        def equivalence(M):
            lhs = is_p_member(ctx, M)
            rhs = ideal_times_module(ctx.ann_i, M).dim == 0
            return lhs == rhs, "dimM=%d P:%s AnnI.M=0:%s" % (M.dim, lhs, rhs)

        records += _trials(fx, "satz22-submodule-%03d", trials, draw_submodule, submodule)
        records += _trials(fx, "satz22-equivalence-%03d", trials,
                           lambda: (random_module(A, rng),), equivalence)
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

        def forward(M):
            in_p = is_p_member(ctx, M)
            ann_kills = ideal_times_module(ctx.ann_i, M).dim == 0
            return not in_p or ann_kills, "dimM=%d" % M.dim

        records += _trials(fx, "satz22-forward-%03d", trials,
                           lambda: (random_module(A, rng),), forward)
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

    def draw():
        I = random_ideal(A, rng)
        return I, random_module(A, rng)

    def verdict(I, M):
        ctx = class_context(A, I)
        g = gamma(ctx, M)
        k = kappa(ctx, M)
        lower_g = ideal_times_module(I, M)
        upper_g = annihilator_submodule(M, ctx.ann_i)
        lower_k = ideal_times_module(ctx.ann_i, M)
        upper_k = annihilator_submodule(M, I)
        ok = (
            g.contains_submodule(lower_g)
            and upper_g.contains_submodule(g)
            and k.contains_submodule(lower_k)
            and upper_k.contains_submodule(k)
            # essential: the socle of M[Ann I] lies inside the trace; it is
            # socle(M) for I != 0, as Ann(I) <= m, and 0 for I = 0
            and (I.dim == 0 or g.contains_submodule(socle(M)))
            # small: the reject lands in m.M + Ann(I).M
            and submodule_sum(radical(M), lower_k).contains_submodule(k)
        )
        return ok, lambda: "I=%s dimM=%d gamma=%s kappa=%s" % (
            format_ideal(I), M.dim, format_submodule(g), format_submodule(k))

    return _trials(fx, "satz31-%03d", trials, draw, verdict)


def suite_folg32(fx, trials, rng):
    ctx = fx.ctx
    A = fx.algebra
    E = injective_cogenerator(A)
    R = regular_module(A)
    records = []
    for j in (1, 2, 3):
        M, _ = direct_power(E, j)
        g = gamma(ctx, M)
        k = kappa(ctx, M)
        im = ideal_times_module(ctx.I, M)
        upper = annihilator_submodule(M, ctx.ann_i)
        ok = (
            im == g
            and g == upper
            and k.contains_submodule(annihilator_submodule(M, ctx.bar_i))
            and annihilator_submodule(M, ctx.I).contains_submodule(k)
        )
        records.append(check("folg32-injective-E%d" % j, fx.name, ok,
                             lambda: "gamma=%s" % format_submodule(g)))
    for j in (1, 2, 3):
        M, _ = direct_power(R, j)
        g = gamma(ctx, M)
        k = kappa(ctx, M)
        ok = (
            ideal_times_module(ctx.ann_i, M) == k
            and k == annihilator_submodule(M, ctx.I)
            and g.contains_submodule(ideal_times_module(ctx.I, M))
            and ideal_times_module(ctx.bar_i, M).contains_submodule(g)
        )
        records.append(check("folg32-flat-R%d" % j, fx.name, ok,
                             lambda: "kappa=%s" % format_submodule(k)))
    return records


def suite_folg33(fx, trials, rng):
    A = fx.algebra
    E = injective_cogenerator(A)
    R = regular_module(A)

    def verdict(J):
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
        return all(oks), lambda: "I=%s annihilator-closed=%s" % (format_ideal(I2), closed)

    return _trials(fx, "folg33-%02d", max(3, min(trials, 8)),
                   lambda: (random_ideal(A, rng),), verdict)


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
        g = gamma(ctx, M)
        k = kappa(ctx, M)
        ok = g_formula == g and k_formula == k
        records.append(
            check(
                "satz35-%s" % name,
                fx.name,
                ok,
                lambda: "s=%d formula-gamma=%s trace=%s formula-kappa=%s reject=%s"
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

    def draw():
        # duality_transfer draws nothing, so both submodules are drawn first
        M = random_module(A, rng)
        return M, random_submodule(M, rng), random_submodule(M, rng)

    def verdict(M, U, U2):
        Md = matlis_dual(M)
        ta, tb = duality_transfer(ctx, M)
        D1 = annihilator_in_dual(M, U)
        comp_ok = D1.dim == M.dim - U.dim
        rev_ok = D1.contains_submodule(annihilator_in_dual(M, submodule_sum(U, U2)))
        # exact double-annihilator identity: in dual-basis coordinates
        # M°° is M, so the annihilator of D1 in M°° is U itself
        D2 = annihilator_in_dual(Md, D1)
        galois_ok = D2.basis_matrix == U.basis_matrix
        ok = ta and tb and comp_ok and rev_ok and galois_ok
        return ok, "dimM=%d transfer=(%s,%s) complement=%s reversal=%s galois=%s" % (
            M.dim, ta, tb, comp_ok, rev_ok, galois_ok)

    records = _trials(fx, "duality-%03d", trials, draw, verdict)
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
    powers = ctx.I_mod, direct_power(ctx.I_mod, 2)[0]

    def draw():
        M = _rand_p_member(powers, rng)
        N = _rand_p_member(powers, rng)
        S = derived(M.parent._module_memo, ("sum", M, N), lambda: direct_sum(M, N)[0])
        # U fixes S as its ambient, but M (+) N alone does not fix the
        # split into M and N that the summand check reads
        return M, N, random_submodule(S, rng)

    def verdict(M, N, U):
        S = U.ambient
        sum_ok = is_p_member(ctx, S)
        Q, _ = quotient_module(S, U)
        quot_ok = is_p_member(ctx, Q)
        summand_ok = True
        if sum_ok:
            summand_ok = is_p_member(ctx, M) and is_p_member(ctx, N)
        ok = sum_ok and quot_ok and summand_ok
        return ok, "sum=%s quotient=%s summand=%s" % (sum_ok, quot_ok, summand_ok)

    records = _trials(fx, "closure-%03d", trials, draw, verdict)
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


def run_suite(fx, suite, trials=None, seed=None):
    """Run one named suite (or "all") and return its Report.

    The algebra's _module_memo, which holds what equal modules share
    (see modules._by_ideal_value), the drawn modules and the verdicts of
    the trials, is emptied after each suite, also when it raises.
    """
    if trials is not None and trials < 0:
        raise MatlisLabError("trials must be non-negative, got %d" % trials)
    names = [n for n, _, _ in SUITE_ORDER]
    if suite != "all" and suite not in names:
        raise MatlisLabError(
            "unknown suite %r (have: %s, all)" % (suite, ", ".join(names))
        )
    if seed is None:
        seed = fx.seed
    records = []
    for idx, (name, fn, default) in enumerate(SUITE_ORDER):
        if suite not in ("all", name):
            continue
        rng = Lcg((seed << 8) + idx)
        try:
            records.extend(fn(fx, trials if trials is not None else default, rng))
        finally:
            # the module memo lives for one suite: kept longer it would
            # grow with every module the algebra ever saw
            fx.algebra._module_memo.clear()
    return Report(suite, fx.name, records)
