"""Workloads of the matlislab benchmark: their inputs, units of work and
output checks.

Importing this module imports only the standard library; ``matlislab``
is imported by :func:`build`, so a fresh process that calls it pays the
package import as part of set-up.

Every unit of work ("item") is timed on its own.  An item carries the
field it computes over (``"Q"`` or ``"Fp"``), so a pass splits into a Q
part and an F_p part.  Items run in a fixed order within a run; the
benchmark seed chooses that order.
"""

import hashlib
import json
import os
import random

# verify-shipped: the shipped fixtures at their own seeds and the default
# trial counts, exactly as `matlis-lab verify all` runs them.  The digest
# is the sha256 prefix of run_suite(fx, "all").render().
SHIPPED = (("R3", "Q"), ("KXY", "Q"), ("V2", "Q"), ("R4", "Fp"))
SHIPPED_DIGESTS = {
    "R3": "9636754dc0e6",
    "R4": "9fea7fea341c",
    "KXY": "2acd3285e385",
    "V2": "f2fc0013d7fa",
}

# verify-dim10: the scaling fixture Q[x,y,z]/(x,y,z)^3 with I = (x, y),
# and its F_101 twin, on the same suites, fixture seed and trials.  The
# fixture seed is fixed like a shipped fixture's: at 5 trials the Q pass
# takes 8.7 to 15.7 s depending on the suite seed (about one random
# module in ten is free of rank 2, dimension 20, and dominates), a spread
# no run of a few passes can average out.
DIM10_SUITES = ("lemma11", "satz22", "satz31", "duality", "closure")
DIM10_TRIALS = 5
DIM10_FIXTURE_SEED = 1
DIM10 = (("dim10-Q", "Q"), ("dim10-F101", "Fp:101"))
DIM10_DIGESTS = {
    "dim10-Q": "2763ef4621f8",
    "dim10-F101": "7b0f9a1e9d89",
}

# ext-sweep: per algebra, a pool of quotients I^j / R.v and their Matlis
# duals, given as (j, layer, dim of the quotient).  v is a seeded vector
# of I^j (layer 0) or of its radical (layer 1), drawn again until the
# quotient has the listed dimension, which is the one a generic v gives.
# The seed thus changes the modules but not their sizes: counted in
# field operations, the work of a pass then varies by under 1% across
# seeds, while an occasional degenerate v over Q adds over 20%.
EXT_ALGEBRAS = (
    ("KXY", ((1, 0, 1), (2, 1, 5))),
    ("V2", ((1, 0, 1), (2, 0, 3))),
    ("dim10-F101", ((1, 0, 3), (1, 0, 3), (1, 0, 3))),
)
EXT_DRAWS = 100  # draws allowed per quotient before the profile is wrong


def dim10_doc(name, field):
    """Fixture document of k[x,y,z]/(x,y,z)^3 with I = (x, y).

    The nilpotency bound is certified, not imposed, so every degree-3
    monomial is written as a relation.
    """
    relations = [
        [[1, 1, [a, b, 3 - a - b]]] for a in range(4) for b in range(4 - a)
    ]
    return {
        "name": name,
        "field": field,
        "vars": ["x", "y", "z"],
        "relations": relations,
        "nilpotency": 3,
        "ideal": [[[1, 1, [1, 0, 0]]], [[1, 1, [0, 1, 0]]]],
        "seed": DIM10_FIXTURE_SEED,
    }


def _shipped_doc(root, name):
    with open(os.path.join(root, "fixtures", name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class Item:
    """One timed unit of work.

    ``run(state)`` returns ``(ok, results, output)``: whether the item's
    own checks passed, how many certified results it produced, and a
    value that must be identical every time the item runs.
    """

    def __init__(self, key, field, run, span):
        self.key = key
        self.field = field
        self.run = run
        self.span = span


class Workload:
    """The built inputs of one workload.

    ``check_pass(outputs)`` takes the outputs of one complete pass, keyed
    by item, and returns the keys of the items it finds wrong.
    """

    def __init__(self, name, items, check_pass):
        self.name = name
        self.items = items
        self.check_pass = check_pass


def build(name, root, seed):
    """Import matlislab and build every algebra, fixture and input of a
    workload; this is what ``setup_s`` times."""
    if name == "verify-shipped":
        return _build_verify_shipped(root, seed)
    if name == "verify-dim10":
        return _build_verify_dim10(seed)
    if name == "ext-sweep":
        return _build_ext_sweep(root, seed)
    raise ValueError("unknown workload %r" % (name,))


def _load(doc):
    from matlislab import fixtures

    fx = fixtures.fixture_from_dict(doc, name=doc["name"])
    fx.ctx  # ClassContext is part of set-up
    return fx


def _suite_item(fx, field, suite, trials, reports):
    from matlislab import suites

    def run(state):
        report = suites.run_suite(fx, suite, trials=trials)
        reports[(fx.name, suite)] = report
        return report.n_fail == 0, len(report.records), report.render()

    return Item("%s/%s" % (fx.name, suite), field, run, "suites." + suite)


def _verify_workload(name, fixtures, suite_names, trials, digests, seed):
    """Items are (fixture, suite) pairs; a pass is every pair once, and
    each fixture's records joined in suite order must match its digest.

    Each suite draws from its own seed-derived stream, so its records
    equal its slice of run_suite(fx, "all").
    """
    from matlislab import report as report_mod
    from matlislab import suites

    order = [n for n, _, _ in suites.SUITE_ORDER if suite_names is None or n in suite_names]
    reports = {}
    items = [
        _suite_item(fx, field, suite, trials, reports)
        for fx, field in fixtures
        for suite in order
    ]
    random.Random(seed).shuffle(items)

    def check_pass(outputs):
        bad = []
        for fx, _ in fixtures:
            records = []
            for s in order:
                records.extend(reports[(fx.name, s)].records)
            text = report_mod.Report("all", fx.name, records).render()
            if _digest(text) != digests[fx.name]:
                bad.extend("%s/%s" % (fx.name, s) for s in order)
        return bad

    return Workload(name, items, check_pass)


def _build_verify_shipped(root, seed):
    fixtures = [(_load(_shipped_doc(root, n)), field) for n, field in SHIPPED]
    return _verify_workload("verify-shipped", fixtures, None, None, SHIPPED_DIGESTS, seed)


def _build_verify_dim10(seed):
    fixtures = [
        (_load(dim10_doc(n, spec)), "Q" if spec == "Q" else "Fp") for n, spec in DIM10
    ]
    return _verify_workload(
        "verify-dim10", fixtures, DIM10_SUITES, DIM10_TRIALS, DIM10_DIGESTS, seed
    )


def _random_vector(rows, field, rng):
    """A nonzero seeded combination of the given rows, small coefficients."""
    p = getattr(field, "p", None)
    while True:
        coeffs = [
            field.of(rng.randrange(p)) if p else field.of(rng.randint(-2, 2))
            for _ in rows
        ]
        vec = [field.zero] * len(rows[0])
        for c, row in zip(coeffs, rows):
            vec = [field.add(a, field.mul(c, b)) for a, b in zip(vec, row)]
        if any(x != field.zero for x in vec):
            return tuple(vec)


def _ext_pool(fx, profile, rng):
    """[Q_1, Q_1 dual, Q_2, Q_2 dual, ...] with Q = I^j / R.v."""
    from matlislab import duality, modules

    ctx = fx.ctx
    field = fx.algebra.field
    pool = []
    for j, layer, dim in profile:
        Ij, _ = modules.direct_power(ctx.I_mod, j)
        span = modules.radical(Ij) if layer else Ij.full_submodule()
        for _ in range(EXT_DRAWS):
            v = _random_vector(span.basis_matrix, field, rng)
            Q, _ = modules.quotient_module(Ij, modules.generated_submodule(Ij, [v]))
            if Q.dim == dim:
                break
        else:
            raise ValueError("%s: no quotient of dimension %d in %d draws" % (fx.name, dim, EXT_DRAWS))
        pool.append(Q)
        pool.append(duality.matlis_dual(Q))
    return pool


def _build_ext_sweep(root, seed):
    """Items are ordered pairs (C, A) of one algebra's pool.  The first
    pair of each C also computes free_cover(C), which the later pairs of
    that C reuse within the pass (the per-pass ``state``)."""
    rng = random.Random(seed)
    items = []
    duals = {}
    for name, profile in EXT_ALGEBRAS:
        doc = dim10_doc(name, "Fp:101") if name.startswith("dim10") else _shipped_doc(root, name)
        fx = _load(doc)
        pool = _ext_pool(fx, profile, rng)
        field = "Q" if fx.algebra.field.char == 0 else "Fp"
        n = len(pool)
        order = list(range(n))
        rng.shuffle(order)
        for c in order:
            for a in range(n):
                key = "%s/C%d/A%d" % (name, c, a)
                # pool[i ^ 1] is the dual of pool[i]; Ext^1(C, A) and
                # Ext^1(A dual, C dual) must have the same dimension
                duals[key] = "%s/C%d/A%d" % (name, a ^ 1, c ^ 1)
                items.append(Item(key, field, _pair_run(fx.ctx, name, pool, c, a), "bench.pair"))

    def check_pass(outputs):
        bad = []
        for key, out in outputs.items():
            other = outputs.get(duals[key])
            if other is None or other[0] != out[0]:
                bad.append(key)
        return bad

    return Workload("ext-sweep", items, check_pass)


def _pair_run(ctx, name, pool, c, a):
    from matlislab import classes, ext

    def run(state):
        C, A = pool[c], pool[a]
        cover = state.get((name, c))
        if cover is None:
            cover = state[(name, c)] = ext.free_cover(C)
        space = ext.ext1(C, A, cover=cover)
        if space.dim == 0:
            return True, 0, (0, None, None, None)
        B, _, _ = ext.extension_from_class(space, space.representatives[0])
        record = (
            space.dim,
            B.dim,
            classes.is_p_member(ctx, B),
            classes.is_s_member(ctx, B),
        )
        return B.dim == A.dim + C.dim, 1, record

    return run


def pass_digest(outputs):
    """Digest of one pass's outputs, in key order."""
    return _digest("\n".join("%s %r" % (k, outputs[k]) for k in sorted(outputs)))
