#!/usr/bin/env python3
"""The matlislab benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-shipped --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each unit of work ("item") starts
when the previous one has finished.  The run repeats passes over the
workload's items until ``--seconds`` have gone by (always at least one
full pass), checks every output, and prints a summary followed by one
JSON line with the metrics that BENCHMARK.json declares:

* ``--trace 0``: the end-to-end metrics, measured with no tracing;
* ``--trace 1``: the per-layer metrics.  Each item runs once untraced and
  once traced, in alternating order, so the tracing overhead is measured
  on the same work.

Workloads and metrics are documented in perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_PROBES = 5  # fresh processes timed for setup_s; the median is reported


def _fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def _check_checkout():
    """Refuse to run anywhere but a source checkout of the package."""
    if not os.path.isfile(os.path.join(ROOT, "src", "matlislab", "__init__.py")):
        _fail("no src/matlislab under %s; run from a source checkout" % ROOT)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        _fail("no BENCHMARK.json under %s" % ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["workloads"], spec["end_to_end"], spec["per_layer"]


# -- running items ---------------------------------------------------------


class Ledger:
    """Times, outputs and failures of every item execution in a run."""

    def __init__(self):
        self.samples = {}  # key -> durations in seconds, scaled to the reference speed
        self.raw = {}  # key -> durations in seconds, as measured
        self.first = {}  # key -> (results, output) of the first execution
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def execute(self, item, state, outputs, bad):
        """Run one item and check its output; return its seconds, or None
        if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            ok, results, output = item.run(state)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            bad.add(item.key)
            return None
        dt = time.perf_counter() - t0
        outputs[item.key] = output
        first = self.first.setdefault(item.key, (results, output))
        if not ok or first != (results, output):
            bad.add(item.key)
        return dt

    def record(self, key, seconds, scale):
        self.raw.setdefault(key, []).append(seconds)
        self.samples.setdefault(key, []).append(seconds * scale)

    def close_pass(self, workload, outputs, bad):
        """Count the failed executions of a pass, adding the pass checks."""
        if len(outputs) == len(workload.items):
            bad.update(workload.check_pass(outputs))
        self.failed += len(bad)
        self.failures.extend(sorted(bad))

    def expected(self, key):
        times = self.raw.get(key)
        return statistics.median(times) if times else 0.0


def measure(build, seconds):
    """Untraced passes until ``seconds`` have gone by; partial last pass.

    Every pass runs on freshly built inputs, as every ``verify`` process
    does, so state the package keeps on its objects starts cold.  The
    reference workload runs between items; an item's time is scaled by
    the reference time over the mean of the two runs around it.
    """
    ledger = Ledger()
    start = time.perf_counter()
    passes = 0
    done = False
    before = calibrate.host_speed(0.0)
    while not done:
        workload = build()
        state, outputs, bad = {}, {}, set()
        for item in workload.items:
            if passes and time.perf_counter() - start + ledger.expected(item.key) > seconds:
                done = True
                break
            dt = ledger.execute(item, state, outputs, bad)
            after = calibrate.host_speed(dt or 0.0)
            if dt is not None:
                ledger.record(item.key, dt, 2 * calibrate.REFERENCE_S / (before + after))
            before = after
        if not done:
            passes += 1
        ledger.close_pass(workload, outputs, bad)
    return ledger, workload, passes


def measure_traced(build, seconds, tracer):
    """Full passes while the next one is expected to end within
    ``seconds`` (always one).  Every item runs once untraced and once
    traced, on inputs built for each, alternating which goes first."""
    ledger = Ledger()
    wall = {False: 0.0, True: 0.0}
    distinct = {name: 0 for name in tracer.distinct}
    start = time.perf_counter()
    passes = 0
    while not passes or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for keys in tracer.distinct.values():
            keys.clear()
        workloads = {False: build(), True: build()}
        states = {False: {}, True: {}}
        outputs = {False: {}, True: {}}
        bad = set()
        for i, pair in enumerate(zip(workloads[False].items, workloads[True].items)):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                item = pair[traced]
                if traced:
                    tracer.install()
                    try:
                        t0 = time.perf_counter()
                        with tracer.span(item.span):
                            ledger.execute(item, states[True], outputs[True], bad)
                        wall[True] += time.perf_counter() - t0
                    finally:
                        tracer.uninstall()
                else:
                    wall[False] += ledger.execute(item, states[False], outputs[False], bad) or 0.0
        for name, keys in tracer.distinct.items():
            distinct[name] += len(keys)
        ledger.close_pass(workloads[False], outputs[False], bad)
        ledger.close_pass(workloads[True], outputs[True], set())
        passes += 1
    return ledger, workloads[True], passes, wall, distinct


# -- metrics ---------------------------------------------------------------


def end_to_end(workload, ledger, setup_s):
    """Per item, the median of its executions.  A pass is the sum of these
    medians, and the latency percentiles are taken over them, so that
    items a partial last pass repeats do not weigh more."""
    medians = {k: statistics.median(v) for k, v in ledger.samples.items()}
    q_wall = sum(medians[i.key] for i in workload.items if i.field == "Q" and i.key in medians)
    fp_wall = sum(medians[i.key] for i in workload.items if i.field == "Fp" and i.key in medians)
    results = sum(ledger.first[i.key][0] for i in workload.items if i.key in ledger.first)
    times_ms = sorted(1000.0 * t for t in medians.values())
    deciles = statistics.quantiles(times_ms, n=10, method="inclusive")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "results_per_s": results / (q_wall + fp_wall),
        "q_wall_s": q_wall,
        "fp_wall_s": fp_wall,
        "item_p50_ms": statistics.median(times_ms),
        "item_p90_ms": deciles[8],
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(tracer, passes, wall, distinct, setup_spans, declared):
    """Per traced pass; a metric of a function the package lacks is absent."""
    spans, counts = tracer.spans, tracer.counts
    known = tracer.names | set(spans)
    out = {}

    def total(name, idx):
        return spans.get(name, (0, 0.0, 0.0))[idx]

    for name in sorted(known):
        out[name + ".calls"] = total(name, 0) / passes
        out[name + ".self_s"] = total(name, 1) / passes
    for name, n in counts.items():
        if not name.endswith(".shortcuts"):
            out[name] = n / passes
    out.setdefault("fields.fraction_ops", 0.0)
    out.setdefault("fields.calls", 0.0)
    if "linalg.rref" in known:
        for bucket in ("le16x8", "le64x32", "over64x32"):
            out.setdefault("linalg.rref.shape." + bucket, 0.0)
    kernel_self = sum(total(n, 1) for n in known if n.startswith("kernels."))
    if "linalg.rref" in known and any(n.startswith("kernels.") for n in known):
        both = total("linalg.rref", 1) + kernel_self
        out["kernels.share"] = kernel_self / both if both else 0.0
    for name, n in distinct.items():
        if name in known:
            calls = total(name, 0)
            out[name + ".distinct_share"] = n / calls if calls else 0.0
    if "modules.hom_space" in known:
        out.setdefault("modules.hom_space.unknowns", 0.0)
    for name in ("classes.gamma", "classes.kappa"):
        if name in known:
            calls = total(name, 0)
            out[name + ".shortcut_share"] = counts.get(name + ".shortcuts", 0) / calls if calls else 0.0
    for name in ("algebra.build_algebra", "fixtures.fixture_from_dict"):
        if name in setup_spans:
            out[name + ".s"] = setup_spans[name][2]
    layers = {}
    for name, rec in spans.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + rec[1]
        if layer == "suites":
            out[name + ".s"] = rec[2] / passes
    for name in declared:
        if name.startswith("suites."):
            out.setdefault(name, 0.0)  # suites this workload does not run
    for layer in ("linalg", "kernels", "algebra", "modules", "classes", "duality",
                  "ext", "randmod", "suites", "bench"):
        out[layer + ".self_s"] = layers.get(layer, 0.0) / passes
    out["trace.wall_s"] = wall[True] / passes
    out["trace.untraced_s"] = wall[False] / passes
    out["trace.overhead"] = wall[True] / wall[False] - 1.0
    # the layers' self times against the traced wall time; what is left
    # is the benchmark's own code (bench.self_s) and span bookkeeping
    layer_self = sum(v for k, v in layers.items() if k != "bench")
    out["trace.accounted_share"] = layer_self / wall[True]
    return out


# -- set-up ----------------------------------------------------------------


def probe_setup(name, seed):
    """Child process: time importing matlislab and building the workload,
    scaled to the reference speed measured right after."""
    import workloads

    t0 = time.perf_counter()
    workloads.build(name, ROOT, seed)
    dt = time.perf_counter() - t0
    print(repr(dt * calibrate.REFERENCE_S / calibrate.host_speed(1.0)))


def setup_seconds(name, seed):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            _fail("set-up of %s failed in a fresh process" % name)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# -- main ------------------------------------------------------------------


def _environment():
    import matlislab

    return "python=%s nproc=%d backend=%s" % (
        platform.python_version(),
        os.cpu_count() or 0,
        getattr(matlislab, "BACKEND", "n/a"),
    )


def _emit(ledger, passes, values, declared, extra):
    metrics = {}
    for spec in declared:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    for spec in declared:
        if spec["name"] in metrics:
            print("# %-44s %14.6g %s" % (spec["name"], metrics[spec["name"]]["value"], spec["unit"]))
    for line in extra:
        print("# " + line)
    if ledger.failures:
        print("# failed items: " + ", ".join(ledger.failures[:20]))
    result = {
        "correct": ledger.failed == 0 and passes >= 1,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _check_checkout()
    workload_specs, e2e_specs, layer_specs = _declared_metrics()
    if args.workload not in [w["name"] for w in workload_specs]:
        _fail("unknown workload %r" % args.workload)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return

    import workloads

    def build():
        return workloads.build(args.workload, ROOT, args.seed)

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            build()  # set-up, traced once for the build_algebra.s metrics
        finally:
            tracer.uninstall()
        setup_spans = {k: list(v) for k, v in tracer.spans.items()}
        tracer.reset()
        ledger, workload, passes, wall, distinct = measure_traced(build, args.seconds, tracer)
        values = per_layer(
            tracer, passes, wall, distinct, setup_spans, [m["name"] for m in layer_specs]
        )
        extra = [
            "workload=%s seed=%d passes=%d items=%d patched=%d %s"
            % (args.workload, args.seed, passes, len(workload.items), tracer.wrapped, _environment()),
            "traced %.3f s per pass against %.3f s untraced (overhead %.1f%%)"
            % (values["trace.wall_s"], values["trace.untraced_s"], 100 * values["trace.overhead"]),
        ]
        _emit(ledger, passes, values, layer_specs, extra)
        return

    setup_s = setup_seconds(args.workload, args.seed)
    ledger, workload, passes = measure(build, args.seconds)
    values = end_to_end(workload, ledger, setup_s) if len(ledger.samples) > 1 else {}
    covered = sum(len(v) for v in ledger.samples.values()) / len(workload.items)
    extra = [
        "workload=%s seed=%d passes=%.2f items=%d samples=%d %s"
        % (args.workload, args.seed, covered, len(workload.items),
           sum(len(v) for v in ledger.samples.values()), _environment()),
        "fail_share %.6f (%d of %d item executions failed)"
        % (ledger.failed / ledger.attempted, ledger.failed, ledger.attempted),
        "outputs digest %s" % workloads.pass_digest({k: v[1] for k, v in ledger.first.items()}),
        "as measured, unscaled: q_wall_s %.4f fp_wall_s %.4f"
        % tuple(
            sum(statistics.median(ledger.raw[i.key]) for i in workload.items
                if i.field == field and i.key in ledger.raw)
            for field in ("Q", "Fp")
        ),
    ]
    _emit(ledger, passes, values, e2e_specs, extra)


if __name__ == "__main__":
    main()
