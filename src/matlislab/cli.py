"""Command-line front end.

    matlis-lab compute <cmd> --fixture <path> --module <name> [--out <path>]
    matlis-lab verify <suite> --fixture <path> [--trials N] [--seed S]
        [--json] [--out <path>]
    matlis-lab ring check --fixture <path>

Fixtures are JSON files; a bare name is resolved against the directory in
$MATLISLAB_FIXTURE_DIR (default: ./fixtures), trying the name as given and
with a ``.json`` suffix.  Exit status: 0 = all pass, 1 = at least one FAIL,
2 = input error (a MatlisLabError; an unusable --out path is rejected
before anything is computed), 3 = internal error (an unexpected
exception).
"""

import argparse
import json
import os
import sys

from .classes import gamma, is_p_member, is_s_member, kappa, uniserial_s
from .duality import matlis_dual
from .errors import (
    FixtureParseError,
    FixtureValidationError,
    MatlisLabError,
    NotUniserial,
    OutputPathError,
    UnknownModuleRef,
)
from .fixtures import format_submodule, format_vector, parse_fixture
from .modules import hom_space, uniserial_chain
from .suites import SUITES, run_suite

FIXTURE_DIR_VAR = "MATLISLAB_FIXTURE_DIR"

COMPUTE_COMMANDS = (
    "gamma",
    "kappa",
    "dual",
    "trace-basis",
    "member-P",
    "member-S",
    "uniserial-s",
)


def resolve_fixture(arg):
    if os.path.exists(arg):
        return arg
    base = os.environ.get(FIXTURE_DIR_VAR, "fixtures")
    for cand in (os.path.join(base, arg), os.path.join(base, arg + ".json")):
        if os.path.exists(cand):
            return cand
    raise FixtureParseError(
        "fixture %r not found (also searched %s)" % (arg, base)
    )


def _format_matrix(mat):
    return "[" + "; ".join(format_vector(row) for row in mat) + "]"


def run_compute(fx, command, module_ref):
    M = fx.module(module_ref)
    ctx = fx.ctx
    A = fx.algebra
    if command == "gamma":
        return "gamma = %s" % format_submodule(gamma(ctx, M))
    if command == "kappa":
        return "kappa = %s" % format_submodule(kappa(ctx, M))
    if command == "dual":
        Md = matlis_dual(M)
        lines = ["dim = %d" % Md.dim]
        for i, vname in enumerate(A.variables):
            lines.append(
                "action %s = %s"
                % (vname, _format_matrix(Md.action_of(A.var_elements[i])))
            )
        return "\n".join(lines)
    if command == "trace-basis":
        H = hom_space(ctx.I_mod, M)
        lines = ["hom-dim = %d" % len(H.basis)]
        for i, g in enumerate(H.basis):
            lines.append("map %d = %s" % (i, _format_matrix(g.matrix)))
        return "\n".join(lines)
    if command == "member-P":
        return "true" if is_p_member(ctx, M) else "false"
    if command == "member-S":
        return "true" if is_s_member(ctx, M) else "false"
    if command == "uniserial-s":
        n = len(uniserial_chain(M)) - 1
        s, _, _ = uniserial_s(ctx, M)
        return "s=%d gamma=M_%d kappa=M_%d" % (s, n - s, s)
    raise MatlisLabError("unknown compute command %r" % command)


def _check_out_path(out_path):
    """Reject an output path that cannot be a file, before any computation."""
    if os.path.isdir(out_path):
        raise OutputPathError("%s: is a directory" % out_path)
    parent = os.path.dirname(out_path) or "."
    if not os.path.isdir(parent):
        raise OutputPathError("%s: no directory %s" % (out_path, parent))


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise OutputPathError("%s: %s" % (out_path, exc))
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="matlis-lab",
        description="Exact computations with trace/reject functors over "
        "Artinian local algebras.",
    )
    sub = parser.add_subparsers(dest="topcmd", required=True)

    p_compute = sub.add_parser("compute", help="run one computation on a fixture module")
    p_compute.add_argument("command", choices=COMPUTE_COMMANDS)
    p_compute.add_argument("--fixture", required=True)
    p_compute.add_argument("--module", required=True)
    p_compute.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--fixture", required=True)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")
    p_verify.add_argument("--out")

    p_ring = sub.add_parser("ring", help="ring-level operations")
    ring_sub = p_ring.add_subparsers(dest="ringcmd", required=True)
    p_check = ring_sub.add_parser("check", help="validate the fixture's algebra")
    p_check.add_argument("--fixture", required=True)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out_path(args.out)
        fx = parse_fixture(resolve_fixture(args.fixture))
        if args.topcmd == "compute":
            _emit(run_compute(fx, args.command, args.module), args.out)
            return 0
        if args.topcmd == "verify":
            report = run_suite(fx, args.suite, trials=args.trials, seed=args.seed)
            if args.json:
                text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
            else:
                text = report.render()
            _emit(text, args.out)
            return 1 if report.has_fail() else 0
        if args.topcmd == "ring":
            A = fx.algebra
            sys.stdout.write(
                "ring OK: dim=%d vars=%s nilpotency=%d basis=%d monomials\n"
                % (A.dim, ",".join(A.variables), A.bound, len(A.basis))
            )
            return 0
    except (
        FixtureParseError,
        FixtureValidationError,
        UnknownModuleRef,
        NotUniserial,
    ) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except MatlisLabError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except Exception as exc:
        # a defect, not bad input; KeyboardInterrupt and SystemExit pass
        sys.stderr.write("error: internal error: %s: %s\n" % (type(exc).__name__, exc))
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
