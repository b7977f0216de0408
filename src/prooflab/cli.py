"""Command-line front end.

All sampling is driven by one seed per invocation; reports are JSON with
sorted keys on stdout so identical configs produce byte-identical output.
Human-oriented one-liners go to stderr.  Exit status: 0 all checks in scope
pass, 1 a check failed (names on stderr), 2 bad input (nothing on stdout): a
flag value its argparse converter refuses, or an ``INPUT_ERRORS`` exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

# Only the stdlib, errors and finite_types load with this module (perfbench/tracing.py wraps
# cli.parse_type and cli.classify); each verb imports the modules it uses, so the symbolic
# verbs run without numpy.
from . import errors
from .finite_types import classify, format_type, hat, parse_type, pure_index

INSTANCE_ALIASES = {
    "soft_threshold": "abs_subdiff",
    "neg_half": "neg_half_identity",
    "box": "box_normal_cone",
}
# operator_lab.CATALOG's keys and the aliases, sorted; a test pins the two together
INSTANCES = ("abs_subdiff", "box", "box_normal_cone", "identity", "neg_half",
             "neg_half_identity", "psd_skew", "soft_threshold", "tan_subgradient")
INPUT_ERRORS = (
    OSError, UnicodeDecodeError, errors.TypeSyntaxError, errors.IllTypedApplication,
    errors.NoConvergence, errors.FormulaSyntaxError, errors.ScheduleSyntaxError,
    errors.TraceFormatError, errors.ComonotoneStepError, errors.NonPositiveGamma,
    errors.DimensionMismatch, errors.NonFiniteInput,
)


# argparse converters: a ValueError becomes argparse's "invalid <name> value: ..."
def _nonnegative(value, text: str):
    if value < 0:
        raise argparse.ArgumentTypeError(f"want a value >= 0, got {text!r}")
    return value


def natural(text: str) -> int:
    return _nonnegative(int(text), text)


def finite(text: str) -> float:
    if not math.isfinite(float(text)):
        raise argparse.ArgumentTypeError(f"want a finite number, got {text!r}")
    return float(text)


def tolerance(text: str) -> float:
    value = finite(text)
    if value <= 0:  # at 0, rounding alone fails correct resolvents
        raise argparse.ArgumentTypeError(f"want a value > 0, got {text!r}")
    return value


def float_list(text: str) -> list[float]:
    return [finite(v) for v in text.split(",")]


def rational(text: str) -> "Fraction":
    from fractions import Fraction  # only the real verb reads a rational

    try:
        return _nonnegative(Fraction(text), text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _fail(names: list[str]) -> int:
    sys.stderr.write("failed: " + ", ".join(names) + "\n")
    return 1


def _catalog_entry(name: str) -> "operator_lab.OperatorCatalogEntry":
    from . import operator_lab

    return operator_lab.CATALOG[INSTANCE_ALIASES.get(name, name)]


def _resolve_instance(name: str, seed: int) -> "operator_lab.SetValuedOperator":
    import numpy as np

    # psd_skew is the only entry that draws, so this equals build_catalog(seed)[key]
    return _catalog_entry(name).build(np.random.default_rng(seed))


def cmd_types(args) -> int:
    t = parse_type(args.type)
    info = classify(t)
    payload = {
        "input": args.type,
        "parsed": str(t),
        "shorthand": format_type(t, pure_shorthand=True),
        "degree": info.degree,
        "small": info.small,
        "admissible": info.admissible,
        "hat": str(hat(t)),
        "pure_index": pure_index(t),
    }
    _emit(payload)
    return 0


def _read_formula(path: str) -> "formula_engine.Formula":
    from . import formula_engine

    with open(path, encoding="utf-8") as fh:
        f = formula_engine.parse_formula(fh.read())
    formula_engine.typecheck_formula(f)
    return f


def cmd_translate(args) -> int:
    from . import formula_engine

    f = formula_engine.expand_defined(_read_formula(args.file))
    if args.mode == "nt":
        out = formula_engine.negative_translation(f)
        _emit({"mode": "nt", "output": formula_engine.format_formula(out)})
    else:
        form = formula_engine.dialectica(f)
        declared = dict(form.ex_vars + form.univ_vars)  # so the matrix prints them bare
        _emit(
            {
                "mode": "dialectica",
                "ex": [[n, str(t)] for n, t in form.ex_vars],
                "univ": [[n, str(t)] for n, t in form.univ_vars],
                "matrix": formula_engine.format_formula(form.matrix, declared),
            }
        )
    return 0


def cmd_delta(args) -> int:
    from . import formula_engine

    f = _read_formula(args.file)
    shape = formula_engine.delta_recognize(f)
    if shape is None:
        _emit({"recognized": False})
        return _fail(["delta_shape"])
    skolem = formula_engine.skolemize_delta(shape)
    outer = dict(shape.a_vars)  # the listed variables print bare in the bounds and the matrix
    inner = {**outer, **{n: t for n, t, _ in shape.b_vars}, **dict(shape.c_vars)}
    _emit(
        {
            "recognized": True,
            "a": [[n, str(t)] for n, t in shape.a_vars],
            "b": [[n, str(t), formula_engine.format_term(b, outer)] for n, t, b in shape.b_vars],
            "c": [[n, str(t)] for n, t in shape.c_vars],
            "matrix": formula_engine.format_formula(shape.matrix, inner),
            "skolemized": formula_engine.format_formula(skolem),
        }
    )
    return 0


def cmd_real(args) -> int:
    from . import real_codes

    rep = real_codes.canonical_rep(args.rational)
    rows = []
    for n in range(args.prec + 1):
        code = rep(n)
        rows.append({"n": n, "code": code.code, "decoded": str(real_codes.rat_value(code))})
    _emit({"rational": str(args.rational), "prec": args.prec, "values": rows})
    return 0


def cmd_majorant(args) -> int:
    import numpy as np

    from . import majorization, operator_lab

    if args.verb == "resolvent":
        maj = majorization.resolvent_majorant(args.n, args.m, args.l, args.k)
        grid = [
            {"alpha0": a0, "xstar": xs, "value": maj(lambda _n, a0=a0: a0)(xs)}
            for a0 in (0, 1, 2)
            for xs in (0, 1, 3)
        ]
        _emit(
            {
                "params": {"n": args.n, "m": args.m, "l": args.l, "k": args.k},
                "rule": f"xstar + {2 * args.k} + (2 + {2**args.m}*(alpha(0)+1))*{args.n}",
                "samples": grid,
            }
        )
        return 0
    op = _resolve_instance(args.instance, args.seed)
    result = majorization.bobs_uniform_majorant(op)
    if result is majorization.NOT_BOUNDED:
        _emit({"instance": args.instance, "seed": args.seed, "bounded": False})
        sys.stderr.write(f"{op.name}: no uniform majorant\n")
        return 0
    table = [result(n) for n in range(9)]
    X = np.random.default_rng(args.seed).uniform(-8, 8, size=(200, op.dim))
    lo, hi = op.value_box(X)
    inside = operator_lab._inside((lo, hi))
    bounds = [result(math.ceil(r)) for r in operator_lab._norms(X[inside]).tolist()]
    slack = operator_lab._norms(operator_lab._selection(lo[inside], hi[inside])) - bounds
    worst = max([0.0, *slack.tolist()])
    _emit(
        {
            "instance": args.instance,
            "seed": args.seed,
            "bounded": True,
            "table": table,
            "worst_slack": -worst + 0.0,
        }
    )
    return 0 if worst <= 0 else _fail(["bobs_majorant"])


def _config_flags(path: str, parser: argparse.ArgumentParser):
    """``key = value`` lines as ``--key=value`` flags, parsed by each flag's converter."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = (part.strip() for part in line.partition("="))
            if not key or key.startswith("#"):
                continue
            if key not in ("samples", "tol", "jobs"):
                parser.error(f"{path}: unknown config key {key!r}")
            yield f"--{key}={value}"


def cmd_oplab(args) -> int:
    import numpy as np

    from . import operator_lab

    op = _resolve_instance(args.instance, args.seed)
    gammas = args.gamma_grid or _catalog_entry(args.instance).gamma_grid
    groups = operator_lab.CHECK_GROUPS
    # one child generator per check group, so no group's draws shift another's
    rngs = map(np.random.default_rng, np.random.SeedSequence(args.seed).spawn(len(groups)))
    checks = {
        f"{group}.{rep.name}": rep.as_dict()
        for group, rng in zip(groups, rngs)
        for rep in operator_lab.check_group(op, group, rng, gammas, args.samples, args.tol)
    }
    failed = sorted(name for name, rep in checks.items() if not rep["passed"])
    _emit(
        {
            "instance": args.instance,
            "operator": op.name,
            "seed": args.seed,
            "gamma_grid": list(gammas),
            "samples": args.samples,
            "tol": args.tol,
            "checks": checks,
            "passed": not failed,
        }
    )
    return _fail(failed) if failed else 0


def cmd_run(args) -> int:
    from . import algorithms

    op = _resolve_instance(args.instance, args.seed)
    if args.algorithm == "ppa":
        trace = algorithms.proximal_point(op, args.x0, args.gamma, steps=args.steps)
    else:
        other = _resolve_instance(args.instance_s or args.instance, args.seed)
        trace = algorithms.moudafi_iteration(
            op, other, args.x0, mu=args.mu, lam=args.lam, steps=args.steps
        )
    summary = algorithms.trace_report(trace, zero=args.zero)
    text = trace.to_csv() if args.format == "csv" else trace.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(
        f"{trace.algorithm}: {summary['iterations']} steps, "
        f"final residual {summary['final_step_residual']}\n"
    )
    return _fail(["divergence_guard"]) if trace.diverged else 0


def cmd_report(args) -> int:
    from . import algorithms

    with open(args.file, encoding="utf-8") as fh:
        trace = algorithms.IterationTrace.from_json(fh.read())
    report = algorithms.trace_report(trace, zero=args.zero)
    _emit(report)
    if args.zero is not None and not report["fejer_monotone"]:
        return _fail(["fejer_monotone"])
    return 0


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The CLI's parser and its ``oplab`` subparser, built once per process; ``main`` sets
    the one default that reads the environment, ``--tol``'s, on every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=natural, default=0, help="seed for all sampling")
    parser = argparse.ArgumentParser(prog="prooflab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("types", parents=[common], help="parse and classify a finite type")
    p.add_argument("type")
    p.set_defaults(fn=cmd_types)

    p = sub.add_parser(
        "translate", parents=[common], help="negative translation or functional interpretation"
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--nt", dest="mode", action="store_const", const="nt")
    mode.add_argument("--dialectica", dest="mode", action="store_const", const="dialectica")
    p.add_argument("file")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("delta", parents=[common], help="recognize and Skolemize the bounded shape")
    p.add_argument("file")
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("real", parents=[common], help="rational and real code utilities")
    p.add_argument("verb", choices=["canon"])
    p.add_argument("rational", type=rational)
    p.add_argument("--prec", type=natural, default=4)
    p.set_defaults(fn=cmd_real)

    p = sub.add_parser("majorant", parents=[common], help="majorant constructions")
    p.add_argument("verb", choices=["resolvent", "bobs"])
    p.add_argument("instance", nargs="?", choices=INSTANCES, metavar="instance")
    p.add_argument("--n", type=natural, default=0)
    p.add_argument("--m", type=natural, default=0)
    p.add_argument("--l", type=natural, default=0)
    p.add_argument("--k", type=natural, default=0)
    p.set_defaults(fn=cmd_majorant)

    p = sub.add_parser("oplab", parents=[common], help="operator property verification")
    p.add_argument("verb", choices=["verify"])
    p.add_argument("instance", choices=INSTANCES, metavar="instance")
    p.add_argument("--samples", type=natural, default=300)
    p.add_argument("--tol", type=tolerance, help="also PROOFLAB_TOL")
    p.add_argument("--gamma-grid", type=float_list, default=None)
    p.add_argument("--config", default=None, help="flat key=value overrides")
    p.add_argument("--jobs", type=natural, default=1, help="accepted; has no effect on the output")
    p.set_defaults(fn=cmd_oplab)

    p = sub.add_parser("run", parents=[common], help="run an iteration and dump its trace")
    p.add_argument("algorithm", choices=["ppa", "moudafi"])
    p.add_argument("--instance", required=True, choices=INSTANCES, metavar="NAME")
    p.add_argument("--instance-s", choices=INSTANCES, metavar="NAME", help="moudafi's S operator")
    p.add_argument("--x0", type=float_list, required=True, help="comma-separated start point")
    p.add_argument("--gamma", default="const:1.0")
    p.add_argument("--mu", type=finite, default=1.0)
    p.add_argument("--lam", type=finite, default=1.0)
    p.add_argument("--steps", type=natural, default=100)
    p.add_argument("--zero", type=float_list, help="known zero for the stderr summary")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", parents=[common], help="summarize a stored trace")
    p.add_argument("file")
    p.add_argument("--zero", type=float_list)
    p.set_defaults(fn=cmd_report)
    return parser, sub.choices["oplab"]


def main(argv=None) -> int:
    parser, oplab = build_parser()
    # --tol's default, read on every call; argparse converts a string default like a --tol
    # value, so a bad PROOFLAB_TOL is refused as a bad --tol is, and only by verbs that take it
    oplab.set_defaults(tol=os.environ.get("PROOFLAB_TOL", "1e-8"))
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if args.command == "majorant" and args.verb == "bobs" and not args.instance:
        parser.error("majorant bobs needs an instance name")
    try:
        if getattr(args, "config", None):
            args = parser.parse_args([*argv, *_config_flags(args.config, parser)])
        return args.fn(args)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"prooflab: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
