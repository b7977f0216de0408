"""Command-line front end.

All sampling is driven by one seed per invocation; reports are JSON with
sorted keys on stdout so identical configs produce byte-identical output.
Human-oriented one-liners go to stderr.  Exit status: 0 all checks in scope
pass, 1 a check failed (names on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import algorithms, formula_engine, majorization, operator_lab, real_codes
from .finite_types import classify, format_type, hat, parse_type, pure_index

DEFAULT_TOL = float(os.environ.get("PROOFLAB_TOL", "1e-8"))

INSTANCE_ALIASES = {
    "soft_threshold": "abs_subdiff",
    "neg_half": "neg_half_identity",
    "box": "box_normal_cone",
}


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _fail(names: list[str]) -> int:
    sys.stderr.write("failed: " + ", ".join(names) + "\n")
    return 1


def _resolve_instance(name: str, seed: int) -> operator_lab.SetValuedOperator:
    key = INSTANCE_ALIASES.get(name, name)
    catalog = operator_lab.build_catalog(seed)
    if key not in catalog:
        raise SystemExit(f"unknown instance {name!r}; known: {', '.join(sorted(catalog))}")
    return catalog[key]


def _gamma_grid(op: operator_lab.SetValuedOperator, override: str | None) -> tuple[float, ...]:
    if override:
        try:
            return tuple(float(g) for g in override.split(","))
        except ValueError:
            raise SystemExit(f"bad gamma grid {override!r}") from None
    return operator_lab.COMONOTONE_GAMMAS if (op.rho is not None and op.rho < 0) \
        else operator_lab.STANDARD_GAMMAS


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
    with open(path, encoding="utf-8") as fh:
        return formula_engine.parse_formula(fh.read())


def cmd_translate(args) -> int:
    f = formula_engine.expand_defined(_read_formula(args.file))
    if args.mode == "nt":
        out = formula_engine.negative_translation(f)
        _emit({"mode": "nt", "output": formula_engine.format_formula(out)})
    else:
        form = formula_engine.dialectica(f)
        _emit(
            {
                "mode": "dialectica",
                "ex": [[n, str(t)] for n, t in form.ex_vars],
                "univ": [[n, str(t)] for n, t in form.univ_vars],
                "matrix": formula_engine.format_formula(form.matrix),
            }
        )
    return 0


def cmd_delta(args) -> int:
    f = _read_formula(args.file)
    shape = formula_engine.delta_recognize(f)
    if shape is None:
        _emit({"recognized": False})
        return _fail(["delta_shape"])
    skolem = formula_engine.skolemize_delta(shape)
    _emit(
        {
            "recognized": True,
            "a": [[n, str(t)] for n, t in shape.a_vars],
            "b": [[n, str(t), formula_engine.format_term(b)] for n, t, b in shape.b_vars],
            "c": [[n, str(t)] for n, t in shape.c_vars],
            "matrix": formula_engine.format_formula(shape.matrix),
            "skolemized": formula_engine.format_formula(skolem),
        }
    )
    return 0


def cmd_real(args) -> int:
    if args.verb != "canon":
        raise SystemExit(f"unknown real verb {args.verb!r}")
    try:
        r = Fraction(args.rational)
    except (ValueError, ZeroDivisionError):
        raise SystemExit(f"bad rational {args.rational!r}") from None
    if r < 0:
        raise SystemExit("canonical representation wants r >= 0")
    rep = real_codes.canonical_rep(r)
    rows = []
    for n in range(args.prec + 1):
        code = rep(n)
        rows.append({"n": n, "code": code.code, "decoded": str(real_codes.rat_value(code))})
    _emit({"rational": str(r), "prec": args.prec, "values": rows})
    return 0


def cmd_majorant(args) -> int:
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
    if args.verb == "bobs":
        op = _resolve_instance(args.instance, args.seed)
        result = majorization.bobs_uniform_majorant(op)
        if result is majorization.NOT_BOUNDED:
            _emit({"instance": args.instance, "seed": args.seed, "bounded": False})
            sys.stderr.write(f"{op.name}: no uniform majorant\n")
            return 0
        table = [result(n) for n in range(9)]
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(200):
            x = rng.uniform(-8, 8, size=op.dim)
            if not op.in_domain(x):
                continue
            n = math.ceil(operator_lab.l2(x))
            worst = max(worst, operator_lab.l2(op.selection(x)) - result(n))
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
    raise SystemExit(f"unknown majorant verb {args.verb!r}")


def cmd_oplab(args) -> int:
    if args.verb != "verify":
        raise SystemExit(f"unknown oplab verb {args.verb!r}")
    cfg = {"samples": args.samples, "tol": args.tol, "jobs": args.jobs}
    if args.config:
        for line in open(args.config, encoding="utf-8"):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in cfg:
                raise SystemExit(f"unknown config key {key!r}")
            cfg[key] = type(cfg[key])(value.strip())
    op = _resolve_instance(args.instance, args.seed)
    gammas = _gamma_grid(op, args.gamma_grid)
    samples, tol = cfg["samples"], cfg["tol"]
    # one child generator per check group, so no group's draws shift another's
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(args.seed).spawn(4)]
    kind, rho = ("comonotone", op.rho) if (op.rho or 0) < 0 else ("monotone", None)
    groups = {
        "class": [operator_lab.check_operator_class(op, kind, rngs[0], samples, rho=rho, tol=tol)],
        "resolvent": operator_lab.check_resolvent_properties(
            op, rngs[1], gammas, samples, tol=tol
        ).values(),
        "min_selection": operator_lab.check_minimal_norm_selection(
            op, rngs[2], max(20, samples // 5), tol=tol
        ).values(),
        "closedness": [operator_lab.graph_closedness_check(op, rngs[3])],
    }
    checks = {
        f"{group}.{rep.name}": rep.as_dict() for group, reps in groups.items() for rep in reps
    }
    failed = sorted(name for name, rep in checks.items() if not rep["passed"])
    _emit(
        {
            "instance": args.instance,
            "operator": op.name,
            "seed": args.seed,
            "gamma_grid": list(gammas),
            "samples": cfg["samples"],
            "tol": cfg["tol"],
            "checks": checks,
            "passed": not failed,
        }
    )
    return _fail(failed) if failed else 0


def _parse_point(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise SystemExit(f"bad point {text!r}: want comma-separated floats") from None


def cmd_run(args) -> int:
    op = _resolve_instance(args.instance, args.seed)
    x0 = _parse_point(args.x0)
    try:
        if args.algorithm == "ppa":
            trace = algorithms.proximal_point(op, x0, args.gamma, steps=args.steps)
        else:
            other = _resolve_instance(args.instance_s or args.instance, args.seed)
            trace = algorithms.moudafi_iteration(
                op, other, x0, mu=args.mu, lam=args.lam, steps=args.steps
            )
    except ValueError as exc:
        # schedule syntax, refused step sizes, dimension mismatches
        raise SystemExit(str(exc)) from None
    text = trace.to_csv() if args.format == "csv" else trace.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    zero = _parse_point(args.zero) if args.zero else None
    summary = algorithms.trace_report(trace, zero=zero)
    sys.stderr.write(
        f"{trace.algorithm}: {summary['iterations']} steps, "
        f"final residual {summary['final_step_residual']}\n"
    )
    if trace.diverged:
        return _fail(["divergence_guard"])
    return 0


def cmd_report(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        trace = algorithms.IterationTrace.from_json(fh.read())
    zero = _parse_point(args.zero) if args.zero else None
    report = algorithms.trace_report(trace, zero=zero)
    _emit(report)
    if zero is not None and not report["fejer_monotone"]:
        return _fail(["fejer_monotone"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for all sampling")
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
    p.add_argument("rational")
    p.add_argument("--prec", type=int, default=4)
    p.set_defaults(fn=cmd_real)

    p = sub.add_parser("majorant", parents=[common], help="majorant constructions")
    p.add_argument("verb", choices=["resolvent", "bobs"])
    p.add_argument("instance", nargs="?")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(fn=cmd_majorant)

    p = sub.add_parser("oplab", parents=[common], help="operator property verification")
    p.add_argument("verb", choices=["verify"])
    p.add_argument("instance")
    p.add_argument("--samples", type=int, default=300)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--gamma-grid", default=None)
    p.add_argument("--config", default=None, help="flat key=value overrides")
    p.add_argument("--jobs", type=int, default=1, help="accepted; has no effect on the output")
    p.set_defaults(fn=cmd_oplab)

    p = sub.add_parser("run", parents=[common], help="run an iteration and dump its trace")
    p.add_argument("algorithm", choices=["ppa", "moudafi"])
    p.add_argument("--instance", required=True)
    p.add_argument("--instance-s", default=None, help="second operator for moudafi")
    p.add_argument("--x0", required=True, help="comma-separated start point")
    p.add_argument("--gamma", default="const:1.0")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--zero", default=None, help="known zero for the stderr summary")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("report", parents=[common], help="summarize a stored trace")
    p.add_argument("file")
    p.add_argument("--zero", default=None)
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "majorant" and args.verb == "bobs" and not args.instance:
        build_parser().error("majorant bobs needs an instance name")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
