"""The four workloads: seeded op lists and the reference judgement of each op.

An op is one blocking call into prooflab: ``prooflab.cli.main(argv)`` with
stdout and stderr captured, or one public library function.  Inputs come
only from the workload's ``random.Random`` and from ``reference``; the
program sees argv lists, files and terms, never the generator.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

INSTANCES = ("identity", "psd_skew", "soft_threshold", "box", "neg_half", "tan_subgradient")
DIMS = {"identity": 2, "psd_skew": 6, "soft_threshold": 1, "box": 3, "neg_half": 2,
        "tan_subgradient": 1}


@dataclass
class Verdict:
    """``reason`` is ``None`` when the output matches its reference."""

    reason: str | None = None
    work: int = 0
    counters: dict = field(default_factory=dict)


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    judge: Callable[[object, dict], Verdict]
    instance: str | None = None
    group: str = ""


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    error: str | None


def cli_call(cli, argv: list[str]) -> CliResult:
    """``prooflab.cli.main(argv)`` in-process, mapped to what a shell sees."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            if exc.code is None or isinstance(exc.code, int):
                code = exc.code or 0
            else:
                err.write(f"{exc.code}\n")
                code = 1
        except Exception as exc:  # an uncaught exception is a traceback for the user
            return CliResult(None, out.getvalue(), err.getvalue(), type(exc).__name__)
    return CliResult(code, out.getvalue(), err.getvalue(), None)


def _cli_op(m, op_id, argv, judge, instance=None, group="") -> Op:
    cli = m["cli"]
    return Op(op_id, lambda: cli_call(cli, argv), judge, instance, group)


def _json_out(res: CliResult, want_code: int = 0) -> tuple[dict | None, str | None]:
    if res.error:
        return None, f"raised {res.error}"
    if res.code != want_code:
        return None, f"exit {res.code}, want {want_code}"
    try:
        return json.loads(res.stdout), None
    except ValueError:
        return None, "stdout is not JSON"


def _usage_error(res: CliResult, _seen=None) -> Verdict:
    """Bad input: exit 2 with a message, no traceback."""
    if res.error:
        return Verdict(f"raised {res.error}")
    if res.code != 2:
        return Verdict(f"exit {res.code}, want 2")
    if not res.stderr.strip():
        return Verdict("no message on stderr")
    return Verdict()


# ---------------------------------------------------------------- oplab_verify


def _judge_verify(instance: str, samples: int, twin: str | None = None):
    expected = ref.expected_checks(instance)

    def judge(res: CliResult, seen: dict) -> Verdict:
        if res.error:
            return Verdict(f"raised {res.error}")
        try:
            rep = json.loads(res.stdout)
        except ValueError:
            return Verdict(f"exit {res.code}, stdout is not JSON")
        checks = rep["checks"]
        recorded = sum(c["checks"] for c in checks.values())
        zero = sorted(n for n, c in checks.items() if c["checks"] == 0)
        counters = {"checks_recorded": recorded, "zero_coverage_reports": len(zero)}
        problems = []
        if zero:
            problems.append("zero coverage: " + ",".join(zero))
        if set(checks) != expected:
            problems.append("check set differs: " + ",".join(sorted(set(checks) ^ expected)))
        bad = sorted(n for n, c in checks.items()
                     if c["checks"] and (c["violations"] or not c["passed"]))
        if bad:
            problems.append("violations: " + ",".join(bad))
        if rep["samples"] != samples or rep["passed"] != (not problems):
            problems.append("report header disagrees")
        if res.code != (1 if problems else 0):
            problems.append(f"exit {res.code}")
        if twin is not None and twin in seen and seen[twin].stdout != res.stdout:
            problems.append("--jobs 2 output differs from --jobs 1")
        return Verdict("; ".join(problems) or None, recorded, counters)

    return judge


def _judge_bobs(instance: str):
    def judge(res: CliResult, _seen) -> Verdict:
        rep, why = _json_out(res)
        if why:
            return Verdict(why)
        if instance in ref.UNBOUNDED:
            return Verdict(None if rep["bounded"] is False else "bounded on an unbounded operator")
        table = rep.get("table") or []
        floor = ref.MAJORANT_FLOOR[instance]
        ok = (rep["bounded"] is True and len(table) == 9
              and all(a <= b for a, b in zip(table, table[1:]))
              and all(v >= floor(n) for n, v in enumerate(table))
              and rep["worst_slack"] >= 0)
        return Verdict(None if ok else "majorant table is not a uniform majorant")

    return judge


# large-sample op per instance: the default 300 where a sample is cheap,
# 150 on the three costliest instances, so that a 25 s run holds 4 passes
LARGE_SAMPLES = {"identity": 150, "psd_skew": 150, "soft_threshold": 300, "box": 300,
                 "neg_half": 300, "tan_subgradient": 150}
JOBS2_TWINS = ("identity", "box", "tan_subgradient")


def oplab_verify(rng, m, tmp: Path):
    """Six catalog instances at 30 and 60 samples (three with a --jobs 2
    twin) and at 150 or the default 300, plus majorant bobs on each."""
    ops = []
    for inst in INSTANCES:
        tiny = ["oplab", "verify", inst, "--samples", "30", "--seed", str(rng.randrange(10**6))]
        ops.append(_cli_op(m, f"verify-{inst}-s30", tiny, _judge_verify(inst, 30), inst))
        seed = str(rng.randrange(10**6))
        small = ["oplab", "verify", inst, "--samples", "60", "--seed", seed]
        j1, j2 = f"verify-{inst}-s60-j1", f"verify-{inst}-s60-j2"
        ops.append(_cli_op(m, j1, small, _judge_verify(inst, 60), inst, f"jobs1:{inst}"))
        if inst in JOBS2_TWINS:
            ops.append(_cli_op(m, j2, small + ["--jobs", "2"], _judge_verify(inst, 60, twin=j1),
                               inst, f"jobs2:{inst}"))
        n = LARGE_SAMPLES[inst]
        big = ["oplab", "verify", inst, "--samples", str(n), "--seed", str(rng.randrange(10**6))]
        ops.append(_cli_op(m, f"verify-{inst}-s{n}", big, _judge_verify(inst, n), inst))
        bobs = ["majorant", "bobs", inst, "--seed", str(rng.randrange(10**6))]
        ops.append(_cli_op(m, f"bobs-{inst}", bobs, _judge_bobs(inst), inst))
    deep = [
        _cli_op(m, "deep/verify-box-s60-seed1",
                ["oplab", "verify", "box", "--samples", "60", "--seed", "1"],
                _judge_verify("box", 60), "box"),
        _cli_op(m, "deep/verify-box-s60-seed5",
                ["oplab", "verify", "box", "--samples", "60", "--seed", "5"],
                _judge_verify("box", 60), "box"),
        _cli_op(m, "deep/verify-unknown-instance", ["oplab", "verify", "no_such_instance"],
                _usage_error),
        _cli_op(m, "deep/verify-neg_half-gamma-0.5",
                ["oplab", "verify", "neg_half", "--gamma-grid", "0.5"], _usage_error, "neg_half"),
    ]
    return ops, deep


# ---------------------------------------------------------------- prox_iterate


def _read_trace(path: Path, fmt: str) -> tuple[list[list[float]], list[float]]:
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        data = json.loads(text)
        return [list(map(float, p)) for p in data["points"]], list(map(float, data["gammas"]))
    rows = list(csv.reader(io.StringIO(text)))
    dim = sum(1 for h in rows[0] if h.startswith("x"))
    points = [[float(v) for v in r[1:1 + dim]] for r in rows[1:]]
    gammas = [float(r[1 + dim]) for r in rows[2:]]
    return points, gammas


def _dist(p, z) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, z)))


def _judge_ppa(instance: str, path: Path, fmt: str, schedule: str, steps: int):
    def judge(res: CliResult, _seen) -> Verdict:
        if res.error:
            return Verdict(f"raised {res.error}")
        if res.code != 0:
            return Verdict(f"exit {res.code}, want 0")
        points, gammas = _read_trace(path, fmt)
        n = len(points) - 1
        verdict = Verdict(None, n, {"iterations": n})
        if not all(math.isfinite(v) for p in points for v in p):
            verdict.reason = "non-finite iterate"
        elif n > steps or len(gammas) != n or not ref.close(
                gammas, [ref.gamma_at(schedule, k) for k in range(n)]):
            verdict.reason = "step sizes or length disagree with the schedule"
        elif instance == "tan_subgradient":
            verdict.reason = _tan_problem(points, gammas, schedule, steps)
        else:
            verdict.reason = _closed_form_problem(instance, points, gammas, steps)
        if verdict.reason is None and instance != "tan_subgradient":
            d = [_dist(p, [0.0] * len(p)) for p in points]
            if any(b > a + 1e-9 * max(1.0, a) for a, b in zip(d, d[1:])):
                verdict.reason = "not Fejer monotone toward the zero"
        return verdict

    return judge


def _closed_form_problem(instance, points, gammas, steps) -> str | None:
    if instance == "psd_skew":  # the matrix is the program's; Fejer check only
        return None
    for k, g in enumerate(gammas):
        if ref.at_zero(instance, points[k]):
            return f"ran on past a zero at step {k}"
        if not ref.close(points[k + 1], ref.closed_form_resolvent(instance, g, points[k])):
            return f"iterate {k + 1} is not the resolvent of iterate {k}"
    stopped_early = len(points) - 1 < steps
    if stopped_early != ref.at_zero(instance, points[-1]):
        return "stopping rule disagrees with the minimal-norm value"
    return None


def _tan_problem(points, gammas, schedule, steps) -> str | None:
    xs = [p[0] for p in points]
    for k, g in enumerate(gammas):
        p, x = xs[k + 1], xs[k]
        if not 0 < p < x < math.pi / 2 or abs(p + g / math.cos(p) ** 2 - x) > 1e-9 * max(1, x):
            return f"iterate {k + 1} does not solve p + gamma tan'(p) = x"
    n = len(xs) - 1
    if n < steps and xs[-1] > ref.gamma_at(schedule, n):
        return "stopped inside the resolvent domain"
    return None


def _judge_report(path: Path):
    def judge(res: CliResult, _seen) -> Verdict:
        rep, why = _json_out(res)
        if why:
            return Verdict(why)
        points, _ = _read_trace(path, "json")
        dist = _dist(points[-1], [0.0] * len(points[-1]))
        ok = (rep["iterations"] == len(points) - 1 and rep["fejer_monotone"] is True
              and abs(rep["distance_to_zero"] - dist) <= 1e-12 * max(1.0, dist))
        return Verdict(None if ok else "report disagrees with the trace")

    return judge


def _judge_moudafi(instance: str, path: Path, mu: float, lam: float, steps: int):
    def judge(res: CliResult, _seen) -> Verdict:
        if res.error:
            return Verdict(f"raised {res.error}")
        if res.code != 0:
            return Verdict(f"exit {res.code}, want 0")
        points, _ = _read_trace(path, "json")
        n = len(points) - 1
        verdict = Verdict(None, n, {"iterations": n})
        if n > steps or not all(math.isfinite(v) for p in points for v in p):
            verdict.reason = "trace is too long or not finite"
        elif instance in ("identity", "soft_threshold", "box", "neg_half"):
            for k in range(n):
                x = points[k]
                jt = ref.closed_form_resolvent(instance, lam, x)
                shifted = [a + mu * (a - b) / lam for a, b in zip(x, jt)]
                if not ref.close(points[k + 1], ref.closed_form_resolvent(instance, mu, shifted)):
                    verdict.reason = f"iterate {k + 1} is not the Moudafi step of iterate {k}"
                    break
            else:
                last = _dist(points[-1], points[-2]) if n else 0.0
                if n < steps and last > 2e-9:
                    verdict.reason = "stopped before the fixed-point test passed"
        return verdict

    return judge


def _fmt_point(x: list[float]) -> str:
    return ",".join(repr(v) for v in x)


def _ppa_params(rng, inst: str, kind: str) -> tuple[list[float], str, int]:
    """Start point, schedule and step cap; long runs where the instance allows."""
    dim, steps = DIMS[inst], 1000
    if inst in ("identity", "psd_skew"):
        x0 = [rng.choice((-1, 1)) * rng.uniform(1, 5) for _ in range(dim)]
        c = rng.uniform(0.004, 0.008)
        sched = {"const": f"const:{c!r}", "harmonic": f"harmonic:{rng.uniform(0.5, 1.0)!r}",
                 "geom": f"geom:{c!r},0.999"}[kind]
    elif inst == "soft_threshold":
        a = rng.uniform(2, 6)
        x0 = [rng.choice((-1, 1)) * a]
        if kind == "const":  # reaches the zero after exactly `hit` steps
            hit = rng.choice((400, 700, 900))
            sched = f"const:{a / (hit - 0.5)!r}"
        elif kind == "harmonic":  # c * H_1000 < |x0|: never reaches it
            sched = f"harmonic:{a / (7.49 * rng.uniform(1.1, 1.5))!r}"
        else:  # c / (1 - q) < |x0|
            sched = f"geom:{a * 0.001 / rng.uniform(1.1, 1.5)!r},0.999"
    elif inst == "box":
        x0 = [rng.uniform(-4, 4) for _ in range(dim)]
        sched = {"const": f"const:{rng.uniform(0.5, 2)!r}", "harmonic": "harmonic:1.0",
                 "geom": "geom:1.0,0.5"}[kind]
    elif inst == "neg_half":  # step sizes stay above 4 = -2 * rho
        x0 = [rng.uniform(-5, 5) for _ in range(dim)]
        sched = {"const": f"const:{rng.uniform(6, 10)!r}", "harmonic": "harmonic:400",
                 "geom": f"geom:{rng.uniform(8, 10)!r},0.999"}[kind]
    else:  # tan_subgradient: walks down until x <= gamma leaves the domain
        x0 = [rng.uniform(1.0, 1.5)]
        sched = {"const": f"const:{rng.uniform(0.004, 0.008)!r}",
                 "harmonic": f"harmonic:{rng.uniform(0.05, 0.1)!r}",
                 "geom": f"geom:{rng.uniform(0.004, 0.008)!r},0.999"}[kind]
    return x0, sched, steps


MOUDAFI_STEPS = {"identity": (0.5, 0.5), "psd_skew": (0.05, 0.05), "soft_threshold": (0.05, 0.05),
                 "box": (0.5, 0.5), "neg_half": (8.0, 8.0), "tan_subgradient": (0.002, 0.002)}


def prox_iterate(rng, m, tmp: Path):
    """PPA with three schedules and two output formats, report on each JSON
    trace, and one Moudafi run, on every instance."""
    ops = []
    for inst in INSTANCES:
        seed = str(rng.randrange(10**6))
        zero = [f"--zero={_fmt_point([0.0] * DIMS[inst])}"] if inst != "tan_subgradient" else []
        for kind in ("const", "harmonic", "geom"):
            x0, sched, steps = _ppa_params(rng, inst, kind)
            for fmt in ("json", "csv"):
                path = tmp / f"ppa-{inst}-{kind}.{fmt}"
                argv = ["run", "ppa", "--instance", inst, f"--x0={_fmt_point(x0)}", "--gamma", sched,
                        "--steps", str(steps), "--out", str(path), "--format", fmt,
                        "--seed", seed] + zero
                ops.append(_cli_op(m, f"ppa-{inst}-{kind}-{fmt}", argv,
                                   _judge_ppa(inst, path, fmt, sched, steps), inst))
            if zero:
                path = tmp / f"ppa-{inst}-{kind}.json"
                ops.append(_cli_op(m, f"report-{inst}-{kind}", ["report", str(path)] + zero,
                                   _judge_report(path), inst))
        mu, lam = MOUDAFI_STEPS[inst]
        x0, _, _ = _ppa_params(rng, inst, "const")
        path = tmp / f"moudafi-{inst}.json"
        argv = ["run", "moudafi", "--instance", inst, f"--x0={_fmt_point(x0)}", "--mu", repr(mu),
                "--lam", repr(lam), "--steps", "1000", "--out", str(path), "--seed", seed]
        ops.append(_cli_op(m, f"moudafi-{inst}", argv,
                           _judge_moudafi(inst, path, mu, lam, 1000), inst))
    deep = [_cli_op(m, "deep/run-ppa-x0-nan",
                    ["run", "ppa", "--instance", "soft_threshold", "--x0", "nan",
                     "--out", str(tmp / "nan.json")], _usage_error, "soft_threshold")]
    return ops, deep


# -------------------------------------------------------------- term_normalize


class TermGenerator:
    """Well-typed closed terms built top-down: pick a head whose result type
    fits the target, then fill its arguments one level shallower."""

    def __init__(self, tc):
        self.tc = tc
        zero = tc.ZERO_CONST.type
        self.zero = zero
        self.heads = [tc.SUCC, tc.PRED, tc.MONUS, tc.identity_term(zero),
                      tc.proj_const(zero, zero), tc.proj_const(zero, tc.TYPE_ONE),
                      tc.sigma_const(zero, zero, zero), tc.rec_const(zero)]
        self._options: dict = {}

    def options(self, target) -> list:
        """(head, arity) pairs whose result after ``arity`` arguments is ``target``."""
        if target not in self._options:
            out = []
            for head in self.heads:
                t, arity = ref.combinator_type(head), 0
                while True:
                    if t == target:
                        out.append((head, arity))
                    if not hasattr(t, "argument"):
                        break
                    t, arity = t.result, arity + 1
            self._options[target] = out
        return self._options[target]

    def term(self, rng, target, depth: int):
        if target == self.zero and (depth <= 0 or rng.random() < 0.25):
            return self.tc.numeral(rng.randrange(4))
        options = self.options(target)
        if depth <= 0:
            options = [o for o in options if o[1] == 0] or options
        head, arity = rng.choice(options)
        t, t_type = head, ref.combinator_type(head)
        for _ in range(arity):
            t = self.tc.App(t, self.term(rng, t_type.argument, depth - 1))
            t_type = t_type.result
        return t


def _has_redex(t) -> bool:
    stack = [t]
    while stack:
        s = stack.pop()
        args = []
        while hasattr(s, "fun"):
            args.append(s.arg)
            s = s.fun
        kind = getattr(s, "kind", None)
        if kind == "proj" and len(args) >= 2 or kind == "sigma" and len(args) >= 3:
            return True
        if kind == "rec" and len(args) >= 3:
            n = args[-3]
            if getattr(n, "kind", None) == "zero" or getattr(getattr(n, "fun", None), "kind",
                                                            None) == "succ":
                return True
        stack.extend(args)
    return False


def _judge_reduce(term, zero, want_value: int | None = None):
    want_type = ref.combinator_type(term)
    if want_value is None and want_type == zero:
        want_value = ref.denote(term)

    def judge(red, _seen) -> Verdict:
        v = Verdict(None, red.steps, {"reduction_steps": red.steps})
        if not red.normal or _has_redex(red.term):
            v.reason = "not a normal form"
        elif ref.combinator_type(red.term) != want_type:
            v.reason = "reduction changed the type"
        elif want_value is not None and ref.numeral_of(red.term) != want_value:
            v.reason = f"normal form is not the numeral {want_value}"
        return v

    return judge


def _judge_typecheck(term):
    want = ref.combinator_type(term)
    return lambda got, _seen: Verdict(None if got == want else f"typed {got}, want {want}")


# terms per pass by node count (upper edge, count), close to what the
# generator yields unconstrained; fixing the mix keeps a pass's cost from
# swinging with the seed
SIZE_QUOTAS = ((4, 615), (8, 400), (16, 160), (32, 325), (64, 205), (128, 780), (None, 515))
# four ops a rung: the tail op (eleventh heaviest) is a fixed monus 60 30
MONUS_RUNGS = (20, 40, 60, 80, 160)


def term_normalize(rng, m, tmp: Path):
    """Random well-typed terms (reduce and typecheck each), plus monus and
    pred on a ladder of growing numerals."""
    tc = m["term_calculus"]
    zero = tc.ZERO_CONST.type
    one = tc.TYPE_ONE
    targets = (zero, zero, zero, zero, one, tc.Arrow(one, zero))
    gen = TermGenerator(tc)
    left = dict(SIZE_QUOTAS)
    terms = []
    while any(left.values()):
        t = gen.term(rng, rng.choice(targets), 3)
        size = ref.term_size(t)
        edge = next(e for e, _ in SIZE_QUOTAS if e is None or size <= e)
        if left[edge]:
            left[edge] -= 1
            terms.append(t)
    ops = []
    for i, t in enumerate(terms):
        ops.append(Op(f"reduce-{i}", lambda t=t: tc.reduce_term(t, fuel=200_000),
                      _judge_reduce(t, zero)))
        ops.append(Op(f"typecheck-{i}", lambda t=t: tc.typecheck(t), _judge_typecheck(t)))
    for rung in MONUS_RUNGS:
        for k in range(4):
            t = tc.app(tc.MONUS, tc.numeral(rung), tc.numeral(rung // 2))
            ops.append(Op(f"monus-{rung}-{k}", lambda t=t: tc.reduce_term(t, fuel=10**7),
                          _judge_reduce(t, zero, rung - rung // 2), group=f"monus:{rung}"))
            t = tc.App(tc.PRED, tc.numeral(rung + k))
            ops.append(Op(f"pred-{rung}-{k}", lambda t=t: tc.reduce_term(t, fuel=10**7),
                          _judge_reduce(t, zero, rung + k - 1)))
    deep_numeral = tc.numeral(5000)
    refusal = tc.app(tc.MONUS, tc.numeral(40), tc.numeral(20))

    def judge_refusal(red, _seen) -> Verdict:
        ok = not red.normal and red.steps == 100
        return Verdict(None if ok else "fuel bound not honoured")

    deep = [
        Op("deep/typecheck-numeral-5000", lambda: tc.typecheck(deep_numeral),
           lambda got, _seen: Verdict(None if got == zero else f"typed {got}")),
        Op("deep/reduce-fuel-100", lambda: tc.reduce_term(refusal, fuel=100), judge_refusal),
    ]
    return ops, deep


# ------------------------------------------------------------- symbolic_oracle

ORACLE_CARRIER = 4
ORACLE_BUDGET = 20_000
# formulas per pass by witness-space size at carrier {0..4}.  A "huge"
# formula costs milliseconds when true and tens to hundreds when false (the
# witness search runs to the end), so fixed quotas per size and, for "huge",
# per truth value keep a pass's cost and its tail op steady across seeds
STRATA = (("flat", 1, 1, 360), ("small", 2, 25, 720), ("medium", 26, 625, 360),
          ("large", 626, 3125, 48), ("huge", 3126, ORACLE_BUDGET, 36),
          ("refused", None, None, 144))
VAR_NAMES = ("x", "y", "u", "v")


def _gen_term(rng, ctx, depth):
    if ctx and rng.random() < 0.65:
        t = ("var", rng.choice(ctx))
    else:
        t = ("num", rng.randrange(3))
    for _ in range(rng.randrange(depth + 1)):
        t = ("succ", t)
    return t


def random_formula(rng, ctx=(), depth=3, quants=2):
    """Closed first-order formula over type 0, quantifier depth at most two."""
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        return (rng.choice(("=", "<=")), _gen_term(rng, ctx, 1), _gen_term(rng, ctx, 1))
    if roll < 0.62 and quants > 0:
        name = VAR_NAMES[len(ctx) % 4] + str(len(ctx))
        return (rng.choice(("forall", "exists")), name,
                random_formula(rng, ctx + (name,), depth - 1, quants - 1))
    return (rng.choice(("and", "or", "->")), random_formula(rng, ctx, depth - 1, quants),
            random_formula(rng, ctx, depth - 1, quants))


def _stratum(f, work) -> str:
    for name, lo, hi, _ in STRATA:
        if lo is not None and work is not None and lo <= work <= hi:
            return f"{name}-{ref.truth(f, ORACLE_CARRIER)}" if name == "huge" else name
    return "refused"


def to_program(f, m):
    """The prooflab ``Formula`` for a generated tuple formula."""
    fe, tc = m["formula_engine"], m["term_calculus"]
    zero = tc.ZERO_CONST.type

    def term(t):
        if t[0] == "num":
            return tc.numeral(t[1])
        if t[0] == "var":
            return tc.Var(t[1], zero)
        return tc.App(tc.SUCC, term(t[1]))

    def walk(g):
        head = g[0]
        if head in ("=", "<="):
            return (fe.Prime if head == "=" else fe.Leq0)(term(g[1]), term(g[2]))
        if head in ("and", "or", "->"):
            cls = {"and": fe.And, "or": fe.Or, "->": fe.Implies}[head]
            return cls(walk(g[1]), walk(g[2]))
        return (fe.Forall if head == "forall" else fe.Exists)(g[1], zero, walk(g[2]))

    return walk(f)


def _judge_oracle(f, work):
    refuse = work is None or work > ORACLE_BUDGET
    direct = ref.truth(f, ORACLE_CARRIER)

    def judge(rep, _seen) -> Verdict:
        if rep == "refused":
            reason = None if refuse else "refused a formula inside the budget"
            return Verdict(reason, 0, {"refusals": 1})
        if refuse:
            reason = "decided a formula outside the budget"
        elif rep.model_size != ORACLE_CARRIER or rep.direct != direct:
            reason = "direct truth disagrees with the reference evaluator"
        elif not rep.all_agree:
            reason = "translations disagree with direct truth"
        else:
            reason = None
        return Verdict(reason, 1, {"refusals": 0})

    return judge


def _oracle_call(m, formula):
    fe = m["formula_engine"]
    model = m["term_calculus"].FiniteModel(ORACLE_CARRIER)
    try:
        return fe.check_interpretation_soundness(formula, model, budget=ORACLE_BUDGET)
    except fe.EnumerationBudgetExceeded:
        return "refused"


def _judge_translate_nt(f):
    want = ref.truth(f, ORACLE_CARRIER)

    def judge(res, _seen) -> Verdict:
        out, why = _json_out(res)
        if why:
            return Verdict(why)
        got = ref.truth(ref.formula_from_text(out["output"]), ORACLE_CARRIER)
        return Verdict(None if got == want else "negative translation changed the truth value")

    return judge


def _judge_translate_dialectica(f):
    ex, univ = ref.witness_types(f)
    want = ([ref.type_text(t) for t in ex], [ref.type_text(t) for t in univ])

    def judge(res, _seen) -> Verdict:
        out, why = _json_out(res)
        if why:
            return Verdict(why)
        got = ([t for _, t in out["ex"]], [t for _, t in out["univ"]])
        if got != want:
            return Verdict("witness types differ from the Dialectica clauses")
        qf = ref.is_quantifier_free_text(ref.read_sexpr(out["matrix"]))
        return Verdict(None if qf else "matrix has a quantifier")

    return judge


def _bounded_shape(rng) -> tuple[str, dict]:
    """``forall a.. existsleq b <= r(a) forall c.. matrix`` with its parts."""
    a = [f"a{i}" for i in range(rng.choice((1, 2)))]
    c = ["c9"] if rng.random() < 0.5 else []
    bound = ref.term_text(_gen_term(rng, tuple(a), 2))
    names = tuple(a + ["b5"] + c)
    atoms = [(rng.choice(("=", "<=")), _gen_term(rng, names, 1), _gen_term(rng, names, 1))
             for _ in range(2)]
    matrix = ref.formula_text((rng.choice(("and", "or", "->")), atoms[0], atoms[1]))
    text = f"(existsleq (b5 0) {bound} " + (f"(forall (c9 0) {matrix})" if c else matrix) + ")"
    for name in reversed(a):
        text = f"(forall ({name} 0) {text})"
    want = {"a": [[n, "0"] for n in a], "b": [["b5", "0", bound]], "c": [[n, "0"] for n in c]}
    return text, want


def _judge_delta(want):
    def judge(res, _seen) -> Verdict:
        out, why = _json_out(res)
        if why:
            return Verdict(why)
        got = {k: out.get(k) for k in ("a", "b", "c")}
        ok = out.get("recognized") is True and got == want and "skolemized" in out
        return Verdict(None if ok else "bounded shape not recovered")

    return judge


def _judge_not_delta(res, _seen) -> Verdict:
    out, why = _json_out(res, want_code=1)
    if why:
        return Verdict(why)
    return Verdict(None if out == {"recognized": False} else "recognized an unbounded formula")


def _random_fin_type(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return rng.choice(("0", "X", ("pure", rng.randrange(1, 4))))
    return ("arrow", _random_fin_type(rng, depth - 1), _random_fin_type(rng, depth - 1))


def _judge_types(t, text):
    want = ref.type_facts(t)

    def judge(res, _seen) -> Verdict:
        out, why = _json_out(res)
        if why:
            return Verdict(why)
        got = {k: out[k] for k in want}
        return Verdict(None if got == want and out["input"] == text else f"classified as {got}")

    return judge


def _judge_real(r: Fraction, prec: int):
    def judge(res, _seen) -> Verdict:
        out, why = _json_out(res)
        if why:
            return Verdict(why)
        rows = out["values"]
        ok = (out["rational"] == str(r) and [row["n"] for row in rows] == list(range(prec + 1))
              and all(ref.canonical_row_ok(r, row["n"], row["code"], row["decoded"])
                      for row in rows))
        return Verdict(None if ok else "canonical code rows are wrong")

    return judge


def _roundtrip(fe, text: str):
    parsed = fe.parse_formula(text)
    return parsed, fe.format_formula(parsed)


def symbolic_oracle(rng, m, tmp: Path):
    """Soundness oracle on a stratified formula corpus, its format/parse
    round trip, and the symbolic CLI verbs on generated files."""
    fe = m["formula_engine"]
    quota = {name: n for name, _, _, n in STRATA if name != "huge"}
    quota.update({"huge-True": STRATA[4][3], "huge-False": STRATA[4][3]})
    corpus, seen = [], set()
    while any(quota.values()):
        f = random_formula(rng)
        work = ref.witness_space(f, ORACLE_CARRIER + 1)
        stratum = _stratum(f, work)
        if quota[stratum] and f not in seen:
            quota[stratum] -= 1
            seen.add(f)
            corpus.append((f, work, stratum))
    ops = []
    for i, (f, work, stratum) in enumerate(corpus):
        formula, text = to_program(f, m), ref.formula_text(f)
        ops.append(Op(f"oracle-{stratum}-{i}", lambda g=formula: _oracle_call(m, g),
                      _judge_oracle(f, work), group=stratum))

        def judge_roundtrip(got, _seen, want=formula, text=text) -> Verdict:
            parsed, printed = got
            return Verdict(None if parsed == want and printed == text else "round trip differs")

        ops.append(Op(f"roundtrip-{i}", lambda text=text: _roundtrip(fe, text), judge_roundtrip))
        if i % 16 == 0:
            path = tmp / f"formula-{i}.sexp"
            path.write_text(text + "\n", encoding="utf-8")
            ops.append(_cli_op(m, f"translate-nt-{i}", ["translate", "--nt", str(path)],
                               _judge_translate_nt(f)))
            ops.append(_cli_op(m, f"translate-dialectica-{i}",
                               ["translate", "--dialectica", str(path)],
                               _judge_translate_dialectica(f)))
    for i in range(60):
        text, want = _bounded_shape(rng)
        path = tmp / f"delta-{i}.sexp"
        path.write_text(text + "\n", encoding="utf-8")
        ops.append(_cli_op(m, f"delta-{i}", ["delta", str(path)], _judge_delta(want)))
    path = tmp / "delta-unbounded.sexp"
    path.write_text("(exists (x0 0) (forall (y1 0) (<= x0 y1)))\n", encoding="utf-8")
    ops.append(_cli_op(m, "delta-unbounded", ["delta", str(path)], _judge_not_delta))
    for i in range(60):
        t = _random_fin_type(rng, 3)
        text = ref.fin_type_text(t)
        ops.append(_cli_op(m, f"types-{i}", ["types", text], _judge_types(t, text)))
    for i in range(60):
        r = Fraction(rng.randrange(0, 5000), rng.randrange(1, 300))
        prec = rng.randrange(4, 24)
        ops.append(_cli_op(m, f"real-canon-{i}", ["real", "canon", str(r), "--prec", str(prec)],
                           _judge_real(r, prec)))
    deep_text = "(= 0 0)"
    for _ in range(3000):
        deep_text = f"(not {deep_text})"

    def judge_deep(got, _seen) -> Verdict:
        for _ in range(3000):  # walked iteratively: comparing deep dataclasses recurses
            if not isinstance(got, fe.Implies) or got.right != fe.FALSE:
                return Verdict("parsed to another formula")
            got = got.left
        return Verdict(None if got == to_program(("=", ("num", 0), ("num", 0)), m)
                       else "parsed to another formula")

    deep = [Op("deep/parse-formula-depth-3000", lambda: fe.parse_formula(deep_text), judge_deep)]
    return ops, deep


WORKLOADS = {
    "oplab_verify": oplab_verify,
    "prox_iterate": prox_iterate,
    "term_normalize": term_normalize,
    "symbolic_oracle": symbolic_oracle,
}
