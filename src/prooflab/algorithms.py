"""Iterative schemes driven by resolvents, with inspectable traces.

Traces record every iterate plus per-step displacement and value residuals
and serialise to JSON (full fidelity) or CSV (tabular part).  Step-size
schedules carry their own positivity moduli so downstream range-condition
checks can consume them directly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operator_lab import (
    DimensionMismatch,
    OutsideDomain,
    SetValuedOperator,
    l2,
    as_vector,
    resolvent,
    yosida,
)

DIVERGENCE_GUARD = 1e12


class ScheduleSyntaxError(ValueError):
    """Malformed step-size schedule string."""


class TraceFormatError(ValueError):
    """Text that is not a trace as :meth:`IterationTrace.to_json` writes it."""


@dataclass(frozen=True)
class GammaSchedule:
    """Step sizes ``gamma(n) > 0`` with a witnessing exponent
    ``positivity_modulus(n)`` such that ``2**-modulus < gamma(n)``."""

    spec: str
    gamma: Callable[[int], float]
    positivity_modulus: Callable[[int], int]

    def __call__(self, n: int) -> float:
        return self.gamma(n)


def _modulus_for(gamma: Callable[[int], float]) -> Callable[[int], int]:
    def modulus(n: int) -> int:
        g = gamma(n)
        return max(0, math.floor(math.log2(1.0 / g)) + 1)

    return modulus


def parse_gamma_schedule(spec: str) -> GammaSchedule:
    """``const:c``, ``harmonic:c`` (``c/(n+1)``) or ``geom:c,q`` (``c*q**n``).

    A bare number is shorthand for a constant schedule.
    """
    text = spec.strip()
    if ":" not in text:
        try:
            c = float(text)
        except ValueError:
            raise ScheduleSyntaxError(f"cannot parse schedule {spec!r}") from None
        text = f"const:{c}"
    kind, _, args = text.partition(":")
    try:
        parts = [float(p) for p in args.split(",")] if args else []
    except ValueError:
        raise ScheduleSyntaxError(f"bad schedule arguments in {spec!r}") from None
    if not all(map(math.isfinite, parts)):
        raise ScheduleSyntaxError(f"non-finite schedule argument in {spec!r}")
    if kind == "const" and len(parts) == 1:
        c = parts[0]
        if c <= 0:
            raise ScheduleSyntaxError("constant step must be positive")
        fn = lambda n, c=c: c
    elif kind == "harmonic" and len(parts) == 1:
        c = parts[0]
        if c <= 0:
            raise ScheduleSyntaxError("harmonic scale must be positive")
        fn = lambda n, c=c: c / (n + 1)
    elif kind == "geom" and len(parts) == 2:
        c, q = parts
        if c <= 0 or not 0 < q <= 1:
            raise ScheduleSyntaxError("geometric schedule needs c > 0 and 0 < q <= 1")
        fn = lambda n, c=c, q=q: c * q**n
    else:
        raise ScheduleSyntaxError(f"unknown schedule {spec!r}")
    return GammaSchedule(spec=text, gamma=fn, positivity_modulus=_modulus_for(fn))


def _as_schedule(schedule) -> GammaSchedule:
    if isinstance(schedule, GammaSchedule):
        return schedule
    if isinstance(schedule, str):
        return parse_gamma_schedule(schedule)
    if isinstance(schedule, (int, float)):
        return parse_gamma_schedule(f"const:{float(schedule)}")
    raise ScheduleSyntaxError(f"cannot interpret {schedule!r} as a schedule")


@dataclass
class IterationTrace:
    """Full record of one run; ``points[0]`` is the start."""

    algorithm: str
    params: dict
    points: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    step_residuals: list = field(default_factory=list)
    value_residuals: list = field(default_factory=list)
    diverged: bool = False
    outside_domain_at: int | None = None
    reached_zero_at: int | None = None

    def push(self, point: np.ndarray, gamma: float | None = None,
             step_res: float | None = None, value_res: float | None = None) -> None:
        self.points.append(np.asarray(point, dtype=float).copy())
        if gamma is not None:
            self.gammas.append(float(gamma))
        if step_res is not None:
            self.step_residuals.append(float(step_res))
        if value_res is not None:
            self.value_residuals.append(float(value_res))

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]

    def to_json(self) -> str:
        payload = {
            "algorithm": self.algorithm,
            "params": self.params,
            "points": [list(map(float, p)) for p in self.points],
            "gammas": self.gammas,
            "step_residuals": self.step_residuals,
            "value_residuals": self.value_residuals,
            "diverged": self.diverged,
            "outside_domain_at": self.outside_domain_at,
            "reached_zero_at": self.reached_zero_at,
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "IterationTrace":
        def non_finite(name: str):
            raise ValueError(f"non-finite number {name}")

        try:
            data = json.loads(text, parse_constant=non_finite)
            points = np.asarray(data["points"], dtype=float)
            if points.ndim != 2 or not len(points):
                raise ValueError("points are not a non-empty list of equal-length vectors")
            trace = cls(algorithm=data["algorithm"], params=data["params"])
            trace.points = list(points)
            trace.gammas = [float(g) for g in data["gammas"]]
            trace.step_residuals = [float(r) for r in data["step_residuals"]]
            trace.value_residuals = [float(r) for r in data["value_residuals"]]
            trace.diverged = data["diverged"]
            trace.outside_domain_at = data["outside_domain_at"]
            trace.reached_zero_at = data["reached_zero_at"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace: {exc!r}") from None
        return trace

    def to_csv(self) -> str:
        buf = io.StringIO()
        dim = len(self.points[0]) if self.points else 0
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["step", *[f"x{i}" for i in range(dim)], "gamma", "step_residual", "value_residual"]
        )
        for i, p in enumerate(self.points):
            row = [i, *[repr(float(v)) for v in p]]
            for seq in (self.gammas, self.step_residuals, self.value_residuals):
                row.append(repr(float(seq[i - 1])) if 1 <= i <= len(seq) else "")
            writer.writerow(row)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, algorithm: str = "", params: dict | None = None) -> "IterationTrace":
        trace = cls(algorithm=algorithm, params=params or {})
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        dim = sum(1 for h in header if h.startswith("x"))
        for row in reader:
            trace.points.append(np.asarray([float(v) for v in row[1 : 1 + dim]]))
            gamma, step_res, value_res = row[1 + dim :]
            if gamma:
                trace.gammas.append(float(gamma))
            if step_res:
                trace.step_residuals.append(float(step_res))
            if value_res:
                trace.value_residuals.append(float(value_res))
        return trace


def _value_residual(op: SetValuedOperator, x: np.ndarray) -> float:
    try:
        return l2(op.minimal_norm(x))
    except OutsideDomain:
        return math.inf


def proximal_point(
    op: SetValuedOperator,
    x0,
    schedule="const:1.0",
    steps: int = 50,
    zero_tol: float = 1e-9,
    divergence_guard: float = DIVERGENCE_GUARD,
) -> IterationTrace:
    """Iterate the resolvent: ``x_{n+1} = J_{gamma_n}(x_n)``.

    Stops early at a certified zero (minimal-norm value below ``zero_tol``), on leaving
    the resolvent domain (index recorded) or when the iterate norm (the start point's
    included) passes the divergence guard or a residual leaves the float range.  A step's
    value residual is ``|u|`` for ``u = (x_n - x_{n+1}) / gamma_n``, or, where ``x_{n+1}``
    rounds to ``x_n`` and leaves ``u`` noise, the least norm of a value at ``x_{n+1}``.
    """
    sched = _as_schedule(schedule)
    x = as_vector(x0, op.dim)
    trace = IterationTrace(
        algorithm="proximal_point",
        params={"schedule": sched.spec, "steps": steps, "zero_tol": zero_tol},
    )
    trace.push(x)
    trace.diverged = l2(x) > divergence_guard
    if trace.diverged:
        return trace
    if _value_residual(op, x) <= zero_tol:
        trace.reached_zero_at = 0
        return trace
    for n in range(steps):
        gamma = sched(n)
        try:
            nxt, u = resolvent(op, gamma, x, with_value=True)
        except OutsideDomain:
            trace.outside_domain_at = n
            break
        step, vres = l2(nxt - x), l2(u)
        if math.isnan(vres):  # nxt rounds to x: the values at nxt stand in for the noise u
            vres = _value_residual(op, nxt)
        if not math.isfinite(step + vres):  # past the float range: the run has blown up
            trace.diverged = True
            break
        trace.push(nxt, gamma=gamma, step_res=step, value_res=vres)
        x = nxt
        if l2(x) > divergence_guard:
            trace.diverged = True
            break
        if _value_residual(op, x) <= zero_tol:
            trace.reached_zero_at = n + 1
            break
    return trace


def moudafi_iteration(
    op_t: SetValuedOperator,
    op_s: SetValuedOperator,
    x0,
    mu: float = 1.0,
    lam: float = 1.0,
    steps: int = 50,
    zero_tol: float = 1e-9,
    divergence_guard: float = DIVERGENCE_GUARD,
) -> IterationTrace:
    """Fixed-point scheme ``x_{n+1} = J^S_mu(x_n + mu * T_lam(x_n))`` with
    ``T_lam`` the Yosida approximant of the first operator.

    Fixed points satisfy ``T_lam(x)`` being a value of the second operator
    at ``x``.  The value residual reported per step is the fixed-point
    displacement divided by ``mu``.
    """
    if op_t.dim != op_s.dim:
        raise DimensionMismatch("operator dimensions differ")
    x = as_vector(x0, op_t.dim)
    trace = IterationTrace(
        algorithm="moudafi",
        params={"mu": mu, "lambda": lam, "steps": steps, "zero_tol": zero_tol},
    )
    trace.push(x)
    trace.diverged = l2(x) > divergence_guard
    if trace.diverged:
        return trace
    for n in range(steps):
        try:
            shifted = x + mu * yosida(op_t, lam, x)  # past the float range, it ends the run below
            nxt = resolvent(op_s, mu, shifted) if np.isfinite(shifted).all() else shifted
        except OutsideDomain:
            trace.outside_domain_at = n
            break
        step = l2(nxt - x)
        if not math.isfinite(step / mu):  # past the float range: the run has blown up
            trace.diverged = True
            break
        trace.push(nxt, gamma=mu, step_res=step, value_res=step / mu)
        x = nxt
        if l2(x) > divergence_guard:
            trace.diverged = True
            break
        if step <= zero_tol:
            trace.reached_zero_at = n + 1
            break
    return trace


def trace_report(trace: IterationTrace, zero=None, tol: float = 1e-9) -> dict:
    """Summary statistics of a run, JSON-compatible.

    With a reference zero the report includes a Fejér monotonicity verdict:
    distances to the zero never increase beyond the tolerance.  A distance that
    overflows the floats fails the verdict, and a non-finite final distance is
    written as ``None``.
    """
    report = {
        "algorithm": trace.algorithm,
        "params": trace.params,
        "iterations": max(0, len(trace.points) - 1),
        "final_point": [float(v) for v in trace.final],
        "final_step_residual": trace.step_residuals[-1] if trace.step_residuals else None,
        "final_value_residual": trace.value_residuals[-1] if trace.value_residuals else None,
        "diverged": trace.diverged,
        "outside_domain_at": trace.outside_domain_at,
        "reached_zero_at": trace.reached_zero_at,
    }
    if zero is not None:
        zero = as_vector(zero, len(trace.final))
        dists = [l2(p - zero) for p in trace.points]
        report["distance_to_zero"] = dists[-1] if math.isfinite(dists[-1]) else None
        report["fejer_monotone"] = all(map(math.isfinite, dists)) and all(
            b <= a + tol * max(1.0, a) for a, b in zip(dists, dists[1:])
        )
    return report
