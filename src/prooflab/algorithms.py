"""Iterative schemes driven by resolvents, with inspectable traces.

The proximal point algorithm and Moudafi's scheme run in one loop, ``_run``, each
giving only its step and its zero test.  A run stops when its steps run out, when it
diverges (the iterate passes the guard or a residual leaves the float range), when a
step leaves the domain (``outside_domain_at``) or at a zero (``reached_zero_at``).
Traces record every iterate plus per-step displacement and value residuals and
serialise to JSON (full fidelity) or CSV (tabular part).  Step-size schedules carry
their own positivity moduli so downstream range-condition checks can consume them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .operator_lab import (
    DimensionMismatch,
    OutsideDomain,
    SetValuedOperator,
    _min_norm,
    _norms,
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
        if not g > 0:
            raise ValueError(f"gamma({n}) = {g} is not positive")
        return max(0, math.floor(-math.log2(g)) + 1)  # 1 / g overflows for a subnormal g

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


# the per-step series and the outcome fields of a trace, named once for its readers and writers
_SERIES = ("gammas", "step_residuals", "value_residuals")
_OUTCOMES = ("diverged", "outside_domain_at", "reached_zero_at")


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
        for name, value in zip(_SERIES, (gamma, step_res, value_res)):
            if value is not None:
                getattr(self, name).append(float(value))

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]

    def to_json(self) -> str:
        payload = {key: getattr(self, key) for key in ("algorithm", "params", *_SERIES, *_OUTCOMES)}
        payload["points"] = np.array(self.points).tolist()
        return json.dumps(payload, sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "IterationTrace":
        def non_finite(name: str):
            raise ValueError(f"non-finite number {name}")

        def numbers(name: str, values: list) -> list:
            # exact types, so bool, a subclass of int, is refused; map and set keep it cheap
            if not set(map(type, values)) <= {int, float}:
                bad = next(v for v in values if type(v) not in (int, float))
                raise ValueError(f"{name} holds {bad!r}, which is not a JSON number")
            return values

        try:
            data = json.loads(text, parse_constant=non_finite)
            numbers("points", [*itertools.chain.from_iterable(data["points"])])
            points = np.asarray(data["points"], dtype=float)  # an int past the float range overflows
            if points.ndim != 2 or not len(points):
                raise ValueError("points are not a non-empty list of equal-length vectors")
            last = len(points) - 1  # the index of the last step, where a run stops
            series = {name: [*map(float, numbers(name, data[name]))] for name in _SERIES}
            if any(len(values) != last for values in series.values()):
                raise ValueError(f"a series is not one entry per step of the {last}")
            values = itertools.chain(*series.values())
            if not (np.isfinite(points).all() and all(map(math.isfinite, values))):  # 1e400 is inf
                raise ValueError("non-finite number: a value beyond the float range")
            for name in _OUTCOMES:
                at = data[name]
                if name == "diverged" and type(at) is not bool:
                    raise ValueError(f"diverged = {at!r} is not a bool")
                if name != "diverged" and at is not None and (type(at) is not int or at != last):
                    raise ValueError(f"{name} = {at!r} is not null or the last step, {last}")
            return cls(
                data["algorithm"], data["params"], list(points),
                **series,
                **{name: data[name] for name in _OUTCOMES},
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(f"malformed trace: {exc!r}") from None

    def to_csv(self) -> str:
        buf = io.StringIO()
        points = np.array(self.points).tolist()  # Python floats, which csv writes as their repr
        dim = len(points[0]) if points else 0
        writer = csv.writer(buf, lineterminator="\n")
        # one column per series, headed by its name in the singular
        writer.writerow(["step", *[f"x{i}" for i in range(dim)], *[n[:-1] for n in _SERIES]])
        series = [getattr(self, name) for name in _SERIES]
        for i, p in enumerate(points):
            writer.writerow([i, *p, *(float(s[i - 1]) if 1 <= i <= len(s) else "" for s in series)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, algorithm: str = "", params: dict | None = None) -> "IterationTrace":
        trace = cls(algorithm=algorithm, params=params or {})
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        dim = sum(1 for h in header if h.startswith("x"))
        for row in reader:
            trace.points.append(np.asarray([float(v) for v in row[1 : 1 + dim]]))
            for name, value in zip(_SERIES, row[1 + dim :], strict=True):
                if value:
                    getattr(trace, name).append(float(value))
        return trace


def _least_norm(box) -> float:  # of a value in a one-row value box; inf outside the domain
    norm = l2(_min_norm(*box)[0])
    return math.inf if math.isnan(norm) else norm


def _run(trace: IterationTrace, x: np.ndarray, steps: int, step: Callable,
         zero_res: float, zero_tol: float, divergence_guard: float) -> IterationTrace:
    """The run loop of every scheme: test the current point, then take step ``n``.

    ``step(n, x)`` gives the next point, the step size, the step and value residuals and
    the next point's zero residual, or raises ``OutsideDomain``.  A point whose zero
    residual (``zero_res`` for the start) is at most ``zero_tol`` is a zero.
    """
    trace.push(x)
    for n in range(steps + 1):
        if l2(x) > divergence_guard:
            trace.diverged = True
            break
        if zero_res <= zero_tol:
            trace.reached_zero_at = n
            break
        if n == steps:
            break
        try:
            nxt, gamma, res, vres, zero_res = step(n, x)
        except OutsideDomain:
            trace.outside_domain_at = n
            break
        if not math.isfinite(res + vres):  # past the float range: the run has blown up
            trace.diverged = True
            break
        trace.push(nxt, gamma=gamma, step_res=res, value_res=vres)
        x = nxt
    return trace


def proximal_point(
    op: SetValuedOperator,
    x0,
    schedule="const:1.0",
    steps: int = 50,
    zero_tol: float = 1e-9,
    divergence_guard: float = DIVERGENCE_GUARD,
) -> IterationTrace:
    """Iterate the resolvent: ``x_{n+1} = J_{gamma_n}(x_n)``.

    Stops early at a certified zero (minimal-norm value below ``zero_tol``, the start
    point included), on leaving the resolvent domain (index recorded) or when the iterate
    norm passes the divergence guard or a residual leaves the float range.  A step's
    value residual is ``|u|`` for ``u = (x_n - x_{n+1}) / gamma_n``, or, where ``x_{n+1}``
    rounds to ``x_n`` and leaves ``u`` noise, the least norm of a value at ``x_{n+1}``, which
    the zero test reads too: it comes from the value box the resolvent kernel verified the
    step against, so a step makes one ``op.value_box`` call (the start makes its own).
    A schedule whose last requested step size is not positive (it underflowed) is refused.
    """
    sched = _as_schedule(schedule)
    x = as_vector(x0, op.dim)
    if steps and not sched(steps - 1) > 0:  # no schedule kind grows: the last step is least
        raise ScheduleSyntaxError(f"schedule {sched.spec!r} is not positive within steps = {steps}")
    seen = []  # the last value box the kernel evaluated: the one at x_{n+1} after step n

    def value_box(P, box_of=op.value_box):
        seen[:] = box = box_of(P)
        return box

    seeing = replace(op, value_box=value_box)

    def step(n, x):
        gamma = sched(n)
        nxt, u = resolvent(seeing, gamma, x, with_value=True)
        res, vres, least = l2(nxt - x), l2(u), _least_norm(seen)
        if math.isnan(vres):  # nxt rounds to x: the values at nxt stand in for the noise u
            vres = least
        return nxt, gamma, res, vres, least

    params = {"schedule": sched.spec, "steps": steps, "zero_tol": zero_tol}
    return _run(IterationTrace("proximal_point", params), x, steps, step,
                _least_norm(op.value_box(x[None])), zero_tol, divergence_guard)


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
    displacement divided by ``mu``; a displacement of at most ``zero_tol`` stops the run.
    """
    if op_t.dim != op_s.dim:
        raise DimensionMismatch("operator dimensions differ")
    x = as_vector(x0, op_t.dim)

    def step(n, x):
        shifted = x + mu * yosida(op_t, lam, x)  # past the float range, it ends the run
        nxt = resolvent(op_s, mu, shifted) if np.isfinite(shifted).all() else shifted
        res = l2(nxt - x)
        return nxt, mu, res, res / mu, res  # its zero test reads the step residual

    params = {"mu": mu, "lambda": lam, "steps": steps, "zero_tol": zero_tol}
    return _run(IterationTrace("moudafi", params), x, steps, step,
                math.nan, zero_tol, divergence_guard)  # no step yet: NaN fails every zero_tol


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
        **{name: getattr(trace, name) for name in _OUTCOMES},
    }
    if zero is not None:
        zero = as_vector(zero, len(trace.final))
        with np.errstate(over="ignore"):  # a distance past the float range fails the verdict
            d = _norms(np.array(trace.points) - zero)
            fejer = np.isfinite(d).all() and (d[1:] <= d[:-1] + tol * np.maximum(1.0, d[:-1])).all()
        report["distance_to_zero"] = float(d[-1]) if math.isfinite(d[-1]) else None
        report["fejer_monotone"] = bool(fejer)
    return report
