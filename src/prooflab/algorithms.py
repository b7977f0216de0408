"""Iterative schemes driven by resolvents, with inspectable traces.

The proximal point algorithm and Moudafi's scheme run in one loop, ``_run``, each
giving only how it takes a chunk of steps: closed-form resolvents, one step at a time,
then one batched check of them all, as ``resolve_rows`` checks.  A run stops when its
steps run out, when it diverges (the iterate passes the guard or a residual leaves the
float range), when a step leaves the domain (``outside_domain_at``) or at a zero
(``reached_zero_at``), at the step where a run of one step at a time would stop.
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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, ScheduleSyntaxError, TraceFormatError
from .operator_lab import (
    OutsideDomain,
    SetValuedOperator,
    _floor,
    _min_norm,
    _norms,
    _refusal,
    _verify_rows,
    _yosida_lost,
    l2,
    as_vector,
    resolvent,  # noqa: F401  unused, but perfbench/tracing.py wraps algorithms.resolvent
    yosida,  # noqa: F401  and algorithms.yosida too
)

DIVERGENCE_GUARD = 1e12


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


def _csv_header(dim: int) -> list:
    """A step column, a column per coordinate, and one per series, headed by its name
    in the singular and blank on the start row."""
    return ["step", *[f"x{i}" for i in range(dim)], *[s[:-1] for s in _SERIES]]


def _checked(points, series: dict) -> tuple[list, dict]:
    """The points and series a trace reader parsed, as a trace holds them, or
    ``ValueError``: the points must be a non-empty list of equal-length finite vectors,
    and each series one finite number per step, step sizes positive, residuals not
    negative."""
    points = np.asarray(points, dtype=float)  # an int past the float range overflows
    if points.ndim != 2 or not len(points):
        raise ValueError("points are not a non-empty list of equal-length vectors")
    last = len(points) - 1
    series = {name: [*map(float, values)] for name, values in series.items()}
    if any(len(values) != last for values in series.values()):
        raise ValueError(f"a series is not one entry per step of the {last}")
    values = itertools.chain(*series.values())
    if not (np.isfinite(points).all() and all(map(math.isfinite, values))):  # 1e400 is inf
        raise ValueError("non-finite number: a value beyond the float range")
    gammas, residuals = series["gammas"], [*series["step_residuals"], *series["value_residuals"]]
    if not (all(g > 0 for g in gammas) and all(r >= 0 for r in residuals)):
        raise ValueError("a step size that is not positive or a negative residual")
    return list(points), series


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
            points, series = _checked(data["points"],
                                      {name: numbers(name, data[name]) for name in _SERIES})
            last = len(points) - 1  # the index of the last step, where a run stops
            for name in _OUTCOMES:
                at = data[name]
                if name == "diverged" and type(at) is not bool:
                    raise ValueError(f"diverged = {at!r} is not a bool")
                if name != "diverged" and at is not None and (type(at) is not int or at != last):
                    raise ValueError(f"{name} = {at!r} is not null or the last step, {last}")
            return cls(data["algorithm"], data["params"], points, **series,
                       **{name: data[name] for name in _OUTCOMES})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(f"malformed trace: {exc!r}") from None

    def to_csv(self) -> str:
        points = np.array(self.points)
        n, dim = len(points), points.shape[-1] if self.points else 0
        series = [["", *map(float, getattr(self, s)), *[""] * n][:n] for s in _SERIES]
        # ints, Python floats (str is their repr) and blanks, none of which csv would quote
        rows = zip(range(n), *points.T.tolist(), *series)
        return "".join(f"{','.join(map(str, row))}\n" for row in [_csv_header(dim), *rows])

    @classmethod
    def from_csv(cls, text: str, algorithm: str = "", params: dict | None = None) -> "IterationTrace":
        """The points and series of a trace as :meth:`to_csv` writes it, checked as
        :meth:`from_json` checks them; a blank series cell is only on the start row."""
        try:
            header, *rows = csv.reader(io.StringIO(text))
            dim = len(header) - 1 - len(_SERIES)
            if header != _csv_header(dim):
                raise ValueError(f"header {header} is not the header of a trace")
            points = [[*map(float, row[1 : 1 + dim])] for row in rows]
            columns = zip(*(row[1 + dim :] for row in rows), strict=True)
            series = dict(zip(_SERIES, columns, strict=True))
            if any(values[0] for values in series.values()):
                raise ValueError("the start row holds a series value")
            points, series = _checked(points, {name: v[1:] for name, v in series.items()})
            return cls(algorithm, params or {}, points, **series)
        except (csv.Error, ValueError) as exc:
            raise TraceFormatError(f"malformed trace: {exc!r}") from None


# Runs take chunks of 1, 2, 4, ... steps, so one that stops after k steps computes at
# most about 2k + 1 closed-form steps.
_CHUNK_GROWTH = 2


def _zero_residuals(box) -> np.ndarray:
    """The least norm of a value in each row of a value box; inf outside the domain."""
    norms = _norms(_min_norm(*box))
    norms[np.isnan(norms)] = math.inf
    return norms


def _step(op: SetValuedOperator, floor: float, gamma, x: np.ndarray) -> np.ndarray:
    """``J_gamma(x)`` by ``op.resolvent_fn`` alone: its check comes with its chunk's."""
    if not floor < gamma < math.inf:  # what resolve_rows refuses
        raise _refusal(op, gamma)
    gammas, X = np.array([gamma]), x[None]
    if op.resolvent_domain_fn is not None and not op.resolvent_domain_fn(gammas, X)[0]:
        raise OutsideDomain(f"{op.name}: {x} outside the resolvent domain at gamma = {gamma}")
    return op.resolvent_fn(gammas, X)[0]


def _diverges(res: np.ndarray) -> list:
    """The first step whose residual is past the float range, as an event."""
    finite = np.isfinite(res)
    return [] if finite.all() else [(int(np.argmin(finite)), "diverged")]


def _run(trace: IterationTrace, x: np.ndarray, steps: int, chunk: Callable,
         zero_res: float, zero_tol: float, divergence_guard: float) -> IterationTrace:
    """The run loop of every scheme: test the start, then take steps a chunk at a time.

    ``chunk(n, x, m)`` takes up to ``m`` steps from step ``n`` at ``x`` and gives the
    points they reach, their step sizes, step, value and zero residuals, and the events
    that end a step before it reaches its point: ``(row, stop)`` pairs in the order a
    step meets them, ``stop`` being what the step raises or ``"diverged"``.  The run
    keeps the steps up to the first stop, as one step at a time would: a step's events,
    then the guard and the zero test (``zero_res`` at most ``zero_tol``) at its point.
    """
    trace.push(x)
    n, size = 0, 1
    with np.errstate(all="ignore"):  # past the float range, a step or the guard ends the run
        stop = "diverged" if l2(x) > divergence_guard else "zero" if zero_res <= zero_tol else None
        while stop is None and n < steps:
            P, gammas, res, vres, zero_res, events = chunk(n, x, min(size, steps - n))
            far = _norms(P) > divergence_guard
            at, stop = min(events, key=lambda event: event[0], default=(len(P), None))
            ends = far[:at] | (zero_res[:at] <= zero_tol)
            if ends.any():
                at = int(np.argmax(ends)) + 1
                stop = "diverged" if far[at - 1] else "zero"
            trace.points += list(P[:at])
            for name, values in zip(_SERIES, (gammas, res, vres)):
                getattr(trace, name).extend(map(float, values[:at].tolist()))
            n, x, size = n + at, P[-1] if len(P) else x, size * _CHUNK_GROWTH
    if stop == "diverged":
        trace.diverged = True
    elif stop == "zero":
        trace.reached_zero_at = n
    elif isinstance(stop, OutsideDomain):
        trace.outside_domain_at = n
    elif stop is not None:
        raise stop  # a step the run reached raised it
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
    norm passes the divergence guard or a residual leaves the float range.  A chunk of
    steps takes the closed form a step at a time, then checks every step as
    ``resolve_rows`` does, with one ``op.value_box`` call at the points they reach (the
    start makes its own).  A step's value residual is ``|u|`` for ``u = (x_n - x_{n+1}) /
    gamma_n``, or, where ``x_{n+1}`` rounds to ``x_n`` and leaves ``u`` noise, the least
    norm of a value at ``x_{n+1}``, which the zero test reads too.  A schedule whose last
    requested step size is not positive (it underflowed) is refused.
    """
    sched = _as_schedule(schedule)
    x = as_vector(x0, op.dim)
    if steps and not sched(steps - 1) > 0:  # no schedule kind grows: the last step is least
        raise ScheduleSyntaxError(f"schedule {sched.spec!r} is not positive within steps = {steps}")
    floor = _floor(op)

    def chunk(n, x0, m):
        x, points, gammas, events = x0, [], [], []
        try:
            for k in range(n, n + m):
                gammas.append(sched(k))
                x = _step(op, floor, gammas[-1], x)
                points.append(x)
        except Exception as exc:  # it stops the run only if the run reaches this step
            events.append((len(points), exc))
        P = np.array(points).reshape(-1, op.dim)
        X, G = np.concatenate([x0[None], P])[:-1], np.array(gammas[: len(P)])
        U, box, failed = _verify_rows(op, G, X, P)
        res, vres, least = _norms(P - X), _norms(U), _zero_residuals(box)
        vres = np.where(np.isnan(vres), least, vres)  # noise u: the values at P stand in
        return P, G, res, vres, least, events + failed + _diverges(res + vres)

    params = {"schedule": sched.spec, "steps": steps, "zero_tol": zero_tol}
    with np.errstate(over="ignore"):  # past the float range: the guard stops the run
        zero_res = _zero_residuals(op.value_box(x[None]))[0]
    return _run(IterationTrace("proximal_point", params), x, steps, chunk,
                zero_res, zero_tol, divergence_guard)


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
    A chunk of steps takes both closed forms a step at a time, then checks each
    operator's resolvents in one batch, refusing what ``yosida`` and ``resolvent`` refuse.
    """
    if op_t.dim != op_s.dim:
        raise DimensionMismatch("operator dimensions differ")
    x = as_vector(x0, op_t.dim)
    floor_t, floor_s = _floor(op_t), _floor(op_s)

    def chunk(n, x0, m):
        x, ts, shifts, points, stop = x0, [], [], [], []
        try:
            for _ in range(m):
                ts.append(_step(op_t, floor_t, lam, x))
                if not floor_s < mu < math.inf:  # before the shift can pass the float range
                    raise _refusal(op_s, mu)
                shifts.append(x + mu * ((x - ts[-1]) / lam))
                if not np.isfinite(shifts[-1]).all():  # past the float range: it blew up
                    stop = [(len(points), "diverged")]
                    break
                x = _step(op_s, floor_s, mu, shifts[-1])
                points.append(x)
        except Exception as exc:  # it stops the run only if the run reaches this step
            stop = [(len(points), exc)]
        k, X = len(points), np.array([x0, *points])
        P, dim = X[1:], op_t.dim
        # a step checks T's resolvent, then its u for noise, then takes S's and checks it
        U, _, events = _verify_rows(op_t, np.full(len(ts), lam), X[: len(ts)],
                                    np.array(ts).reshape(-1, dim))
        events += [(int(j), _yosida_lost(op_t, lam, X[j]))
                   for j in np.flatnonzero(np.isnan(U[:, 0]))[:1]]
        shifted = np.array(shifts[:k]).reshape(-1, dim)
        events += stop + _verify_rows(op_s, np.full(k, mu), shifted, P)[2]
        res = _norms(P - X[:k])
        vres = res / mu
        return P, np.full(k, mu, dtype=float), res, vres, res, events + _diverges(res + vres)

    params = {"mu": mu, "lambda": lam, "steps": steps, "zero_tol": zero_tol}
    return _run(IterationTrace("moudafi", params), x, steps, chunk,
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
