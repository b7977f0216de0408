"""Majorization of vector-space values by number-theoretic functionals.

A value of base type is majorized by a natural that dominates it (its norm,
for vectors).  A function is majorized by a function of the collapsed
(``X``-free) type when it dominates pointwise on related arguments and is
itself monotone on the collapsed side.  Both conditions are falsified by
sampling: :func:`check_majorizes` never proves, it only fails to refute.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .finite_types import Arrow, BaseType, FinType, ZERO, X, hat


class NotBounded:
    """Sentinel: no uniform bound exists on bounded sets."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NotBounded"


NOT_BOUNDED = NotBounded()


def _norm(v) -> float:
    if isinstance(v, (int, float)):
        return abs(float(v))
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


class MajSamples:
    """Sample pools keyed by argument type.

    ``mixed`` pools hold pairs (candidate-side value, object-side value)
    assumed related; ``hat`` pools hold pairs (larger, smaller) of
    collapsed-type values for the monotonicity clause.
    """

    def __init__(self) -> None:
        self._mixed: dict[FinType, list[tuple]] = {}
        self._hat: dict[FinType, list[tuple]] = {}

    def add_mixed(self, t: FinType, pairs: Sequence[tuple]) -> "MajSamples":
        self._mixed.setdefault(t, []).extend(pairs)
        return self

    def add_hat(self, t: FinType, pairs: Sequence[tuple]) -> "MajSamples":
        self._hat.setdefault(t, []).extend(pairs)
        return self

    def mixed(self, t: FinType) -> list[tuple]:
        if t not in self._mixed:
            raise ValueError(f"no mixed samples for argument type {t}")
        return self._mixed[t]

    def hat_pairs(self, t: FinType) -> list[tuple]:
        if t not in self._hat:
            raise ValueError(f"no collapsed-type samples for argument type {t}")
        return self._hat[t]


@dataclass
class MajReport:
    ok: bool = True
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)


def check_majorizes(
    candidate,
    value,
    t: FinType,
    samples: MajSamples | None = None,
    validate_samples: bool = True,
    _path: str = "",
    _report: MajReport | None = None,
) -> MajReport:
    """Sampled refutation check that ``candidate`` majorizes ``value`` at ``t``.

    At base types the comparison is numeric.  At an arrow type the dominance
    clause instantiates the argument from the mixed pool and recurses on the
    results; the monotonicity clause instantiates both sides of the candidate
    from the collapsed pool and recurses at the collapsed type.
    """
    report = _report or MajReport()
    where = _path or "root"
    if isinstance(t, BaseType):
        report.checks += 1
        lhs = float(candidate)
        rhs = float(value) if t == ZERO else _norm(value)
        if lhs < rhs - 1e-12:
            report.fail(f"{where}: {lhs} < {rhs} at {t}")
        return report
    assert isinstance(t, Arrow)
    if samples is None:
        raise ValueError("arrow types need sample pools")
    arg_t = t.argument
    for i, (cand_arg, val_arg) in enumerate(samples.mixed(arg_t)):
        if validate_samples and isinstance(arg_t, BaseType):
            probe = MajReport()
            check_majorizes(cand_arg, val_arg, arg_t, samples, False, f"{where}.sample{i}", probe)
            if not probe.ok:
                raise ValueError(f"invalid mixed sample at {arg_t}: {probe.failures[0]}")
        check_majorizes(
            candidate(cand_arg), value(val_arg), t.result, samples,
            validate_samples, f"{where}.dom[{i}]", report,
        )
    hat_arg = hat(arg_t)
    hat_res = hat(t.result)
    for i, (hi, lo) in enumerate(samples.hat_pairs(hat_arg)):
        check_majorizes(
            candidate(hi), candidate(lo), hat_res, samples,
            validate_samples, f"{where}.mon[{i}]", report,
        )
    return report


def monotone_hull(x: Callable[[int], int] | Sequence[int], cap: int = 4096) -> Callable[[int], int]:
    """Running maximum ``n -> max(x(0), ..., x(n))``, the canonical
    nondecreasing majorant of ``x``; arguments beyond ``cap`` are refused."""
    table = x if isinstance(x, Sequence) else None

    def at(n: int) -> int:
        if n < 0:
            raise ValueError("arguments are naturals")
        if n > cap:
            raise ValueError(f"argument {n} beyond hull cap {cap}")
        if table is not None:
            if n >= len(table):
                raise ValueError(f"argument {n} beyond table of length {len(table)}")
            return max(table[: n + 1])
        return max(x(i) for i in range(n + 1))

    return at


def chi_majorant() -> Callable:
    """Majorant of any two-argument characteristic function: constantly 1."""
    return lambda _x: lambda _y: 1


def resolvent_majorant(n: int, m: int, l: int, k: int) -> Callable:
    """Majorant of the resolvent constant from displacement and norm data.

    ``n`` bounds the displacement of the reference point under the reference
    resolvent, ``m`` bounds the reference parameter from below by ``2**-m``,
    ``l`` bounds it from above by ``2**l`` and ``k`` bounds the reference
    point's norm.  The returned functional takes a nondecreasing majorant of
    the parameter code, then a norm bound on the argument.
    """
    if min(n, m, l, k) < 0:
        raise ValueError("witness data are naturals")

    def on_code(alpha: Callable[[int], int]) -> Callable[[int], int]:
        factor = 2 + 2**m * (alpha(0) + 1)
        return lambda x_star: x_star + 2 * k + factor * n

    return on_code


def bobs_uniform_majorant(
    op, radii: Sequence[int] = (1, 2, 4, 8, 16)
) -> Callable[[int], int] | NotBounded:
    """Uniform majorant of all values of ``op`` over norm-bounded arguments.

    Requires the operator to expose ``norm_bound_on_ball``; an unbounded or
    missing bound at any probed radius yields the :data:`NOT_BOUNDED`
    sentinel.  Boundedness on bounded sets and having such a majorant are
    equivalent, so the sentinel is a genuine negative certificate for the
    probed radii.
    """
    bound_fn = getattr(op, "norm_bound_on_ball", None)
    if bound_fn is None:
        return NOT_BOUNDED
    for r in radii:
        b = bound_fn(float(r))
        if b is None or not math.isfinite(b):
            return NOT_BOUNDED

    @functools.cache  # pure in n; a refused n raises, and nothing is cached for it
    def at(n: int) -> int:
        if n < 0:
            raise ValueError("arguments are naturals")
        best = 0.0
        for r in range(n + 1):
            b = bound_fn(float(r))
            if b is None or not math.isfinite(b):
                raise ValueError(f"operator unbounded inside radius {r}")
            best = max(best, b)
        return math.ceil(best)

    return at
