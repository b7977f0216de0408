"""Natural-number codes for rationals and fast-converging codes for reals.

A rational is coded by a single natural via the pairing function
:func:`pair_j`; decoding follows a fixed sign convention (even first
component: nonnegative).  A real is coded by a function ``n -> rational
code`` whose value at ``n`` is within ``2**-n`` of the coded real
(fast Cauchy).  All internal arithmetic is exact ``Fraction`` arithmetic;
floats never enter.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import isqrt
from typing import Callable


class NegativeInput(ValueError):
    """Raised when a nonnegative rational is required."""


def pair_j(n: int, m: int) -> int:
    """Pair two naturals: the halved value of ``(n+m)**2 + 3n + m``.

    ``(n+m)**2 + 3n + m`` is always even, so the bounded minimisation of
    ``2u = (n+m)**2 + 3n + m`` is exact division by two.
    """
    if n < 0 or m < 0:
        raise NegativeInput("pairing is defined on naturals")
    total = (n + m) ** 2 + 3 * n + m
    assert total % 2 == 0
    return total // 2


def unpair_j(code: int) -> tuple[int, int]:
    """Inverse of :func:`pair_j` (total: every natural codes a pair)."""
    if code < 0:
        raise NegativeInput("codes are naturals")
    # pair_j(n, m) = s(s+1)/2 + n with s = n + m and n <= s
    s = (isqrt(8 * code + 1) - 1) // 2
    n = code - s * (s + 1) // 2
    return n, s - n


@dataclass(frozen=True)
class RatCode:
    """A natural number read as a coded rational."""

    code: int

    def __post_init__(self) -> None:
        if self.code < 0:
            raise NegativeInput("codes are naturals")

    def value(self) -> Fraction:
        return rat_value(self.code)


def rat_value(code: int | RatCode) -> Fraction:
    """Decode: ``j(a, b)`` denotes ``(a/2)/(b+1)`` for even ``a``,
    ``-((a+1)/2)/(b+1)`` for odd ``a``."""
    if isinstance(code, RatCode):
        code = code.code
    a, b = unpair_j(code)
    if a % 2 == 0:
        return Fraction(a // 2, b + 1)
    return Fraction(-((a + 1) // 2), b + 1)


def rat_code(q: Fraction | int) -> RatCode:
    """Some code denoting ``q`` (codes are not unique)."""
    q = Fraction(q)
    if q >= 0:
        return RatCode(pair_j(2 * q.numerator, q.denominator - 1))
    return RatCode(pair_j(2 * (-q.numerator) - 1, q.denominator - 1))


def canonical_rep(r: Fraction | int) -> Callable[[int], RatCode]:
    """Canonical fast-converging code of a nonnegative rational.

    Position ``n`` holds the code of the largest dyadic ``k / 2**(n+1)``
    not exceeding ``r``, paired with denominator part ``2**(n+1) - 1``.
    """
    r = Fraction(r)
    if r < 0:
        raise NegativeInput("canonical codes exist for nonnegative inputs")

    def at(n: int) -> RatCode:
        if n < 0:
            raise ValueError("positions are naturals")
        scale = 2 ** (n + 1)
        k0 = (r.numerator * scale) // r.denominator
        return RatCode(pair_j(2 * k0, scale - 1))

    return at


@dataclass(frozen=True)
class RealCode:
    """A real coded by a rational-code sequence; fast Cauchy when flagged.

    ``fast_cauchy`` asserts ``|value_at(n) - value_at(m)| <= 2**-n + 2**-m``,
    which pins the coded real within ``2**-n`` of every position.
    """

    seq: Callable[[int], RatCode]
    fast_cauchy: bool = True

    def at(self, n: int) -> RatCode:
        return self.seq(n)

    def value_at(self, n: int) -> Fraction:
        return self.seq(n).value()


def real_from_rational(q: Fraction | int) -> RealCode:
    """The constant code sequence of a rational."""
    code = rat_code(q)
    return RealCode(lambda n: code)


def real_from_canonical(r: Fraction | int) -> RealCode:
    return RealCode(canonical_rep(r))


def real_add(x: RealCode, y: RealCode) -> RealCode:
    """Sum; reads both inputs one position deeper."""
    return RealCode(cache(lambda n: rat_code(x.value_at(n + 1) + y.value_at(n + 1))))


def real_neg(x: RealCode) -> RealCode:
    return RealCode(cache(lambda n: rat_code(-x.value_at(n))))


def real_sub(x: RealCode, y: RealCode) -> RealCode:
    return real_add(x, real_neg(y))


def real_abs(x: RealCode) -> RealCode:
    return RealCode(cache(lambda n: rat_code(abs(x.value_at(n)))))


def _int_bound(x: RealCode) -> int:
    """An integer bound on ``|x|`` computed from position 0."""
    v = abs(x.value_at(0)) + 1
    return int(v.numerator // v.denominator) + 1


def real_mul(x: RealCode, y: RealCode) -> RealCode:
    """Product; the precision shift depends on an integer bound from position 0."""
    bound = max(_int_bound(x), _int_bound(y))
    shift = (bound + 1).bit_length() + 2  # >= ceil(log2(bound+1)) + 2

    def at(n: int) -> RatCode:
        k = n + shift
        return rat_code(x.value_at(k) * y.value_at(k))

    return RealCode(cache(at))


def real_arith(op: str, x: RealCode, y: RealCode | None = None) -> RealCode:
    """Dispatch on ``op`` in ``{"+", "-", "*", "abs", "neg"}``."""
    if op == "abs":
        return real_abs(x)
    if op == "neg":
        return real_neg(x)
    if y is None:
        raise ValueError(f"binary operation {op!r} needs two arguments")
    if op == "+":
        return real_add(x, y)
    if op == "-":
        return real_sub(x, y)
    if op == "*":
        return real_mul(x, y)
    raise ValueError(f"unknown operation {op!r}")


def guarded_recip(x: RealCode, l: int) -> RealCode:
    """Reciprocal, correct whenever ``|x| > 2**-l``.

    The guard is resolved by one sample: when it certifies ``|x| >= 2**-(l+1)``
    the output codes ``1/x``; otherwise (which implies ``|x| <= 2**-l``) the
    output is the constant code of 0, keeping the function total on codes.
    """
    if l < 0:
        raise ValueError("guard exponents are naturals")
    probe_pos = 2 * l + 2
    probe = x.value_at(probe_pos)
    guard = Fraction(1, 2**l) - Fraction(1, 2**probe_pos)
    if abs(probe) < guard:
        return real_from_rational(0)

    def at(n: int) -> RatCode:
        q = x.value_at(n + 2 * l + 3)
        return rat_code(1 / q)

    return RealCode(cache(at))


class CompareResult(enum.Enum):
    LT = "lt"
    GT = "gt"
    WITHIN = "within"


def compare_at(x: RealCode, y: RealCode, k: int) -> CompareResult:
    """Decide ``x < y``, ``x > y`` or ``|x - y| <= 2**-k``.

    ``LT``/``GT`` verdicts are strict truths about the coded reals; the
    ``WITHIN`` verdict certifies closeness at resolution ``k``.  Separations
    larger than ``2**-k`` are always decided.
    """
    if k < 0:
        raise ValueError("resolutions are naturals")
    d = x.value_at(k + 2) - y.value_at(k + 2)
    margin = Fraction(1, 2 ** (k + 1))
    if d > margin:
        return CompareResult.GT
    if d < -margin:
        return CompareResult.LT
    return CompareResult.WITHIN
