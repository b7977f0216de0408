"""Finite type syntax over the base type ``0`` and the abstract vector type ``X``.

Types are built from the two base types by a single arrow constructor,
written ``t(s)`` for the type of maps from ``s`` into ``t``.  Application
notation nests on the left, so ``X(X)(1)`` is the type of maps that take a
``1``-argument and return an ``X``-to-``X`` map.  Numerals abbreviate the
pure types: ``n+1`` stands for ``0(n)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import TypeSyntaxError


class TypeContainsX(ValueError):
    """Raised when a degree is requested for a type mentioning ``X``."""


@dataclass(frozen=True)
class FinType:
    """Base class of type syntax nodes."""


@dataclass(frozen=True)
class BaseType(FinType):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arrow(FinType):
    """Maps from ``argument`` into ``result``; printed ``result(argument)``."""

    result: FinType
    argument: FinType

    def __str__(self) -> str:
        return f"{self.result}({self.argument})"


ZERO = BaseType("0")
X = BaseType("X")


def arrow_chain(arguments: Sequence[FinType], result: FinType) -> FinType:
    """Type of a curried map consuming ``arguments`` in order, returning ``result``."""
    if not arguments:
        return result
    return Arrow(arrow_chain(arguments[1:], result), arguments[0])


def argument_types(t: FinType) -> tuple[list[FinType], FinType]:
    """Split ``t`` into its argument types (in application order) and base."""
    args: list[FinType] = []
    while isinstance(t, Arrow):
        args.append(t.argument)
        t = t.result
    return args, t


def contains_x(t: FinType) -> bool:
    if isinstance(t, BaseType):
        return t is X or t.name == "X"
    assert isinstance(t, Arrow)
    return contains_x(t.result) or contains_x(t.argument)


def degree(t: FinType) -> int:
    """Nesting depth of arguments for an ``X``-free type.

    ``degree(0) = 0`` and ``degree(t(s)) = max(degree(t), degree(s) + 1)``.
    """
    if contains_x(t):
        raise TypeContainsX(f"degree undefined for {t}")
    if isinstance(t, BaseType):
        return 0
    assert isinstance(t, Arrow)
    return max(degree(t.result), degree(t.argument) + 1)


def pure_type(n: int) -> FinType:
    """The pure type abbreviated by the numeral ``n``: ``0`` for 0, else ``0(n-1)``."""
    if n < 0:
        raise ValueError("pure types are indexed by naturals")
    t: FinType = ZERO
    for _ in range(n):
        t = Arrow(ZERO, t)
    return t


def pure_index(t: FinType) -> int | None:
    """Inverse of :func:`pure_type`; ``None`` when ``t`` is not pure."""
    n = 0
    while isinstance(t, Arrow):
        if t.result != ZERO:
            return None
        t = t.argument
        n += 1
    return n if t == ZERO else None


def is_small(t: FinType) -> bool:
    """Small types: a base type applied to zero or more ``0``-arguments."""
    while isinstance(t, Arrow):
        if t.argument != ZERO:
            return False
        t = t.result
    return isinstance(t, BaseType)


def is_admissible(t: FinType) -> bool:
    """Admissible types: a base type applied to zero or more small arguments."""
    while isinstance(t, Arrow):
        if not is_small(t.argument):
            return False
        t = t.result
    return isinstance(t, BaseType)


@dataclass(frozen=True)
class TypeClass:
    degree: int | None
    small: bool
    admissible: bool


def classify(t: FinType) -> TypeClass:
    """Degree (when defined), smallness and admissibility of ``t``."""
    d = None if contains_x(t) else degree(t)
    return TypeClass(degree=d, small=is_small(t), admissible=is_admissible(t))


def hat(t: FinType) -> FinType:
    """Collapse ``X`` to ``0`` everywhere, preserving the arrow structure."""
    if isinstance(t, BaseType):
        return ZERO
    assert isinstance(t, Arrow)
    return Arrow(hat(t.result), hat(t.argument))


_TOKEN = re.compile(r"\s*([0-9]+|X|\(|\))")


def _tokenize(text: str) -> Iterator[str]:
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise TypeSyntaxError(f"bad type syntax at {text[pos:]!r}")
        yield m.group(1)
        pos = m.end()


def parse_type(text: str) -> FinType:
    """Parse ``0``, ``X``, numerals and left-nested arrows like ``X(X)(1)``."""
    tokens = list(_tokenize(text))
    pos = 0

    def atom() -> FinType:
        nonlocal pos
        if pos >= len(tokens):
            raise TypeSyntaxError("unexpected end of type")
        tok = tokens[pos]
        pos += 1
        if tok == "X":
            return X
        if tok.isdigit():
            return pure_type(int(tok))
        if tok == "(":
            inner = typ()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise TypeSyntaxError("unbalanced parenthesis")
            pos += 1
            return inner
        raise TypeSyntaxError(f"unexpected token {tok!r}")

    def typ() -> FinType:
        nonlocal pos
        t = atom()
        while pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            arg = typ()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise TypeSyntaxError("unbalanced parenthesis")
            pos += 1
            t = Arrow(t, arg)
        return t

    result = typ()
    if pos != len(tokens):
        raise TypeSyntaxError(f"trailing tokens in {text!r}")
    return result


def format_type(t: FinType, pure_shorthand: bool = False) -> str:
    """Render ``t``; with ``pure_shorthand`` pure types print as numerals."""
    if pure_shorthand:
        n = pure_index(t)
        if n is not None and n > 0:
            return str(n)
    if isinstance(t, BaseType):
        return t.name
    assert isinstance(t, Arrow)
    return f"{format_type(t.result, pure_shorthand)}({format_type(t.argument, pure_shorthand)})"
