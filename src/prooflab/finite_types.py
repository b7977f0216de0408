"""Finite type syntax over the base type ``0`` and the abstract vector type ``X``.

Types are built from the two base types by a single arrow constructor,
written ``t(s)`` for the type of maps from ``s`` into ``t``.  Application
notation nests on the left, so ``X(X)(1)`` is the type of maps that take a
``1``-argument and return an ``X``-to-``X`` map.  Numerals abbreviate the
pure types: ``n+1`` stands for ``0(n)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
        return format_type(self)


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
    todo = [t]
    while todo:
        s = todo.pop()
        if isinstance(s, Arrow):
            todo += (s.argument, s.result)
        elif s is X or s.name == "X":
            return True
    return False


def degree(t: FinType) -> int:
    """Nesting depth of arguments for an ``X``-free type.

    ``degree(0) = 0`` and ``degree(t(s)) = max(degree(t), degree(s) + 1)``: the most
    argument positions on a path from the root to a base type.
    """
    if contains_x(t):
        raise TypeContainsX(f"degree undefined for {t}")
    most, todo = 0, [(t, 0)]
    while todo:
        s, d = todo.pop()
        if isinstance(s, Arrow):
            todo += ((s.result, d), (s.argument, d + 1))
        else:
            most = max(most, d)
    return most


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
    done: list[FinType] = []  # the collapsed subtypes, in post-order
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:  # both sides of an arrow are done
            argument = done.pop()
            done[-1] = Arrow(done[-1], argument)
        elif isinstance(s, Arrow):
            todo += (None, s.argument, s.result)
        else:
            done.append(ZERO)
    return done[0]


def read_nested(text: str, error: type[ValueError], what: str) -> list:
    """The tokens of ``text``, split at spaces and parentheses, with each parenthesised group
    as a nested list.  An unbalanced parenthesis raises ``error``, whose message calls the
    text ``what``."""
    stack: list[list] = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok != ")":
            stack[-1].append(tok)
        elif len(stack) > 1:
            stack[-2].append(stack.pop())
        else:
            raise error("unexpected ')'")
    if len(stack) > 1:
        raise error(f"unbalanced parenthesis: unexpected end of {what}")
    return stack[0]


def parse_type(text: str) -> FinType:
    """Parse ``0``, ``X``, numerals and left-nested arrows like ``X(X)(1)``."""
    return _from_tokens(read_nested(text, TypeSyntaxError, "type"))


def _from_tokens(tokens: list) -> FinType:
    """A base type or a parenthesised group, then one parenthesised argument after another.

    A loop over an explicit stack of the open groups, each with its type so far (``None``
    before its head) and its tokens left, so the first error is the one a recursive reading
    meets."""
    stack: list[tuple] = []
    t, rest = None, iter(tokens)
    while True:
        tok = next(rest, None)
        if tok is None:  # the end of a group
            if t is None:
                raise TypeSyntaxError("unexpected end of type")
            if not stack:
                return t
            done = t
            t, rest = stack.pop()
            t = done if t is None else Arrow(t, done)
        elif isinstance(tok, list):
            stack.append((t, rest))
            t, rest = None, iter(tok)
        elif t is not None:
            raise TypeSyntaxError(f"trailing token {tok!r}")
        elif tok == "X":
            t = X
        elif tok.isascii() and tok.isdigit():  # int() refuses "²", which isdigit() accepts
            t = pure_type(int(tok))
        else:
            raise TypeSyntaxError(f"unexpected token {tok!r}")


def format_type(t: FinType, pure_shorthand: bool = False) -> str:
    """Render ``t``; with ``pure_shorthand`` pure types print as numerals.  A loop over an
    explicit stack of the subtypes and parentheses still to print."""
    out, todo = [], [t]
    while todo:
        s = todo.pop()
        if isinstance(s, str):
            out.append(s)
        elif pure_shorthand and (n := pure_index(s)):
            out.append(str(n))
        elif isinstance(s, BaseType):
            out.append(s.name)
        else:
            todo += (")", s.argument, "(", s.result)
    return "".join(out)
