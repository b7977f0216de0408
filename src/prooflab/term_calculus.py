"""Combinator terms over the finite types, with reduction and finite models.

Terms are variables, typed constants and applications; there is no binder.
Lambda abstraction is compiled away by :func:`bracket_abstract`, and
computation is leftmost-outermost rewriting of the projector, composition
and recursor constants under a fuel bound.

A :class:`FiniteModel` interprets the type ``0`` as ``{0, ..., size}`` with
a truncated successor, and optionally interprets ``X`` as a fixed finite
list of points (values of type ``X`` are indices into that list).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import IllTypedApplication
from .finite_types import (
    Arrow,
    BaseType,
    FinType,
    ZERO,
    X,
    arrow_chain,
)

DEFAULT_FUEL = 10**6


class UnsupportedType(ValueError):
    """Raised when a finite model cannot represent or enumerate a type."""


@dataclass(frozen=True)
class Term:
    """Base class of term nodes."""


@dataclass(frozen=True)
class Var(Term):
    name: str
    type: FinType

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    """A typed constant; ``kind`` selects semantics, ``payload`` extra data."""

    kind: str
    type: FinType
    payload: tuple = ()

    def __str__(self) -> str:
        if self.kind == "ratreal":
            return f"[{self.payload[0]}]"
        if self.kind == "defined":
            return str(self.payload[0])
        return self.kind


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term

    def __str__(self) -> str:
        arg = str(self.arg)
        if isinstance(self.arg, App):
            arg = f"({arg})"
        return f"{self.fun} {arg}"


TYPE_ONE = Arrow(ZERO, ZERO)

ZERO_CONST = Const("zero", ZERO)
SUCC = Const("succ", TYPE_ONE)

# vector-space and operator-theoretic constants
ZERO_X = Const("zeroX", X)
ONE_X = Const("oneX", X)
PLUS_X = Const("plusX", arrow_chain([X, X], X))
NEG_X = Const("negX", arrow_chain([X], X))
SCALE_X = Const("scaleX", arrow_chain([TYPE_ONE, X], X))
NORM_X = Const("normX", arrow_chain([X], TYPE_ONE))
INNER_X = Const("innerX", arrow_chain([X, X], TYPE_ONE))
CHI_A = Const("chiA", arrow_chain([X, X], ZERO))
RESOLVENT_J = Const("resolventJ", arrow_chain([TYPE_ONE, X], X))
GAMMA_TILDE = Const("gammaTilde", TYPE_ONE)
M_GAMMA = Const("mGamma", ZERO)
C_X = Const("cX", X)
RHO_TILDE = Const("rhoTilde", TYPE_ONE)
N_GAMMA = Const("nGamma", ZERO)
MIN_SELECTION = Const("minSelection", arrow_chain([X], X))
UC_MODULUS = Const("ucModulus", TYPE_ONE)


def rat_real(q: Fraction | int) -> Const:
    """The type-1 constant representing a rational as a constant code sequence."""
    return Const("ratreal", TYPE_ONE, (Fraction(q),))


def defined_const(name: str, t: FinType) -> Const:
    """A named closed term treated as an opaque constant of type ``t``."""
    return Const("defined", t, (name,))


REAL_PLUS = defined_const("realPlus", arrow_chain([TYPE_ONE, TYPE_ONE], TYPE_ONE))
RECIP_SUCC = defined_const("recipSucc", arrow_chain([ZERO], TYPE_ONE))

NAMED_CONSTS = {
    "zero": ZERO_CONST,
    "succ": SUCC,
    "zeroX": ZERO_X,
    "oneX": ONE_X,
    "plusX": PLUS_X,
    "negX": NEG_X,
    "scaleX": SCALE_X,
    "normX": NORM_X,
    "innerX": INNER_X,
    "chiA": CHI_A,
    "resolventJ": RESOLVENT_J,
    "gammaTilde": GAMMA_TILDE,
    "mGamma": M_GAMMA,
    "cX": C_X,
    "rhoTilde": RHO_TILDE,
    "nGamma": N_GAMMA,
    "minSelection": MIN_SELECTION,
    "ucModulus": UC_MODULUS,
    "realPlus": REAL_PLUS,
    "recipSucc": RECIP_SUCC,
}


def proj_const(kept: FinType, dropped: FinType) -> Const:
    """Projector: takes a ``kept`` and a ``dropped`` argument, returns the first."""
    return Const("proj", arrow_chain([kept, dropped], kept), (kept, dropped))


def sigma_const(delta: FinType, rho: FinType, tau: FinType) -> Const:
    """Composition: ``sigma x y z`` rewrites to ``x z (y z)``."""
    x_t = arrow_chain([delta, rho], tau)
    y_t = arrow_chain([delta], rho)
    return Const("sigma", arrow_chain([x_t, y_t, delta], tau), (delta, rho, tau))


def rec_const(rho: FinType) -> Const:
    """Recursor: ``rec y z 0 = y`` and ``rec y z (succ n) = z (rec y z n) n``."""
    step_t = arrow_chain([rho, ZERO], rho)
    return Const("rec", arrow_chain([rho, step_t, ZERO], rho), (rho,))


def app(f: Term, *args: Term) -> Term:
    for a in args:
        f = App(f, a)
    return f


def numeral(n: int) -> Term:
    if n < 0:
        raise ValueError("numerals are naturals")
    t: Term = ZERO_CONST
    for _ in range(n):
        t = App(SUCC, t)
    return t


def numeral_value(t: Term) -> int | None:
    """The natural denoted by a numeral term, or ``None``."""
    n = 0
    while isinstance(t, App) and t.fun == SUCC:
        n += 1
        t = t.arg
    return n if t == ZERO_CONST else None


def uncurry(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def free_vars(t: Term) -> dict[str, FinType]:
    out: dict[str, FinType] = {}
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Var):
            out[s.name] = s.type
        elif isinstance(s, App):
            stack.append(s.fun)
            stack.append(s.arg)
    return out


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Replace every occurrence of the variable ``name``; terms have no binders."""
    if isinstance(t, Var):
        return replacement if t.name == name else t
    if isinstance(t, App):
        return App(substitute(t.fun, name, replacement), substitute(t.arg, name, replacement))
    return t


def _stack_path(todo: list) -> str:
    """The path from the root to the node :func:`typecheck` is at, read off its stack.  Each
    ``None`` there closes an application around that node, root first, and has its ``arg``
    still pending right above it while the walk is in its ``fun``."""
    return "".join("fun." if i + 1 < len(todo) and todo[i + 1] is not None else "arg."
                   for i, s in enumerate(todo) if s is None)


def typecheck(t: Term, ctx: Mapping[str, FinType] | None = None, _path: str = "") -> FinType:
    """Infer the type of ``t``; applications must match argument types exactly.

    A loop over an explicit stack, in post-order (``fun``, ``arg``, then the application),
    so the first error is the one a recursive walk meets, at the same ``fun.``/``arg.`` path.
    """
    done: list[FinType] = []  # types of the finished subterms, in post-order
    todo: list = [t]
    while todo:
        s = todo.pop()
        if s is None:
            arg_t = done.pop()
            fun_t = done[-1]
            if not isinstance(fun_t, Arrow):
                raise IllTypedApplication(f"applied non-arrow type {fun_t}",
                                          _path + _stack_path(todo))
            if fun_t.argument != arg_t:
                raise IllTypedApplication(
                    f"expected argument of type {fun_t.argument}, got {arg_t}",
                    _path + _stack_path(todo))
            done[-1] = fun_t.result
        elif type(s) is App:  # exact types: the three node classes have no subclasses
            todo += (None, s.arg, s.fun)
        elif type(s) is Const:
            done.append(s.type)
        else:
            assert type(s) is Var
            if ctx is not None and s.name in ctx and ctx[s.name] != s.type:
                raise IllTypedApplication(
                    f"variable {s.name} declared {ctx[s.name]} but annotated {s.type}",
                    _path + _stack_path(todo))
            done.append(s.type)
    return done[0]


def identity_term(rho: FinType) -> Term:
    """Closed term behaving as the identity on ``rho`` (a sigma-proj-proj instance)."""
    psi = Arrow(rho, rho)
    return app(sigma_const(rho, psi, rho), proj_const(rho, psi), proj_const(rho, rho))


def bracket_abstract(x: Var, t: Term) -> Term:
    """Compile the abstraction of ``x`` out of ``t`` into a binder-free term.

    The result ``u`` satisfies ``u s  ->*  t[s/x]`` under :func:`reduce_term`.
    """
    if t == x:
        return identity_term(x.type)
    fv = free_vars(t)
    if x.name not in fv:
        return App(proj_const(typecheck(t), x.type), t)
    if isinstance(t, Var) and t.name == x.name:
        raise IllTypedApplication(
            f"variable {x.name} occurs with type {t.type}, abstracted at {x.type}"
        )
    assert isinstance(t, App)
    left = bracket_abstract(x, t.fun)
    right = bracket_abstract(x, t.arg)
    arg_t = typecheck(t.arg)
    res_t = typecheck(t)
    return app(sigma_const(x.type, arg_t, res_t), left, right)


def bracket_abstract_chain(xs: Sequence[Var], t: Term) -> Term:
    """Abstract several variables, innermost last: result applied to xs gives t."""
    for x in reversed(xs):
        t = bracket_abstract(x, t)
    return t


@dataclass(frozen=True)
class Reduction:
    term: Term
    normal: bool
    steps: int


def _contract(t: Term) -> Term | None:
    head, args = uncurry(t)
    if isinstance(head, Const):
        if head.kind == "proj" and len(args) >= 2:
            return app(args[0], *args[2:])
        if head.kind == "sigma" and len(args) >= 3:
            x, y, z = args[0], args[1], args[2]
            return app(App(App(x, z), App(y, z)), *args[3:])
        if head.kind == "rec" and len(args) >= 3:
            n = args[2]
            if n == ZERO_CONST:
                return app(args[0], *args[3:])
            if isinstance(n, App) and n.fun == SUCC:
                prev = app(head, args[0], args[1], n.arg)
                return app(App(App(args[1], prev), n.arg), *args[3:])
    if isinstance(t, App):
        r = _contract(t.fun)
        if r is not None:
            return App(r, t.arg)
        r = _contract(t.arg)
        if r is not None:
            return App(t.fun, r)
    return None


def reduce_term(t: Term, fuel: int = DEFAULT_FUEL) -> Reduction:
    """Rewrite ``t`` leftmost-outermost until normal or the fuel runs out."""
    steps = 0
    while steps < fuel:
        nxt = _contract(t)
        if nxt is None:
            return Reduction(t, True, steps)
        t = nxt
        steps += 1
    return Reduction(t, _contract(t) is None, steps)


@dataclass
class FiniteModel:
    """Interprets type ``0`` as ``{0..size}`` with truncated successor.

    ``x_points`` optionally names a finite carrier for ``X``; values of type
    ``X`` are indices into it.  ``chi`` interprets the membership
    characteristic constant on index pairs, ``defined`` supplies semantics
    for :func:`defined_const` constants.
    """

    size: int
    x_points: Sequence | None = None
    chi: Callable[[int, int], int] | None = None
    defined: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.size, bool) or not isinstance(self.size, int) or self.size < 0:
            raise ValueError(f"model size must be a natural number, got {self.size!r}")

    def carrier(self) -> range:
        return range(self.size + 1)

    def succ(self, n: int) -> int:
        return min(n + 1, self.size)


class _SuccTable(dict):
    """``FiniteModel.succ`` as a lookup: ``n -> min(n + 1, size)``, a carrier value stored
    the first time it is read, any other argument computed each time."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def __missing__(self, n):
        value = min(n + 1, self.size)
        if type(n) is int and 0 <= n <= self.size:
            self[n] = value
        return value


@functools.lru_cache(maxsize=16)
def _succ(size: int):
    return _SuccTable(size).__getitem__


def const_value(c: Const, model: FiniteModel):
    kind = c.kind
    if kind == "zero":
        return 0
    if kind == "succ":  # a C call per successor, where model.succ is a Python frame
        return _succ(model.size)
    if kind == "proj":
        return lambda kept: lambda _dropped: kept
    if kind == "sigma":
        return lambda x: lambda y: lambda z: x(z)(y(z))
    if kind == "rec":
        def rec(y):
            def with_step(z):
                def at(n):
                    acc = y
                    for i in range(n):
                        acc = z(acc)(i)
                    return acc
                return at
            return with_step
        return rec
    if kind == "chiA":
        if model.chi is None:
            raise UnsupportedType("model carries no membership characteristic")
        return lambda i: lambda j: model.chi(i, j)
    if kind == "defined" and c.payload[0] in model.defined:
        return model.defined[c.payload[0]]
    raise UnsupportedType(f"constant {c} has no finite-model semantics")


def evaluate(t: Term, model: FiniteModel, env: Mapping[str, object] | None = None):
    """Denotation of ``t`` in ``model``; function values are Python callables."""
    env = env or {}
    if isinstance(t, Var):
        if t.name not in env:
            raise KeyError(f"unbound variable {t.name}")
        return env[t.name]
    if isinstance(t, Const):
        return const_value(t, model)
    assert isinstance(t, App)
    f = evaluate(t.fun, model, env)
    a = evaluate(t.arg, model, env)
    return f(a)


def _base_domain(t: FinType, model: FiniteModel) -> Sequence:
    if t is ZERO or t == ZERO:  # a dataclass == builds two tuples; types share the singletons
        return model.carrier()
    if t is X or t == X:
        if model.x_points is None:
            raise UnsupportedType("model carries no X points")
        return range(len(model.x_points))
    raise UnsupportedType(f"{t} is not a base type")


def enumerate_values(t: FinType, model: FiniteModel, budget: int = 200_000) -> list:
    """All values of type ``t`` in ``model``, within a count ``budget``.

    Enumerable types are the base types, whose values are ``0..n-1`` (carrier values or ``X``
    indices), and arrows from a base type.  The budget is checked before any table is built.
    A function is one fresh dict per table, exposed as its ``__getitem__`` (``KeyError``
    outside the domain), built an argument at a time in ``itertools.product`` order.
    """
    size = enumeration_size(t, model, budget)
    if isinstance(t, BaseType):
        return list(range(size))
    values, points = enumerate_values(t.result, model, budget), enumeration_size(t.argument, model)
    tables: list[dict] = [{}]
    for cells in [[{arg: r} for r in values] for arg in range(points)]:
        tables = [table | cell for table in tables for cell in cells]
    return [table.__getitem__ for table in tables]


def enumeration_size(t: FinType, model: FiniteModel, budget: float = math.inf) -> int:
    """Number of values :func:`enumerate_values` would produce (may be huge without a
    ``budget``).  :class:`UnsupportedType` if ``t`` is not enumerable or its count, or that of
    a result type within it, passes ``budget``."""
    if isinstance(t, BaseType):
        size = len(_base_domain(t, model))
        if size > budget:
            raise UnsupportedType(f"carrier of {t} exceeds budget")
        return size
    assert isinstance(t, Arrow)
    if not isinstance(t.argument, BaseType):
        raise UnsupportedType(f"cannot enumerate functionals over {t.argument}")
    points = len(_base_domain(t.argument, model))
    results = enumeration_size(t.result, model, budget)
    size = results ** points
    if size > budget:
        raise UnsupportedType(f"{results}^{points} tables of type {t} exceed budget {budget}")
    return size


# closed terms definable from the recursor, used for arithmetic atoms
def _pred_term() -> Term:
    u = Var("_u", ZERO)
    v = Var("_v", ZERO)
    step = bracket_abstract_chain([u, v], v)
    return bracket_abstract(Var("_n", ZERO), app(rec_const(ZERO), ZERO_CONST, step, Var("_n", ZERO)))


def _monus_term() -> Term:
    # monus m n: recursion on n, peeling one predecessor per step
    m = Var("_m", ZERO)
    n = Var("_n", ZERO)
    r = Var("_r", ZERO)
    k = Var("_k", ZERO)
    step = bracket_abstract_chain([r, k], App(PRED, r))
    body = app(rec_const(ZERO), m, step, n)
    return bracket_abstract_chain([m, n], body)


PRED = _pred_term()
MONUS = _monus_term()


def leq_term(s: Term, t: Term) -> Term:
    """Type-0 term that is ``0`` exactly when ``s <= t`` (truncated subtraction)."""
    return app(MONUS, s, t)
