"""Formulas over combinator terms, proof translations and finite-model checks.

The primitive language has one prime formula (equality at type ``0``),
decidable arithmetic comparison at type ``0``, comparison atoms between
type-1 real codes, the propositional connectives and typed quantifiers.
Negation is the defined connective ``f -> (0 = succ 0)``.

On top sit three layers:

* ``expand_defined`` unfolds extensional equality, the pointwise-majorant
  ordering and graph membership into the primitive language;
* ``negative_translation`` (double-negation shift into universal
  quantifiers) and ``dialectica`` (witness extraction into an
  exists/forall normal form) translate whole formulas;
* ``delta_recognize``/``skolemize_delta`` handle the bounded
  forall-exists-forall shape used for axiom schemata.

Brute-force evaluation over :class:`~prooflab.term_calculus.FiniteModel`
instances supplies the soundness oracle for the translations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from operator import attrgetter, eq, itemgetter, le
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import FormulaSyntaxError
from .finite_types import Arrow, BaseType, FinType, ZERO, X, arrow_chain, is_admissible, pure_type
from .term_calculus import (
    App,
    CHI_A,
    Const,
    FiniteModel,
    IllTypedApplication,
    NAMED_CONSTS,
    NEG_X,
    NORM_X,
    ONE_X,
    PLUS_X,
    RECIP_SUCC,
    REAL_PLUS,
    SCALE_X,
    SUCC,
    TYPE_ONE,
    Term,
    UC_MODULUS,
    UnsupportedType,
    Var,
    ZERO_CONST,
    app,
    bracket_abstract_chain,
    const_value,
    enumerate_values,
    enumeration_size,
    evaluate,
    free_vars as term_free_vars,
    numeral,
    numeral_value,
    rat_real,
    substitute as term_substitute,
    typecheck,
    uncurry,
)


class EnumerationBudgetExceeded(RuntimeError):
    """Raised when brute-force evaluation would enumerate too many values."""


class NotDeltaShape(ValueError):
    """Raised when a bounded forall-exists-forall shape is required but absent."""


@dataclass(frozen=True)
class Formula:
    """Base class of formula nodes."""


@dataclass(frozen=True)
class Prime(Formula):
    """Equality at type ``0``."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Leq0(Formula):
    """Decidable arithmetic comparison at type ``0``."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class RealCmp(Formula):
    """Comparison atom between type-1 real codes; ``op`` in ``{"=", "<=", "<"}``."""

    op: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    vtype: FinType
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    vtype: FinType
    body: Formula


@dataclass(frozen=True)
class EqAt(Formula):
    """Extensional equality at any type; defined, removed by expansion."""

    vtype: FinType
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Preceq(Formula):
    """Pointwise-majorant ordering at any type; defined, removed by expansion."""

    vtype: FinType
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class MemberA(Formula):
    """Graph membership ``element in A(point)`` via the characteristic constant."""

    element: Term
    point: Term


FALSE = Prime(ZERO_CONST, App(SUCC, ZERO_CONST))


def neg(f: Formula) -> Formula:
    """Negation, represented as ``f -> (0 = succ 0)``."""
    return Implies(f, FALSE)


def exists_leq(var: str, vtype: FinType, bound: Term, body: Formula) -> Formula:
    """Bounded existential: ``exists var (var preceq bound and body)``."""
    return Exists(var, vtype, And(Preceq(vtype, Var(var, vtype), bound), body))


ATOMS = (Prime, Leq0, RealCmp)
DEFINED = (EqAt, Preceq, MemberA)
_UNDECLARED: Mapping[str, FinType] = MappingProxyType({})  # no variable in scope


def is_atom(f: Formula) -> bool:
    return isinstance(f, ATOMS)


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, ATOMS) or isinstance(f, DEFINED):
        return True
    if isinstance(f, (And, Or, Implies)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


def _atom_terms(f: Formula) -> tuple[Term, ...]:
    return _SHAPES[type(f)][2](f)


def _map_atom_terms(f: Formula, fn: Callable[[Term], Term]) -> Formula:
    values, _, _, at = _SHAPES[type(f)]
    fields = list(values(f))
    for i in at:
        fields[i] = fn(fields[i])
    return type(f)(*fields)


def all_names(f: Formula) -> set[str]:
    """Every variable name occurring in ``f``, free or bound."""
    if isinstance(f, (And, Or, Implies)):
        return all_names(f.left) | all_names(f.right)
    if isinstance(f, (Forall, Exists)):
        return all_names(f.body) | {f.var}
    return {name for t in _atom_terms(f) for name in term_free_vars(t)}


def free_formula_vars(f: Formula) -> dict[str, FinType]:
    if isinstance(f, (And, Or, Implies)):
        out = free_formula_vars(f.left)
        out.update(free_formula_vars(f.right))
        return out
    if isinstance(f, (Forall, Exists)):
        out = free_formula_vars(f.body)
        out.pop(f.var, None)
        return out
    out: dict[str, FinType] = {}
    for t in _atom_terms(f):
        out.update(term_free_vars(t))
    return out


def typecheck_formula(f: Formula, ctx: Mapping[str, FinType] = _UNDECLARED) -> None:
    """Raise :class:`IllTypedApplication` unless every term of ``f`` type checks at the
    type its argument kind in :data:`SYNTAX` wants (``t``: the row's type, its first field)."""
    values, kinds, _, _ = _SHAPES[type(f)]
    fields = values(f)
    if kinds[0] == "b":  # a binder declares its variable in the body
        ctx = {**ctx, fields[0]: fields[1]}
    for kind, value in zip(kinds, fields):
        if kind == "f":
            typecheck_formula(value, ctx)
        elif kind in _TERM_TYPES or kind == "t":
            got, want = typecheck(value, ctx), _TERM_TYPES.get(kind, fields[0])
            if got != want:
                term = format_term(value, ctx)
                raise IllTypedApplication(f"{term} has type {got}, expected {want}")


class NameGen:
    """Deterministic fresh-name source; names carry a reserved ``_`` prefix."""

    def __init__(self, avoid: Iterable[str] = ()):
        self._avoid = set(avoid)
        self._counter = 0

    def fresh(self, hint: str) -> str:
        while True:
            self._counter += 1
            name = f"_{hint}{self._counter}"
            if name not in self._avoid:
                self._avoid.add(name)
                return name


def _subst_terms(f: Formula, mapping: Mapping[str, Term], gen: NameGen | None = None) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""
    if not mapping:
        return f
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_subst_terms(f.left, mapping, gen), _subst_terms(f.right, mapping, gen))
    if isinstance(f, (Forall, Exists)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        clash = any(f.var in term_free_vars(t) for t in inner.values())
        var, body = f.var, f.body
        if clash:
            gen = gen or NameGen(all_names(f) | set(mapping))
            renamed = gen.fresh(f.var.strip("_") or "v")
            body = _subst_terms(body, {f.var: Var(renamed, f.vtype)}, gen)
            var = renamed
        return type(f)(var, f.vtype, _subst_terms(body, inner, gen))

    def on_term(t: Term) -> Term:
        for name, repl in mapping.items():
            t = term_substitute(t, name, repl)
        return t

    return _map_atom_terms(f, on_term)


def normalize_bound_names(f: Formula, gen: NameGen | None = None) -> Formula:
    """Rename bound variables so they are distinct from each other and free names."""
    gen = gen or NameGen(all_names(f))
    seen = set(free_formula_vars(f))

    def walk(g: Formula) -> Formula:
        if isinstance(g, (And, Or, Implies)):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, (Forall, Exists)):
            var, body = g.var, g.body
            if var in seen:
                fresh = gen.fresh(var.strip("_") or "v")
                body = _subst_terms(body, {var: Var(fresh, g.vtype)}, gen)
                var = fresh
            seen.add(var)
            return type(g)(var, g.vtype, walk(body))
        return g

    return walk(f)


def _minus_x(a: Term, b: Term) -> Term:
    return app(PLUS_X, a, App(NEG_X, b))


def expand_defined(f: Formula, gen: NameGen | None = None) -> Formula:
    """Unfold defined predicates into the primitive language.

    Extensional equality descends through arrow types with fresh universal
    variables, bottoming out at the type-0 prime or, at type ``X``, at a
    vanishing-norm real atom.  The ordering predicate descends the same way,
    bottoming out at arithmetic or norm comparison.  Membership becomes a
    characteristic-function equation.
    """
    gen = gen or NameGen(all_names(f))

    def walk(g: Formula) -> Formula:
        if isinstance(g, (And, Or, Implies)):
            return type(g)(walk(g.left), walk(g.right))
        if isinstance(g, (Forall, Exists)):
            return type(g)(g.var, g.vtype, walk(g.body))
        if isinstance(g, (EqAt, Preceq)):
            t, is_eq = g.vtype, isinstance(g, EqAt)
            if t == ZERO:
                return (Prime if is_eq else Leq0)(g.lhs, g.rhs)
            if t == X and is_eq:
                return RealCmp("=", App(NORM_X, _minus_x(g.lhs, g.rhs)), rat_real(0))
            if t == X:
                return RealCmp("<=", App(NORM_X, g.lhs), App(NORM_X, g.rhs))
            assert isinstance(t, Arrow)
            v = Var(gen.fresh("e" if is_eq else "p"), t.argument)
            return Forall(v.name, t.argument, walk(type(g)(t.result, App(g.lhs, v), App(g.rhs, v))))
        if isinstance(g, MemberA):
            return Prime(app(CHI_A, g.point, g.element), ZERO_CONST)
        return g

    return walk(f)


def negative_translation(f: Formula) -> Formula:
    """Double-negation translation: prefix with a double negation and insert
    one under every universal quantifier; all other nodes pass through."""

    def star(g: Formula) -> Formula:
        if is_atom(g):
            return g
        if isinstance(g, (And, Or, Implies)):
            return type(g)(star(g.left), star(g.right))
        if isinstance(g, Exists):
            return Exists(g.var, g.vtype, star(g.body))
        if isinstance(g, Forall):
            return Forall(g.var, g.vtype, neg(neg(star(g.body))))
        raise ValueError(f"expand defined predicates before translating: {g}")

    return neg(neg(star(f)))


@dataclass(frozen=True)
class DialecticaForm:
    """Normal form ``exists ex_vars forall univ_vars matrix`` with a
    quantifier-free matrix."""

    ex_vars: tuple[tuple[str, FinType], ...]
    univ_vars: tuple[tuple[str, FinType], ...]
    matrix: Formula

    def search_size(self, model: FiniteModel) -> int:
        """Witness tuples times counterexample tuples (:class:`UnsupportedType` if unbounded)."""
        return math.prod(enumeration_size(t, model) for _, t in self.ex_vars + self.univ_vars)

    def to_formula(self) -> Formula:
        f = self.matrix
        for name, t in reversed(self.univ_vars):
            f = Forall(name, t, f)
        for name, t in reversed(self.ex_vars):
            f = Exists(name, t, f)
        return f


def dialectica(f: Formula, gen: NameGen | None = None) -> DialecticaForm:
    """Witness-extracting translation into an exists/forall normal form.

    Quantifier-free inputs pass through with empty variable tuples (except
    that disjunction introduces its type-0 case flag).  Fresh witness
    variables are named deterministically in traversal order.
    """
    gen = gen or NameGen(all_names(f))
    f = normalize_bound_names(f, gen)
    return _dialectica(f, gen)


def _dialectica(f: Formula, gen: NameGen) -> DialecticaForm:
    if is_atom(f):
        return DialecticaForm((), (), f)
    if isinstance(f, DEFINED):
        raise ValueError(f"expand defined predicates before translating: {f}")
    if isinstance(f, And):
        a = _dialectica(f.left, gen)
        b = _dialectica(f.right, gen)
        return DialecticaForm(
            a.ex_vars + b.ex_vars, a.univ_vars + b.univ_vars, And(a.matrix, b.matrix)
        )
    if isinstance(f, Or):
        a = _dialectica(f.left, gen)
        b = _dialectica(f.right, gen)
        z = gen.fresh("z")
        flag = Prime(Var(z, ZERO), ZERO_CONST)
        matrix = And(Implies(flag, a.matrix), Implies(neg(flag), b.matrix))
        return DialecticaForm(
            ((z, ZERO),) + a.ex_vars + b.ex_vars, a.univ_vars + b.univ_vars, matrix
        )
    if isinstance(f, Implies):
        a = _dialectica(f.left, gen)
        b = _dialectica(f.right, gen)
        witnesses, wit_sub = _functionals(gen, "W", b.ex_vars, a.ex_vars)
        counters, counter_sub = _functionals(gen, "Y", a.univ_vars, a.ex_vars + b.univ_vars)
        matrix = Implies(_subst_terms(a.matrix, counter_sub), _subst_terms(b.matrix, wit_sub))
        return DialecticaForm(witnesses + counters, a.ex_vars + b.univ_vars, matrix)
    if isinstance(f, Exists):
        d = _dialectica(f.body, gen)
        return DialecticaForm(((f.var, f.vtype),) + d.ex_vars, d.univ_vars, d.matrix)
    if isinstance(f, Forall):
        d = _dialectica(f.body, gen)
        bound = ((f.var, f.vtype),)
        witnesses, sub = _functionals(gen, "F", d.ex_vars, bound)
        return DialecticaForm(witnesses, bound + d.univ_vars, _subst_terms(d.matrix, sub))
    raise TypeError(f"unknown formula node {f}")


def _functionals(gen: NameGen, hint: str, targets, over) -> tuple[tuple, dict[str, Term]]:
    """A fresh function of ``over`` for each of ``targets``, and a substitution applying it."""
    args, names, sub = [Var(n, t) for n, t in over], [], {}
    for name, t in targets:
        fn = Var(gen.fresh(hint), arrow_chain([a.type for a in args], t))
        names.append((fn.name, fn.type))
        sub[name] = app(fn, *args)
    return tuple(names), sub


def classify_quantifier_class(f: Formula) -> str:
    """``forall_formula`` / ``exists_formula`` for one admissible quantifier
    block over a quantifier-free matrix, else ``neither``.

    A quantifier-free input counts as a (degenerate) ``forall_formula``.
    """
    for quantifier, name in ((Forall, "forall_formula"), (Exists, "exists_formula")):
        block, g = _leading(f, quantifier)
        if is_quantifier_free(g) and all(is_admissible(t) for _, t in block):
            return name
    return "neither"


def _leading(g: Formula, quantifier: type) -> tuple[list[tuple[str, FinType]], Formula]:
    """The variables of the block of ``quantifier`` nodes that ``g`` opens with, and its body."""
    block = []
    while isinstance(g, quantifier):
        block, g = block + [(g.var, g.vtype)], g.body
    return block, g


@dataclass(frozen=True)
class DeltaForm:
    """Shape ``forall a exists b preceq r(a) forall c matrix`` with
    admissible types and a quantifier-free matrix."""

    a_vars: tuple[tuple[str, FinType], ...]
    b_vars: tuple[tuple[str, FinType, Term], ...]
    c_vars: tuple[tuple[str, FinType], ...]
    matrix: Formula


def delta_recognize(f: Formula) -> DeltaForm | None:
    """Match the bounded forall-exists-forall shape, or return ``None``.

    Bound terms may mention only the outer universal variables; every
    quantified type must be admissible.
    """
    a_vars, g = _leading(f, Forall)
    a_names = {n for n, _ in a_vars}
    b_vars: list[tuple[str, FinType, Term]] = []
    while isinstance(g, Exists):
        head = g.body.left if isinstance(g.body, And) else None
        if not (isinstance(head, Preceq) and head.lhs == Var(g.var, g.vtype)
                and head.vtype == g.vtype and set(term_free_vars(head.rhs)) <= a_names):
            return None
        b_vars.append((g.var, g.vtype, head.rhs))
        g = g.body.right
    c_vars, g = _leading(g, Forall)
    types = [t for _, t, *_ in a_vars + b_vars + c_vars]
    if not b_vars or not is_quantifier_free(g) or not all(map(is_admissible, types)):
        return None
    return DeltaForm(tuple(a_vars), tuple(b_vars), tuple(c_vars), g)


def skolemize_delta(d: DeltaForm, gen: NameGen | None = None) -> Formula:
    """Lift the bounded existentials over the leading universals.

    Each bounded witness becomes a bounded function of the universal block,
    with its bound abstracted over the same block; the matrix applies the
    function explicitly.
    """
    if not isinstance(d, DeltaForm):
        raise NotDeltaShape(f"expected a recognized bounded shape, got {type(d).__name__}")
    gen = gen or NameGen(
        {n for n, _ in d.a_vars} | {n for n, _, _ in d.b_vars} | {n for n, _ in d.c_vars}
    )
    a_terms = [Var(n, t) for n, t in d.a_vars]
    a_types = [t for _, t in d.a_vars]
    sub: dict[str, Term] = {}
    skolems: list[tuple[str, FinType, Term]] = []
    for name, t, bound in d.b_vars:
        sk = gen.fresh(f"Sk_{name.strip('_')}")
        sk_t = arrow_chain(a_types, t)
        skolems.append((sk, sk_t, bracket_abstract_chain(a_terms, bound)))
        sub[name] = app(Var(sk, sk_t), *a_terms)
    body = _subst_terms(d.matrix, sub)
    for name, t in reversed(d.a_vars + d.c_vars):
        body = Forall(name, t, body)
    for sk, sk_t, bound in reversed(skolems):
        body = exists_leq(sk, sk_t, bound, body)
    return body


def eval_formula(
    f: Formula,
    model: FiniteModel,
    env: Mapping[str, object] | None = None,
    budget: int = 200_000,
) -> bool:
    """Classical truth in the finite model by exhaustive quantification.

    ``f`` is compiled once per call, in one pass, to closures over a frame of slots (Feeley
    and Lapalme, "Using closures for code generation", 1987): a bound variable becomes its
    binder's slot index, and a node free of bound variables is folded to its value.  A node
    outside every quantifier runs at most once, so it is evaluated as it is built; there, a
    quantifier tries its first value so and compiles its body for the rest.  Nothing is
    evaluated out of order: connectives stop at a deciding left operand, and an unbound
    variable, a real atom or a type past the budget raises only when reached.
    """
    slots = 0  # frame positions handed out to binders so far

    def build(g: Formula, scope: dict, hot: bool) -> tuple[bool, object]:
        """``(True, truth)`` for a folded node, else ``(False, test of a frame)``."""
        nonlocal slots
        if isinstance(g, (Prime, Leq0)):
            lc, lhs = _term(g.lhs, scope, model)
            rc, rhs = _term(g.rhs, scope, model)
            cmp = eq if isinstance(g, Prime) else le
            if lc and rc:
                try:
                    return True, cmp(lhs, rhs)
                except Exception:  # a closed atom that fails, fails when reached
                    code = lambda s: cmp(lhs, rhs)
            elif lc or rc:
                code = (lambda s: cmp(lhs, rhs(s))) if lc else (lambda s: cmp(lhs(s), rhs))
            else:
                code = lambda s: cmp(lhs(s), rhs(s))
        elif isinstance(g, (And, Or, Implies)):
            lc, left = build(g.left, scope, hot)
            if lc:  # a known left operand decides, or hands the value on to the right one
                if isinstance(g, Or) == bool(left):
                    return True, bool(left) or isinstance(g, Implies)
                return build(g.right, scope, hot)
            rc, right = build(g.right, scope, hot)
            right = (lambda s, v=right: v) if rc else right
            if isinstance(g, And):
                return False, lambda s: left(s) and right(s)
            if isinstance(g, Or):
                return False, lambda s: left(s) or right(s)
            return False, lambda s: not left(s) or right(s)
        elif isinstance(g, (Forall, Exists)):
            i, slots, want = slots, slots + 1, isinstance(g, Exists)
            domain = None if hot else _domain(g.vtype, model, budget)  # enumerated when reached
            if domain:  # reached now: the first value is tried as the body is built for it
                if (not build(g.body, {**scope, g.var: (True, domain[0])}, False)[1]) is not want:
                    return True, want
            bc, body = build(g.body, {**scope, g.var: (False, itemgetter(i))}, True)
            body, start = (lambda s, v=body: v) if bc else body, 0 if hot else 1

            def code(s):  # stops at the first value that decides, as any() and all() do
                nonlocal domain
                domain = domain or _domain(g.vtype, model, budget)
                for s[i] in islice(domain, start, None):
                    if (not body(s)) is not want:
                        return want
                return not want
        elif isinstance(g, DEFINED):
            return build(expand_defined(g), scope, hot)
        else:  # a real atom, or not a formula: raises when reached

            def code(s):
                raise (UnsupportedType("real comparison atoms have no finite-model value")
                       if isinstance(g, RealCmp) else TypeError(f"unknown formula node {g}"))

        return (False, code) if hot else (True, code([None] * slots))

    scope = {name: (True, value) for name, value in env.items()} if env else {}
    return build(f, scope, False)[1]


def _term(t: Term, scope: dict, model: FiniteModel) -> tuple[bool, object]:
    """``(True, value)`` for a folded term, else ``(False, fn of a frame)``."""
    if isinstance(t, App):
        fc, fn = _term(t.fun, scope, model)
        ac, arg = _term(t.arg, scope, model)
        if fc and ac:
            try:
                return True, fn(arg)
            except Exception:  # a closed term that fails, fails when reached
                return False, lambda s: fn(arg)
        if fc or ac:
            return False, (lambda s: fn(arg(s))) if fc else (lambda s: fn(s)(arg))
        return False, lambda s: fn(s)(arg(s))
    if isinstance(t, Const):
        try:
            return True, const_value(t, model)
        except UnsupportedType:
            return False, lambda s: const_value(t, model)
    return scope.get(t.name) or (False, lambda s: evaluate(t, model))  # unbound: KeyError


def _domain(vtype: FinType, model: FiniteModel, budget: int) -> list:
    try:
        return enumerate_values(vtype, model, budget)
    except UnsupportedType as exc:
        raise EnumerationBudgetExceeded(str(exc)) from exc


def eval_dialectica(
    d: DialecticaForm,
    model: FiniteModel,
    env: Mapping[str, object] | None = None,
    budget: int = 2_000_000,
) -> bool:
    """Truth of ``d.to_formula()``, after checking that its witness search fits ``budget``."""
    try:
        work = d.search_size(model)
    except UnsupportedType as exc:
        raise EnumerationBudgetExceeded(str(exc)) from exc
    if work > budget:
        raise EnumerationBudgetExceeded(f"witness search space exceeds budget {budget}")
    return eval_formula(d.to_formula(), model, env, budget)


@dataclass(frozen=True)
class SoundnessReport:
    model_size: int
    direct: bool
    negative_translation: bool
    dialectica: bool

    @property
    def nt_agrees(self) -> bool:
        return self.direct == self.negative_translation

    @property
    def dialectica_agrees(self) -> bool:
        return self.direct == self.dialectica

    @property
    def all_agree(self) -> bool:
        return self.nt_agrees and self.dialectica_agrees


def check_interpretation_soundness(
    f: Formula,
    model: FiniteModel | None = None,
    budget: int = 2_000_000,
) -> SoundnessReport:
    """Compare direct truth with both translations on a finite model.

    Without an explicit model the largest feasible carrier ``{0..n}`` with
    ``n <= 3`` is chosen so the witness search stays inside the budget.
    """
    d, nt = dialectica(f), negative_translation(f)  # translated once, for every carrier
    for m in [model] if model is not None else [FiniteModel(n) for n in (3, 2, 1)]:
        try:
            return SoundnessReport(m.size, eval_formula(f, m, budget=budget),
                                   eval_formula(nt, m, budget=budget),
                                   eval_dialectica(d, m, budget=budget))
        except EnumerationBudgetExceeded as exc:
            if model is not None:
                raise
            last = exc
    raise EnumerationBudgetExceeded(str(last))


def uc_star_formula() -> Formula:
    """Uniform-continuity axiom for the abstract operator, in bounded shape.

    For every resolution ``k`` and points with distance below the modulus
    threshold, every graph value at the first point has a graph value at the
    second within ``1/(k+1)``, bounded in norm by ``(norm(z)+1/(k+1))``
    times the unit vector.
    """
    k = Var("k", ZERO)
    x = Var("x", X)
    y = Var("y", X)
    z = Var("z", X)
    w = Var("w", X)
    bound = app(SCALE_X, app(REAL_PLUS, App(NORM_X, z), App(RECIP_SUCC, k)), ONE_X)
    matrix = Implies(
        And(
            RealCmp("<", App(NORM_X, _minus_x(x, y)), App(RECIP_SUCC, App(UC_MODULUS, k))),
            MemberA(z, x),
        ),
        And(
            MemberA(w, y),
            RealCmp("<=", App(NORM_X, _minus_x(z, w)), App(RECIP_SUCC, k)),
        ),
    )
    inner = exists_leq("w", X, bound, matrix)
    for v in (z, y, x, k):
        inner = Forall(v.name, v.type, inner)
    return inner


def generate_corpus(seed: int, count: int = 30, budget: int = 500_000) -> list[Formula]:
    """Deterministic corpus of closed first-order formulas over type ``0``.

    Quantifier depth is at most two and candidates are kept only when the
    witness search of their exists/forall normal form fits the budget on a
    carrier of size at least three, keeping every witness type of low degree.
    """
    rng = random.Random(seed)
    names = ["x", "y", "u", "v"]

    def gen_term(ctx: list[str], depth: int) -> Term:
        # bound variables preferred so quantifiers bite
        if ctx and rng.random() < 0.65:
            t: Term = Var(rng.choice(ctx), ZERO)
        else:
            t = rng.choice([ZERO_CONST, App(SUCC, ZERO_CONST), App(SUCC, App(SUCC, ZERO_CONST))])
        for _ in range(rng.randrange(depth + 1)):
            t = App(SUCC, t)
        return t

    def gen_atom(ctx: list[str]) -> Formula:
        cls = rng.choice((Prime, Leq0))
        return cls(gen_term(ctx, 1), gen_term(ctx, 1))

    def gen(ctx: list[str], depth: int, quants: int) -> Formula:
        roll = rng.random()
        if depth <= 0 or roll < 0.2:
            return gen_atom(ctx)
        if roll < 0.62 and quants > 0:
            name = names[len(ctx) % len(names)] + str(len(ctx))
            cls = rng.choice((Forall, Exists))
            return cls(name, ZERO, gen(ctx + [name], depth - 1, quants - 1))
        cls = rng.choice((And, Or, Implies))
        return cls(gen(ctx, depth - 1, quants), gen(ctx, depth - 1, quants))

    corpus: list[Formula] = []
    seen: set[Formula] = set()
    while len(corpus) < count:
        cand = gen([], 3, 2)
        if cand in seen or free_formula_vars(cand):
            continue
        try:
            work = dialectica(cand).search_size(FiniteModel(3))
        except UnsupportedType:
            continue
        if work <= budget:
            corpus.append(cand)
            seen.add(cand)
    return corpus


# The formula text format: each head, the node it builds and the kinds of its arguments.
# A kind is ``f`` a formula, ``y`` a type, ``b`` a binder ``(name TYPE)`` whose name is
# bound in the last argument, or a term: of type ``0``, ``1`` (``0(0)``) or ``X``, or ``t``,
# of the type the row declares.  A row built by a node class, or by a partial fixing its
# first field, also prints the class and gives its fields' kinds; ``not`` prints from
# ``Implies`` and ``existsleq`` is parse-only.
SYNTAX = {
    "=": (Prime, "00"),
    "<=": (Leq0, "00"),
    "=R": (partial(RealCmp, "="), "11"),
    "<=R": (partial(RealCmp, "<="), "11"),
    "<R": (partial(RealCmp, "<"), "11"),
    "and": (And, "ff"),
    "or": (Or, "ff"),
    "->": (Implies, "ff"),
    "not": (neg, "f"),
    "forall": (Forall, "bf"),
    "exists": (Exists, "bf"),
    "existsleq": (exists_leq, "btf"),
    "eqat": (EqAt, "ytt"),
    "preceq": (Preceq, "ytt"),
    "member": (MemberA, "XX"),
}
_TERM_TYPES = {"0": ZERO, "1": TYPE_ONE, "X": X}


def format_type_sexpr(t: FinType) -> str:
    if isinstance(t, BaseType):
        return t.name
    return f"({format_type_sexpr(t.result)} {format_type_sexpr(t.argument)})"


def _read_type(node) -> FinType:
    if isinstance(node, list) and len(node) == 2:
        return Arrow(_read_type(node[0]), _read_type(node[1]))
    if node == "X":
        return X
    if isinstance(node, str) and node.isdigit():
        return pure_type(int(node))
    raise FormulaSyntaxError(f"bad type {node!r}")


def format_term(t: Term, scope: Mapping[str, FinType] = _UNDECLARED) -> str:
    """Text of ``t``; a variable ``scope`` does not declare at its type is ``(: name TYPE)``."""
    if isinstance(t, Var):
        if scope.get(t.name) == t.type:
            return t.name
        return f"(: {t.name} {format_type_sexpr(t.type)})"
    n = numeral_value(t)
    if n is not None:
        return str(n)
    if isinstance(t, Const):  # a named constant's text is its name
        return f"(rat {t.payload[0]})" if t.kind == "ratreal" else str(t)
    head, args = uncurry(t)
    return "(" + " ".join([format_term(head, scope)] + [format_term(a, scope) for a in args]) + ")"


def _read_term(node, ctx: Mapping[str, Var]) -> Term:
    if isinstance(node, str):
        if node.isdigit():
            return numeral(int(node))
        if node in ctx:
            return ctx[node]
        if node in NAMED_CONSTS:
            return NAMED_CONSTS[node]
        raise FormulaSyntaxError(f"unknown symbol {node!r}")
    if not node:
        raise FormulaSyntaxError("empty term")
    if node[0] == "rat":
        return rat_real(Fraction(node[1])) if len(node) == 2 else _refuse(node, 2)
    if node[0] == ":":
        if len(node) != 3 or not isinstance(node[1], str) or node[1].isdigit():
            _refuse(node, 3)
        return Var(node[1], _read_type(node[2]))
    return app(_read_term(node[0], ctx), *[_read_term(arg, ctx) for arg in node[1:]])


def format_formula(f: Formula, scope: Mapping[str, FinType] = _UNDECLARED) -> str:
    """Deterministic text, read back by :func:`parse_formula`; a variable declared at its
    type by neither ``scope`` nor a binder around it prints as ``(: name TYPE)``."""
    if type(f) is Prime and f == FALSE:
        return "false"
    if type(f) is Implies and f.right == FALSE:
        return f"(not {format_formula(f.left, scope)})"
    return _PRINTERS[f.op if type(f) is RealCmp else type(f)](f, scope)


def _read_formula(node, ctx: Mapping[str, Var]) -> Formula:
    if not isinstance(node, list) or not node:
        if node == "false":
            return FALSE
        raise FormulaSyntaxError(f"bad formula {node!r}")
    read = _READERS.get(node[0])
    if read is None:
        raise FormulaSyntaxError(f"unknown connective {node[0]!r}")
    return read(node, ctx)


def _parse(text: str, read):
    """Read ``text`` as one s-expression of nested token lists and build it with ``read``."""
    stack = [[]]
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok != ")":
            stack[-1].append(tok)
        elif len(stack) > 1:
            stack[-2].append(stack.pop())
        else:
            raise FormulaSyntaxError("unexpected ')'")
    if len(stack) > 1:
        raise FormulaSyntaxError("unbalanced parenthesis")
    if len(stack[0]) != 1:
        raise FormulaSyntaxError("trailing tokens" if stack[0] else "unexpected end of input")
    try:
        return read(stack[0][0], {})
    except FormulaSyntaxError:
        raise
    except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormulaSyntaxError(str(exc)) from exc


def parse_formula(text: str) -> Formula:
    """Parse the text of :func:`format_formula`: a bound variable takes its binder's type,
    a free one is written ``(: name TYPE)``."""
    return _parse(text, _read_formula)


def parse_term(text: str) -> Term:
    return _parse(text, _read_term)


# Each row compiles to a reader and, when a class builds it, a printer that call the reader
# or printer of each argument's kind (a term's unless listed here) directly: one table
# lookup per node, none per argument.
_READ = {"f": _read_formula, "y": lambda node, _ctx: _read_type(node)}
_SHOW = {"f": format_formula, "y": lambda t, _scope: format_type_sexpr(t)}


def _refuse(node, n: int):
    """Raise for a node that is not its head and ``n - 1`` arguments, or a bad name."""
    if len(node) != n:
        raise FormulaSyntaxError(f"{node[0]} has arity {n - 1}, not {len(node) - 1}")
    raise FormulaSyntaxError(f"{node[0]} wants a name and a type, got {node[1]!r}")


def _reader(build, kinds: str):
    n = len(kinds) + 1  # the head and one node per argument
    if kinds[0] == "b":  # (name TYPE), at most one argument in the enclosing scope, the body
        between = [_READ.get(kind, _read_term) for kind in kinds[1:-1]]

        def read(node, ctx):
            if len(node) != n or not isinstance(node[1], list) or len(node[1]) != 2:
                _refuse(node, n)
            name, tnode = node[1]
            if not isinstance(name, str) or name.isdigit():  # a digit string is a numeral
                _refuse(node, n)
            vtype = _read_type(tnode)
            args = [name, vtype] + [r(node[2], ctx) for r in between]
            return build(*args, _read_formula(node[n - 1], {**ctx, name: Var(name, vtype)}))

        return read
    a, b, c = [_READ.get(kind, _read_term) for kind in kinds] + [None] * (3 - len(kinds))
    if c:
        return lambda node, ctx: (build(a(node[1], ctx), b(node[2], ctx), c(node[3], ctx))
                                  if len(node) == n else _refuse(node, n))
    if b:
        return lambda node, ctx: (build(a(node[1], ctx), b(node[2], ctx))
                                  if len(node) == n else _refuse(node, n))
    return lambda node, ctx: build(a(node[1], ctx)) if len(node) == n else _refuse(node, n)


def _printer(head: str, kinds: str, names: Sequence[str]):
    x, y, *z = map(attrgetter, names)
    if kinds[0] == "b":  # (name TYPE) body

        def show(f, scope):
            name, vtype = x(f), y(f)
            inner = {**scope, name: vtype}
            return f"({head} ({name} {format_type_sexpr(vtype)}) {format_formula(z[0](f), inner)})"

        return show
    a, b, *c = [_SHOW.get(kind, format_term) for kind in kinds]
    if c:
        return lambda f, scope: f"({head} {a(x(f), scope)} {b(y(f), scope)} {c[0](z[0](f), scope)})"
    return lambda f, scope: f"({head} {a(x(f), scope)} {b(y(f), scope)})"


def _compile():
    """Readers by head, printers by node class (by operator for comparison atoms), and per
    class a getter of its fields, their kinds (``-`` a partial's fixed field, a binder its
    name ``b`` then its type ``y``), a getter of its terms and their positions."""
    readers, printers, shapes = {}, {}, {}
    for head, (build, kinds) in SYNTAX.items():
        readers[head] = _reader(build, kinds)
        fixed = build.args if isinstance(build, partial) else ()
        cls = build.func if fixed else build
        if isinstance(cls, type):
            names, field_kinds = cls.__match_args__, "-" * len(fixed) + kinds.replace("b", "by")
            printers[fixed[0] if fixed else cls] = _printer(head, kinds, names[len(fixed):])
            at = [i for i, kind in enumerate(field_kinds) if kind in _TERM_TYPES or kind == "t"]
            terms = attrgetter(*[names[i] for i in at]) if at else None
            shapes[cls] = (attrgetter(*names), field_kinds, terms, at)
    return readers, printers, shapes


_READERS, _PRINTERS, _SHAPES = _compile()
