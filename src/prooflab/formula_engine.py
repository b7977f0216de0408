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

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .finite_types import Arrow, BaseType, FinType, ZERO, X, arrow_chain, is_admissible
from .term_calculus import (
    App,
    CHI_A,
    Const,
    FiniteModel,
    NAMED_CONSTS,
    NEG_X,
    NORM_X,
    ONE_X,
    PLUS_X,
    RECIP_SUCC,
    REAL_PLUS,
    SCALE_X,
    SUCC,
    Term,
    UC_MODULUS,
    UnsupportedType,
    Var,
    ZERO_CONST,
    app,
    bracket_abstract_chain,
    enumerate_values,
    enumeration_size,
    evaluate,
    free_vars as term_free_vars,
    numeral,
    numeral_value,
    rat_real,
    substitute as term_substitute,
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


def is_atom(f: Formula) -> bool:
    return isinstance(f, ATOMS)


def is_quantifier_free(f: Formula) -> bool:
    if isinstance(f, ATOMS) or isinstance(f, DEFINED):
        return True
    if isinstance(f, (And, Or, Implies)):
        return is_quantifier_free(f.left) and is_quantifier_free(f.right)
    return False


def _atom_terms(f: Formula) -> list[Term]:
    if isinstance(f, (Prime, Leq0, RealCmp, EqAt, Preceq)):
        return [f.lhs, f.rhs]
    if isinstance(f, MemberA):
        return [f.element, f.point]
    raise TypeError(f"not an atom: {f}")


def _map_atom_terms(f: Formula, fn: Callable[[Term], Term]) -> Formula:
    if isinstance(f, Prime):
        return Prime(fn(f.lhs), fn(f.rhs))
    if isinstance(f, Leq0):
        return Leq0(fn(f.lhs), fn(f.rhs))
    if isinstance(f, RealCmp):
        return RealCmp(f.op, fn(f.lhs), fn(f.rhs))
    if isinstance(f, EqAt):
        return EqAt(f.vtype, fn(f.lhs), fn(f.rhs))
    if isinstance(f, Preceq):
        return Preceq(f.vtype, fn(f.lhs), fn(f.rhs))
    if isinstance(f, MemberA):
        return MemberA(fn(f.element), fn(f.point))
    raise TypeError(f"not an atom: {f}")


def all_names(f: Formula) -> set[str]:
    """Every variable name occurring in ``f``, free or bound."""
    out: set[str] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, (And, Or, Implies)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Forall, Exists)):
            out.add(g.var)
            walk(g.body)
        else:
            for t in _atom_terms(g):
                out.update(term_free_vars(t))

    walk(f)
    return out


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
        if isinstance(g, EqAt):
            t = g.vtype
            if t == ZERO:
                return Prime(g.lhs, g.rhs)
            if t == X:
                return RealCmp("=", App(NORM_X, _minus_x(g.lhs, g.rhs)), rat_real(0))
            assert isinstance(t, Arrow)
            v = Var(gen.fresh("e"), t.argument)
            return Forall(v.name, t.argument, walk(EqAt(t.result, App(g.lhs, v), App(g.rhs, v))))
        if isinstance(g, Preceq):
            t = g.vtype
            if t == ZERO:
                return Leq0(g.lhs, g.rhs)
            if t == X:
                return RealCmp("<=", App(NORM_X, g.lhs), App(NORM_X, g.rhs))
            assert isinstance(t, Arrow)
            v = Var(gen.fresh("p"), t.argument)
            return Forall(v.name, t.argument, walk(Preceq(t.result, App(g.lhs, v), App(g.rhs, v))))
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
        a_ex_terms = [Var(n, t) for n, t in a.ex_vars]
        a_ex_types = [t for _, t in a.ex_vars]
        b_univ_terms = [Var(n, t) for n, t in b.univ_vars]
        b_univ_types = [t for _, t in b.univ_vars]
        wit_sub: dict[str, Term] = {}
        witnesses: list[tuple[str, FinType]] = []
        for name, t in b.ex_vars:
            w = gen.fresh("W")
            wt = arrow_chain(a_ex_types, t)
            witnesses.append((w, wt))
            wit_sub[name] = app(Var(w, wt), *a_ex_terms)
        counter_sub: dict[str, Term] = {}
        for name, t in a.univ_vars:
            y = gen.fresh("Y")
            yt = arrow_chain(a_ex_types + b_univ_types, t)
            witnesses.append((y, yt))
            counter_sub[name] = app(Var(y, yt), *a_ex_terms, *b_univ_terms)
        matrix = Implies(_subst_terms(a.matrix, counter_sub), _subst_terms(b.matrix, wit_sub))
        return DialecticaForm(tuple(witnesses), a.ex_vars + b.univ_vars, matrix)
    if isinstance(f, Exists):
        d = _dialectica(f.body, gen)
        return DialecticaForm(((f.var, f.vtype),) + d.ex_vars, d.univ_vars, d.matrix)
    if isinstance(f, Forall):
        d = _dialectica(f.body, gen)
        sub: dict[str, Term] = {}
        witnesses: list[tuple[str, FinType]] = []
        for name, t in d.ex_vars:
            w = gen.fresh("F")
            wt = arrow_chain([f.vtype], t)
            witnesses.append((w, wt))
            sub[name] = App(Var(w, wt), Var(f.var, f.vtype))
        matrix = _subst_terms(d.matrix, sub)
        return DialecticaForm(tuple(witnesses), ((f.var, f.vtype),) + d.univ_vars, matrix)
    raise TypeError(f"unknown formula node {f}")


def classify_quantifier_class(f: Formula) -> str:
    """``forall_formula`` / ``exists_formula`` for one admissible quantifier
    block over a quantifier-free matrix, else ``neither``.

    A quantifier-free input counts as a (degenerate) ``forall_formula``.
    """
    g = f
    forall_ok = True
    while isinstance(g, Forall):
        forall_ok = forall_ok and is_admissible(g.vtype)
        g = g.body
    if is_quantifier_free(g) and forall_ok:
        return "forall_formula"
    g = f
    exists_ok = True
    while isinstance(g, Exists):
        exists_ok = exists_ok and is_admissible(g.vtype)
        g = g.body
    if is_quantifier_free(g) and exists_ok:
        return "exists_formula"
    return "neither"


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
    g = f
    a_vars: list[tuple[str, FinType]] = []
    while isinstance(g, Forall):
        if not is_admissible(g.vtype):
            return None
        a_vars.append((g.var, g.vtype))
        g = g.body
    a_names = {n for n, _ in a_vars}
    b_vars: list[tuple[str, FinType, Term]] = []
    while isinstance(g, Exists):
        body = g.body
        if not isinstance(body, And):
            return None
        head = body.left
        if not isinstance(head, Preceq) or head.lhs != Var(g.var, g.vtype):
            return None
        if head.vtype != g.vtype or not is_admissible(g.vtype):
            return None
        if not set(term_free_vars(head.rhs)) <= a_names:
            return None
        b_vars.append((g.var, g.vtype, head.rhs))
        g = body.right
    if not b_vars:
        return None
    c_vars: list[tuple[str, FinType]] = []
    while isinstance(g, Forall):
        if not is_admissible(g.vtype):
            return None
        c_vars.append((g.var, g.vtype))
        g = g.body
    if not is_quantifier_free(g):
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
    for name, t in reversed(d.c_vars):
        body = Forall(name, t, body)
    for name, t in reversed(d.a_vars):
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
    """Classical truth in the finite model by exhaustive quantification."""
    env = dict(env or {})

    def ev(g: Formula, env: dict) -> bool:
        if isinstance(g, DEFINED):
            g = expand_defined(g)
        if isinstance(g, Prime):
            return evaluate(g.lhs, model, env) == evaluate(g.rhs, model, env)
        if isinstance(g, Leq0):
            return evaluate(g.lhs, model, env) <= evaluate(g.rhs, model, env)
        if isinstance(g, RealCmp):
            raise UnsupportedType("real comparison atoms have no finite-model value")
        if isinstance(g, And):
            return ev(g.left, env) and ev(g.right, env)
        if isinstance(g, Or):
            return ev(g.left, env) or ev(g.right, env)
        if isinstance(g, Implies):
            return (not ev(g.left, env)) or ev(g.right, env)
        if isinstance(g, (Forall, Exists)):
            try:
                values = enumerate_values(g.vtype, model, budget)
            except UnsupportedType as exc:
                raise EnumerationBudgetExceeded(str(exc)) from exc
            results = (ev(g.body, {**env, g.var: v}) for v in values)
            return all(results) if isinstance(g, Forall) else any(results)
        raise TypeError(f"unknown formula node {g}")

    return ev(f, env)


def eval_dialectica(
    d: DialecticaForm,
    model: FiniteModel,
    env: Mapping[str, object] | None = None,
    budget: int = 2_000_000,
) -> bool:
    """Brute-force the exists/forall normal form: search witness tuples,
    check the matrix against every counterexample tuple."""
    import itertools

    env = dict(env or {})
    work = 1
    for _, t in d.ex_vars + d.univ_vars:
        try:
            work *= enumeration_size(t, model)
        except UnsupportedType as exc:
            raise EnumerationBudgetExceeded(str(exc)) from exc
        if work > budget:
            raise EnumerationBudgetExceeded(
                f"witness search space exceeds budget {budget}"
            )
    try:
        ex_domains = [enumerate_values(t, model, budget) for _, t in d.ex_vars]
        univ_domains = [enumerate_values(t, model, budget) for _, t in d.univ_vars]
    except UnsupportedType as exc:
        raise EnumerationBudgetExceeded(str(exc)) from exc
    ex_names = [n for n, _ in d.ex_vars]
    univ_names = [n for n, _ in d.univ_vars]
    for ex_combo in itertools.product(*ex_domains):
        scope = {**env, **dict(zip(ex_names, ex_combo))}
        if all(
            eval_formula(d.matrix, model, {**scope, **dict(zip(univ_names, univ_combo))}, budget)
            for univ_combo in itertools.product(*univ_domains)
        ):
            return True
    return False


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
    d = dialectica(f)
    if model is None:
        last: Exception | None = None
        for size in (3, 2, 1):
            try:
                return check_interpretation_soundness(f, FiniteModel(size), budget)
            except EnumerationBudgetExceeded as exc:
                last = exc
        raise EnumerationBudgetExceeded(str(last))
    direct = eval_formula(f, model, budget=budget)
    nt = eval_formula(negative_translation(f), model, budget=budget)
    dia = eval_dialectica(d, model, budget=budget)
    return SoundnessReport(model.size, direct, nt, dia)


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
        d = dialectica(cand)
        model = FiniteModel(3)
        try:
            work = 1
            for _, t in d.ex_vars + d.univ_vars:
                work *= enumeration_size(t, model)
            if work <= budget:
                corpus.append(cand)
                seen.add(cand)
        except UnsupportedType:
            pass
    return corpus


_CONST_NAMES = {c: name for name, c in NAMED_CONSTS.items()}

_CMP_TAGS = {"=": "=R", "<=": "<=R", "<": "<R"}
_TAG_CMPS = {v: k for k, v in _CMP_TAGS.items()}


def format_type_sexpr(t: FinType) -> str:
    if isinstance(t, BaseType):
        return t.name
    assert isinstance(t, Arrow)
    return f"({format_type_sexpr(t.result)} {format_type_sexpr(t.argument)})"


def format_term(t: Term) -> str:
    n = numeral_value(t)
    if n is not None:
        return str(n)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        if t in _CONST_NAMES:
            return _CONST_NAMES[t]
        if t.kind == "ratreal":
            return f"(rat {t.payload[0]})"
        if t.kind == "defined":
            return str(t.payload[0])
        return t.kind
    head, args = _spine(t)
    return "(" + " ".join([format_term(head)] + [format_term(a) for a in args]) + ")"


def _spine(t: Term) -> tuple[Term, list[Term]]:
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


def format_formula(f: Formula) -> str:
    """Deterministic textual form; inverse of :func:`parse_formula` on the
    constant and variable subset of the language."""
    if f == FALSE:
        return "false"
    if isinstance(f, Prime):
        return f"(= {format_term(f.lhs)} {format_term(f.rhs)})"
    if isinstance(f, Leq0):
        return f"(<= {format_term(f.lhs)} {format_term(f.rhs)})"
    if isinstance(f, RealCmp):
        return f"({_CMP_TAGS[f.op]} {format_term(f.lhs)} {format_term(f.rhs)})"
    if isinstance(f, And):
        return f"(and {format_formula(f.left)} {format_formula(f.right)})"
    if isinstance(f, Or):
        return f"(or {format_formula(f.left)} {format_formula(f.right)})"
    if isinstance(f, Implies):
        if f.right == FALSE:
            return f"(not {format_formula(f.left)})"
        return f"(-> {format_formula(f.left)} {format_formula(f.right)})"
    if isinstance(f, Forall):
        return f"(forall ({f.var} {format_type_sexpr(f.vtype)}) {format_formula(f.body)})"
    if isinstance(f, Exists):
        return f"(exists ({f.var} {format_type_sexpr(f.vtype)}) {format_formula(f.body)})"
    if isinstance(f, EqAt):
        return f"(eqat {format_type_sexpr(f.vtype)} {format_term(f.lhs)} {format_term(f.rhs)})"
    if isinstance(f, Preceq):
        return f"(preceq {format_type_sexpr(f.vtype)} {format_term(f.lhs)} {format_term(f.rhs)})"
    if isinstance(f, MemberA):
        return f"(member {format_term(f.element)} {format_term(f.point)})"
    raise TypeError(f"unknown formula node {f}")


class FormulaSyntaxError(ValueError):
    pass


def _sexpr_tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read_sexpr(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise FormulaSyntaxError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        out = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            node, pos = _read_sexpr(tokens, pos)
            out.append(node)
        if pos >= len(tokens):
            raise FormulaSyntaxError("unbalanced parenthesis")
        return out, pos + 1
    if tok == ")":
        raise FormulaSyntaxError("unexpected ')'")
    return tok, pos + 1


def _parse_type_node(node) -> FinType:
    if node == "0":
        return ZERO
    if node == "X":
        return X
    if isinstance(node, str) and node.isdigit():
        from .finite_types import pure_type

        return pure_type(int(node))
    if isinstance(node, list) and len(node) == 2:
        return Arrow(_parse_type_node(node[0]), _parse_type_node(node[1]))
    raise FormulaSyntaxError(f"bad type {node!r}")


def _parse_term_node(node, ctx: dict[str, FinType]) -> Term:
    if isinstance(node, str):
        if node.isdigit():
            return numeral(int(node))
        if node in ctx:
            return Var(node, ctx[node])
        if node in NAMED_CONSTS:
            return NAMED_CONSTS[node]
        raise FormulaSyntaxError(f"unknown symbol {node!r}")
    if not node:
        raise FormulaSyntaxError("empty term")
    if node[0] == "rat":
        return rat_real(Fraction(node[1]))
    if node[0] == ":":
        return Var(node[1], _parse_type_node(node[2]))
    t = _parse_term_node(node[0], ctx)
    for arg in node[1:]:
        t = App(t, _parse_term_node(arg, ctx))
    return t


def _parse_formula_node(node, ctx: dict[str, FinType]) -> Formula:
    if node == "false":
        return FALSE
    if not isinstance(node, list) or not node:
        raise FormulaSyntaxError(f"bad formula {node!r}")
    head = node[0]
    if head == "=":
        return Prime(_parse_term_node(node[1], ctx), _parse_term_node(node[2], ctx))
    if head == "<=":
        return Leq0(_parse_term_node(node[1], ctx), _parse_term_node(node[2], ctx))
    if head in _TAG_CMPS:
        return RealCmp(
            _TAG_CMPS[head], _parse_term_node(node[1], ctx), _parse_term_node(node[2], ctx)
        )
    if head in ("and", "or", "->"):
        cls = {"and": And, "or": Or, "->": Implies}[head]
        return cls(_parse_formula_node(node[1], ctx), _parse_formula_node(node[2], ctx))
    if head == "not":
        return neg(_parse_formula_node(node[1], ctx))
    if head in ("forall", "exists"):
        name, tnode = node[1]
        vtype = _parse_type_node(tnode)
        cls = Forall if head == "forall" else Exists
        return cls(name, vtype, _parse_formula_node(node[2], {**ctx, name: vtype}))
    if head == "existsleq":
        name, tnode = node[1]
        vtype = _parse_type_node(tnode)
        inner_ctx = {**ctx, name: vtype}
        bound = _parse_term_node(node[2], ctx)
        return exists_leq(name, vtype, bound, _parse_formula_node(node[3], inner_ctx))
    if head == "eqat":
        vtype = _parse_type_node(node[1])
        return EqAt(vtype, _parse_term_node(node[2], ctx), _parse_term_node(node[3], ctx))
    if head == "preceq":
        vtype = _parse_type_node(node[1])
        return Preceq(vtype, _parse_term_node(node[2], ctx), _parse_term_node(node[3], ctx))
    if head == "member":
        return MemberA(_parse_term_node(node[1], ctx), _parse_term_node(node[2], ctx))
    raise FormulaSyntaxError(f"unknown connective {head!r}")


def parse_formula(text: str) -> Formula:
    """Parse the textual form produced by :func:`format_formula`.

    Bound variables take their type from the binder; free variables use the
    escape ``(: name TYPE)``.
    """
    tokens = _sexpr_tokens(text)
    node, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise FormulaSyntaxError("trailing tokens")
    try:
        return _parse_formula_node(node, {})
    except FormulaSyntaxError:
        raise
    except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormulaSyntaxError(str(exc)) from exc


def parse_term(text: str) -> Term:
    tokens = _sexpr_tokens(text)
    node, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise FormulaSyntaxError("trailing tokens")
    try:
        return _parse_term_node(node, {})
    except FormulaSyntaxError:
        raise
    except (IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormulaSyntaxError(str(exc)) from exc
