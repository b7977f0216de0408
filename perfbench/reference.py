"""Reference answers that do not come from the program under test.

Everything here is written from the definitions (the combinator rules, the
finite-model semantics, the Dialectica clauses, closed-form resolvents and
the catalog's theorems), so a wrong answer from prooflab cannot also make
the reference wrong.  Program objects are only read (term nodes, constant
kinds), never asked for a verdict.
"""

from __future__ import annotations

import math
from fractions import Fraction

# ------------------------------------------------------------------ terms
#
# Combinator terms are read through their public node shape: ``App(fun, arg)``
# and ``Const(kind, type, payload)``; types through ``Arrow(result, argument)``
# and ``BaseType(name)``.


def combinator_type(t):
    """Type of a closed combinator term, by the application rule only."""
    if hasattr(t, "fun"):
        fun_t = combinator_type(t.fun)
        arg_t = combinator_type(t.arg)
        if not hasattr(fun_t, "argument") or fun_t.argument != arg_t:
            raise TypeError(f"ill-typed application of {fun_t} to {arg_t}")
        return fun_t.result
    return t.type


def _rec(y):
    def with_step(z):
        def at(n):
            acc = y
            for i in range(n):
                acc = z(acc)(i)
            return acc

        return at

    return with_step


_SEMANTICS = {
    "zero": 0,
    "succ": lambda n: n + 1,
    "proj": lambda kept: lambda _dropped: kept,
    "sigma": lambda x: lambda y: lambda z: x(z)(y(z)),
    "rec": _rec,
}


def denote(t):
    """Value of a closed term built from zero, succ, proj, sigma and rec,
    over the unbounded naturals."""
    if hasattr(t, "fun"):
        return denote(t.fun)(denote(t.arg))
    return _SEMANTICS[t.kind]


def numeral_of(t) -> int | None:
    """The natural a ``succ``-chain over ``zero`` spells, else ``None``."""
    n = 0
    while hasattr(t, "fun"):
        if getattr(t.fun, "kind", None) != "succ":
            return None
        n += 1
        t = t.arg
    return n if getattr(t, "kind", None) == "zero" else None


def term_size(t) -> int:
    n, stack = 0, [t]
    while stack:
        s = stack.pop()
        n += 1
        if hasattr(s, "fun"):
            stack.append(s.fun)
            stack.append(s.arg)
    return n


# --------------------------------------------------------------- formulas
#
# Generated formulas are tuples: ("=", s, t), ("<=", s, t), ("and", A, B),
# ("or", A, B), ("->", A, B), ("forall", v, A), ("exists", v, A), with terms
# ("num", k), ("var", name) or ("succ", term); formulas read back from the
# program's output may also hold ("not", A).  Every quantifier ranges over
# type 0.

FALSE = ("=", ("num", 0), ("num", 1))


def term_text(t) -> str:
    """Textual term in the s-expression syntax; numerals print as digits."""
    depth = 0
    while t[0] == "succ":
        depth += 1
        t = t[1]
    if t[0] == "num":
        return str(t[1] + depth)
    text = t[1]
    for _ in range(depth):
        text = f"(succ {text})"
    return text


def formula_text(f) -> str:
    """The canonical s-expression a generated formula should print as."""
    head = f[0]
    if head in ("=", "<="):
        text = f"({head} {term_text(f[1])} {term_text(f[2])})"
        return "false" if text == "(= 0 1)" else text
    if head in ("and", "or"):
        return f"({head} {formula_text(f[1])} {formula_text(f[2])})"
    if head == "->":
        right = formula_text(f[2])
        if right == "false":
            return f"(not {formula_text(f[1])})"
        return f"(-> {formula_text(f[1])} {right})"
    return f"({head} ({f[1]} 0) {formula_text(f[2])})"


def _tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def read_sexpr(text: str):
    """Nested lists of atoms; iterative, so deep inputs are fine."""
    stack: list[list] = [[]]
    for tok in _tokens(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError("unbalanced s-expression")
    return stack[0][0]


def _term_from_node(node):
    if isinstance(node, str):
        return ("num", int(node)) if node.isdigit() else ("var", node)
    if len(node) == 2 and node[0] == "succ":
        return ("succ", _term_from_node(node[1]))
    raise ValueError(f"unexpected term {node!r}")


def formula_from_text(text: str):
    """Parse first-order formulas over type 0 (the output of ``translate``)."""
    return _formula_from_node(read_sexpr(text))


def _formula_from_node(node):
    if node == "false":
        return FALSE
    head = node[0]
    if head in ("=", "<="):
        return (head, _term_from_node(node[1]), _term_from_node(node[2]))
    if head in ("and", "or", "->"):
        return (head, _formula_from_node(node[1]), _formula_from_node(node[2]))
    if head == "not":
        return ("not", _formula_from_node(node[1]))
    if head in ("forall", "exists"):
        name, vtype = node[1]
        if vtype != "0":
            raise ValueError(f"quantifier over {vtype!r}")
        return (head, name, _formula_from_node(node[2]))
    raise ValueError(f"unexpected connective {head!r}")


def is_quantifier_free_text(node) -> bool:
    """No quantifier anywhere in a read s-expression."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, list):
            if n and n[0] in ("forall", "exists", "existsleq"):
                return False
            stack.extend(n)
    return True


def _term_value(t, env: dict, top: int) -> int:
    if t[0] == "num":
        return min(t[1], top)
    if t[0] == "var":
        return env[t[1]]
    return min(_term_value(t[1], env, top) + 1, top)


def truth(f, top: int, env: dict | None = None) -> bool:
    """Classical truth with type 0 read as ``{0..top}`` and a successor
    that stops at ``top``."""
    env = env or {}
    head = f[0]
    if head == "=":
        return _term_value(f[1], env, top) == _term_value(f[2], env, top)
    if head == "<=":
        return _term_value(f[1], env, top) <= _term_value(f[2], env, top)
    if head == "and":
        return truth(f[1], top, env) and truth(f[2], top, env)
    if head == "or":
        return truth(f[1], top, env) or truth(f[2], top, env)
    if head == "->":
        return (not truth(f[1], top, env)) or truth(f[2], top, env)
    if head == "not":
        return not truth(f[1], top, env)
    results = (truth(f[2], top, {**env, f[1]: v}) for v in range(top + 1))
    return all(results) if head == "forall" else any(results)


def _chain(args, result):
    for a in reversed(args):
        result = (a, result)
    return result


def witness_types(f):
    """Types of the Dialectica witnesses and counterexamples of ``f``.

    Types are ``"0"`` or ``(argument, result)``.  The clauses are the
    textbook ones; disjunction adds a type-0 case flag.
    """
    head = f[0]
    if head in ("=", "<="):
        return [], []
    if head in ("and", "or", "->"):
        ea, ua = witness_types(f[1])
        eb, ub = witness_types(f[2])
        if head == "and":
            return ea + eb, ua + ub
        if head == "or":
            return ["0"] + ea + eb, ua + ub
        ex = [_chain(ea, t) for t in eb] + [_chain(ea + ub, t) for t in ua]
        return ex, ea + ub
    e, u = witness_types(f[2])
    if head == "exists":
        return ["0"] + e, u
    return [("0", t) for t in e], ["0"] + u


def type_text(t) -> str:
    """Printed form of a witness type: ``result(argument)``."""
    if t == "0":
        return "0"
    return f"{type_text(t[1])}({type_text(t[0])})"


def enumeration_count(t, carrier: int) -> int | None:
    """How many values a type has over a carrier of ``carrier`` naturals, or
    ``None`` when its argument is not a base type."""
    if t == "0":
        return carrier
    if t[0] != "0":
        return None
    inner = enumeration_count(t[1], carrier)
    return None if inner is None else inner**carrier


def witness_space(f, carrier: int) -> int | None:
    """Size of the exists/forall search, ``None`` when it cannot be enumerated."""
    ex, univ = witness_types(f)
    work = 1
    for t in ex + univ:
        n = enumeration_count(t, carrier)
        if n is None:
            return None
        work *= n
    return work


# ------------------------------------------------------------------ types
#
# Type syntax trees: "0", "X", ("pure", k) or ("arrow", result, argument).


def fin_type_text(t) -> str:
    if t in ("0", "X"):
        return t
    if t[0] == "pure":
        return str(t[1])
    return f"{fin_type_text(t[1])}({fin_type_text(t[2])})"


def _expand(t):
    if t in ("0", "X"):
        return t
    if t[0] == "pure":
        out = "0"
        for _ in range(t[1]):
            out = ("arrow", "0", out)
        return out
    return ("arrow", _expand(t[1]), _expand(t[2]))


def _has_x(t) -> bool:
    if t in ("0", "X"):
        return t == "X"
    return _has_x(t[1]) or _has_x(t[2])


def _degree(t) -> int:
    if t in ("0", "X"):
        return 0
    return max(_degree(t[1]), _degree(t[2]) + 1)


def _small(t) -> bool:
    while t not in ("0", "X"):
        if t[2] != "0":
            return False
        t = t[1]
    return True


def _admissible(t) -> bool:
    while t not in ("0", "X"):
        if not _small(t[2]):
            return False
        t = t[1]
    return True


def type_facts(t) -> dict:
    """Degree (``None`` when ``X`` occurs), smallness and admissibility."""
    e = _expand(t)
    return {
        "degree": None if _has_x(e) else _degree(e),
        "small": _small(e),
        "admissible": _admissible(e),
    }


# ------------------------------------------------------------- real codes


def unpair(code: int) -> tuple[int, int]:
    s = (math.isqrt(8 * code + 1) - 1) // 2
    n = code - s * (s + 1) // 2
    return n, s - n


def decode_rational(code: int) -> Fraction:
    """``j(a, b)`` codes ``(a/2)/(b+1)`` for even ``a``, its negative
    ``((a+1)/2)/(b+1)`` for odd ``a``."""
    a, b = unpair(code)
    if a % 2 == 0:
        return Fraction(a // 2, b + 1)
    return Fraction(-((a + 1) // 2), b + 1)


def canonical_row_ok(r: Fraction, n: int, code: int, decoded: str) -> bool:
    """Row ``n`` of the canonical code holds the largest ``k / 2**(n+1)``
    not above ``r``."""
    q = decode_rational(code)
    scale = 2 ** (n + 1)
    return (
        str(q) == decoded
        and (q * scale).denominator == 1
        and q <= r < q + Fraction(1, scale)
    )


# --------------------------------------------------------------- operators

# Every catalog instance is monotone, except neg_half which is comonotone of
# degree -2 and has only the conical/averaged part of the resolvent suite.
RESOLVENT_CHECKS = (
    "defining_inclusion_unique",
    "firmly_nonexpansive_norm_form",
    "firmly_nonexpansive_inner_form",
    "nonexpansive",
    "averaged_form",
    "conical_form",
    "resolvent_identity",
    "displacement_bound",
    "yosida_membership",
    "yosida_lipschitz",
    "yosida_norm_minimality",
)
COMONOTONE_RESOLVENT_CHECKS = (
    "defining_inclusion_unique",
    "averaged_form",
    "conical_form",
    "resolvent_identity",
    "yosida_membership",
)
MIN_SELECTION_CHECKS = ("min_selection_membership", "min_selection_variational",
                        "min_selection_uniqueness")


def expected_checks(instance: str) -> set[str]:
    """Check names a full ``oplab verify`` report must carry."""
    if instance == "neg_half":
        cls, resolvent = "comonotone(rho=-2.0)", COMONOTONE_RESOLVENT_CHECKS
    else:
        cls, resolvent = "monotone", RESOLVENT_CHECKS
    return (
        {f"class.{cls}", "closedness.graph_closedness"}
        | {f"resolvent.{n}" for n in resolvent}
        | {f"min_selection.{n}" for n in MIN_SELECTION_CHECKS}
    )


# Lower bounds on sup{|u| : u a value at x, |x| <= n}; a uniform majorant
# must dominate them.  Box and tan have values of unbounded norm.
MAJORANT_FLOOR = {
    "identity": lambda n: n,
    "soft_threshold": lambda n: 1,
    "neg_half": lambda n: n / 2,
    "psd_skew": lambda n: 0,
}
UNBOUNDED = ("box", "tan_subgradient")


def gamma_at(schedule: str, n: int) -> float:
    """Step ``n`` of a ``const:c``, ``harmonic:c`` or ``geom:c,q`` schedule."""
    kind, _, args = schedule.partition(":")
    parts = [float(p) for p in args.split(",")]
    if kind == "const":
        return parts[0]
    if kind == "harmonic":
        return parts[0] / (n + 1)
    return parts[0] * parts[1] ** n


def closed_form_resolvent(instance: str, gamma: float, x: list[float]) -> list[float]:
    """``(I + gamma A)^-1 x`` for the catalog instances with a formula."""
    if instance == "identity":
        return [v / (1 + gamma) for v in x]
    if instance == "soft_threshold":
        return [math.copysign(max(abs(v) - gamma, 0.0), v) if v else 0.0 for v in x]
    if instance == "box":
        return [min(max(v, -1.0), 1.0) for v in x]
    if instance == "neg_half":
        return [v / (1 - gamma / 2) for v in x]
    raise KeyError(instance)


def at_zero(instance: str, x: list[float], tol: float = 1e-9) -> bool:
    """The minimal-norm value at ``x`` is (numerically) zero."""
    if instance == "identity":
        return math.hypot(*x) <= tol
    if instance == "neg_half":
        return math.hypot(*x) / 2 <= tol
    if instance == "soft_threshold":
        return x[0] == 0.0
    if instance == "box":
        return all(-1.0 <= v <= 1.0 for v in x)
    raise KeyError(instance)


def close(a: list[float], b: list[float], rel: float = 1e-12) -> bool:
    return len(a) == len(b) and all(
        abs(p - q) <= rel * max(1.0, abs(p), abs(q)) for p, q in zip(a, b)
    )
