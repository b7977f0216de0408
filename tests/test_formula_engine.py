import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prooflab.finite_types import Arrow, X, ZERO, parse_type
from prooflab.formula_engine import (
    And,
    EnumerationBudgetExceeded,
    EqAt,
    Exists,
    FALSE,
    Forall,
    FormulaSyntaxError,
    Implies,
    Leq0,
    MemberA,
    NotDeltaShape,
    Or,
    Preceq,
    Prime,
    RealCmp,
    all_names,
    check_interpretation_soundness,
    classify_quantifier_class,
    delta_recognize,
    dialectica,
    eval_dialectica,
    eval_formula,
    exists_leq,
    expand_defined,
    format_formula,
    free_formula_vars,
    generate_corpus,
    is_quantifier_free,
    neg,
    negative_translation,
    parse_formula,
    parse_term,
    skolemize_delta,
    typecheck_formula,
    uc_star_formula,
)
from prooflab.term_calculus import (
    App,
    FiniteModel,
    IllTypedApplication,
    NAMED_CONSTS,
    SUCC,
    UnsupportedType,
    Var,
    ZERO_CONST,
    const_value,
    defined_const,
    enumeration_size,
    evaluate,
    numeral,
    rat_real,
)
from table_reference import reference_values

TYPE_ONE = parse_type("0(0)")


def v0(n):
    return Var(n, ZERO)


def leq(a, b):
    return Leq0(a, b)


def test_expand_preceq_base():
    f = expand_defined(Preceq(ZERO, v0("x"), v0("y")))
    assert f == Leq0(v0("x"), v0("y"))


def test_expand_preceq_x_compares_norms():
    f = expand_defined(Preceq(X, Var("p", X), Var("q", X)))
    assert isinstance(f, RealCmp) and f.op == "<="


def test_expand_preceq_arrow_descends():
    f = expand_defined(Preceq(TYPE_ONE, Var("f", TYPE_ONE), Var("g", TYPE_ONE)))
    assert isinstance(f, Forall) and f.vtype is ZERO
    body = f.body
    assert body == Leq0(App(Var("f", TYPE_ONE), v0(f.var)), App(Var("g", TYPE_ONE), v0(f.var)))


def test_expand_eqat_and_membership():
    f = expand_defined(EqAt(ZERO, v0("x"), v0("y")))
    assert f == Prime(v0("x"), v0("y"))
    g = expand_defined(EqAt(X, Var("p", X), Var("q", X)))
    assert isinstance(g, RealCmp) and g.op == "="
    m = expand_defined(MemberA(Var("u", X), Var("p", X)))
    assert isinstance(m, Prime) and m.rhs == ZERO_CONST


def test_negative_translation_clauses():
    p = Prime(v0("x"), v0("x"))
    assert negative_translation(p) == neg(neg(p))
    fa = Forall("x", ZERO, p)
    assert negative_translation(fa) == neg(neg(Forall("x", ZERO, neg(neg(p)))))
    ex = Exists("x", ZERO, p)
    assert negative_translation(ex) == neg(neg(ex))


def test_negative_translation_rejects_sugar():
    with pytest.raises(ValueError):
        negative_translation(Preceq(ZERO, v0("x"), v0("y")))


def test_dialectica_prime_and_qf():
    p = Prime(numeral(1), numeral(1))
    d = dialectica(p)
    assert d.ex_vars == () and d.univ_vars == () and d.matrix == p
    conj = And(p, Implies(p, Leq0(numeral(0), numeral(2))))
    d = dialectica(conj)
    assert d.ex_vars == () and d.univ_vars == () and d.matrix == conj


def test_dialectica_forall_exists():
    f = Forall("x", ZERO, Exists("y", ZERO, Prime(v0("y"), App(SUCC, v0("x")))))
    d = dialectica(f)
    assert [t for _, t in d.ex_vars] == [TYPE_ONE]
    assert [(n, t) for n, t in d.univ_vars] == [("x", ZERO)]
    (fname, _), = d.ex_vars
    assert d.matrix == Prime(App(Var(fname, TYPE_ONE), v0("x")), App(SUCC, v0("x")))


def test_dialectica_or_flag():
    p = Prime(numeral(0), numeral(0))
    q = Leq0(numeral(1), numeral(0))
    d = dialectica(Or(p, q))
    assert len(d.ex_vars) == 1
    (zname, ztype), = d.ex_vars
    assert ztype is ZERO and d.univ_vars == ()
    assert isinstance(d.matrix, And)


def test_dialectica_implication_types():
    # forall x exists u P -> exists v Q gives U: v-type over x,u-skolem types
    f = Implies(
        Forall("x", ZERO, Exists("u", ZERO, Prime(v0("u"), v0("x")))),
        Exists("v", ZERO, Leq0(v0("v"), numeral(2))),
    )
    d = dialectica(f)
    ex_types = sorted(str(t) for _, t in d.ex_vars)
    assert ex_types == ["0(0(0))", "0(0(0))"]
    assert [str(t) for _, t in d.univ_vars] == ["0(0)"]


def test_freshness_no_capture():
    f = Forall("x", ZERO, Exists("y", ZERO, Prime(v0("y"), v0("x"))))
    d = dialectica(f)
    for name, _ in d.ex_vars:
        assert name not in all_names(f)
    nt = negative_translation(f)
    assert free_formula_vars(nt) == {}


def test_classify():
    qf = Leq0(numeral(0), numeral(1))
    assert classify_quantifier_class(Forall("x", ZERO, qf)) == "forall_formula"
    assert classify_quantifier_class(Exists("v", ZERO, qf)) == "exists_formula"
    alt = Forall("x", ZERO, Exists("y", ZERO, qf))
    assert classify_quantifier_class(alt) == "neither"
    assert classify_quantifier_class(qf) == "forall_formula"
    bad_type = Forall("f", parse_type("0(X(X))"), qf)
    assert classify_quantifier_class(bad_type) == "neither"


def delta_example():
    return Forall(
        "a", ZERO, exists_leq("b", ZERO, v0("a"), Forall("c", ZERO, leq(v0("b"), v0("a"))))
    )


def test_delta_recognize_and_skolemize():
    d = delta_recognize(delta_example())
    assert d is not None
    assert [n for n, _ in d.a_vars] == ["a"]
    assert [n for n, _, _ in d.b_vars] == ["b"]
    assert [n for n, _ in d.c_vars] == ["c"]
    sk = skolemize_delta(d)
    assert isinstance(sk, Exists) and sk.vtype == TYPE_ONE
    model = FiniteModel(3)
    assert eval_formula(delta_example(), model) == eval_formula(sk, model)


def test_delta_rejects_unbounded():
    f = Forall("a", ZERO, Exists("b", ZERO, leq(v0("b"), v0("a"))))
    assert delta_recognize(f) is None
    with pytest.raises(NotDeltaShape):
        skolemize_delta(None)


def test_delta_rejects_second_bounded_block():
    f = Forall(
        "a", ZERO,
        exists_leq("b", ZERO, v0("a"), Forall("c", ZERO,
            exists_leq("d", ZERO, v0("c"), leq(v0("d"), v0("a"))))),
    )
    assert delta_recognize(f) is None


def test_uc_star_is_delta():
    d = delta_recognize(uc_star_formula())
    assert d is not None
    assert len(d.b_vars) == 1


def test_skolemize_matches_direct_on_models():
    shapes = [
        delta_example(),
        Forall("a", ZERO, exists_leq("b", ZERO, App(SUCC, v0("a")),
                                     Forall("c", ZERO, leq(v0("b"), App(SUCC, v0("a")))))),
    ]
    for f in shapes:
        d = delta_recognize(f)
        sk = skolemize_delta(d)
        for size in (1, 2, 3):
            model = FiniteModel(size)
            assert eval_formula(f, model) == eval_formula(sk, model)


def test_eval_formula_examples():
    m = FiniteModel(3)
    assert eval_formula(Forall("x", ZERO, Prime(v0("x"), v0("x"))), m)
    assert eval_formula(Exists("y", ZERO, Forall("x", ZERO, leq(v0("x"), v0("y")))), m)
    gt = neg(leq(v0("x"), v0("y")))
    assert not eval_formula(Forall("y", ZERO, Exists("x", ZERO, gt)), m)
    assert not eval_formula(FALSE, m)


def test_successor_table_agrees_with_the_model():
    x, y = v0("x"), v0("y")
    for n in range(6):
        m = FiniteModel(n)
        succ = const_value(SUCC, m)
        for _ in range(2):  # the second pass reads the values the first one stored
            for k in range(-3, n + 4):
                assert succ(k) == m.succ(k) and type(succ(k)) is int
                assert evaluate(App(SUCC, x), m, {"x": k}) == m.succ(k)
                # a free argument, then a bound one, with env values outside the carrier
                assert eval_formula(Prime(App(SUCC, x), y), m, {"x": k, "y": m.succ(k)})
                assert eval_formula(Exists("y", ZERO, Prime(App(SUCC, x), y)), m, {"x": k}) == (
                    m.succ(k) in m.carrier())
                assert eval_formula(Exists("y", ZERO, Prime(App(SUCC, y), x)), m, {"x": k}) == (
                    any(m.succ(j) == k for j in m.carrier()))


def reference_truth(f, model, env, budget):
    """Tree-walking truth: evaluates terms and enumerates a domain at every visit."""
    if isinstance(f, RealCmp):
        raise UnsupportedType("real comparison atoms have no finite-model value")
    if isinstance(f, (Prime, Leq0)):
        lhs, rhs = evaluate(f.lhs, model, env), evaluate(f.rhs, model, env)
        return lhs == rhs if isinstance(f, Prime) else lhs <= rhs
    if isinstance(f, (And, Or, Implies)):
        left = reference_truth(f.left, model, env, budget)
        if isinstance(f, And):
            return left and reference_truth(f.right, model, env, budget)
        if isinstance(f, Or):
            return left or reference_truth(f.right, model, env, budget)
        return not left or reference_truth(f.right, model, env, budget)
    try:
        values = reference_values(f.vtype, model, budget)
    except UnsupportedType as exc:
        raise EnumerationBudgetExceeded(str(exc)) from exc
    results = (reference_truth(f.body, model, {**env, f.var: v}, budget) for v in values)
    return any(results) if isinstance(f, Exists) else all(results)


def reference_dialectica(d, model, budget):
    """Check the work budget, then search witness tuples against counterexample tuples."""
    work = 1
    for _, t in d.ex_vars + d.univ_vars:
        work *= enumeration_size(t, model)
    if work > budget:
        raise EnumerationBudgetExceeded(f"witness search space exceeds budget {budget}")
    ex = [[(n, v) for v in reference_values(t, model, budget)] for n, t in d.ex_vars]
    univ = [[(n, v) for v in reference_values(t, model, budget)] for n, t in d.univ_vars]
    return any(
        all(reference_truth(d.matrix, model, dict(a + b), budget) for b in itertools.product(*univ))
        for a in itertools.product(*ex)
    )


def outcome(thunk):
    try:
        return thunk()
    except (EnumerationBudgetExceeded, UnsupportedType, KeyError) as exc:
        return type(exc)


def test_compiled_oracle_matches_the_reference_evaluator():
    budget, refused = 20_000, 0
    for seed in range(4):
        for f in generate_corpus(seed):
            nt, d = negative_translation(f), dialectica(f)
            for size in (1, 2, 3, 4):
                m = FiniteModel(size)
                got = [outcome(lambda: eval_formula(f, m, budget=budget)),
                       outcome(lambda: eval_formula(nt, m, budget=budget)),
                       outcome(lambda: eval_dialectica(d, m, budget=budget))]
                want = [outcome(lambda: reference_truth(f, m, {}, budget)),
                        outcome(lambda: reference_truth(nt, m, {}, budget)),
                        outcome(lambda: reference_dialectica(d, m, budget))]
                assert got == want, (format_formula(f), size)
                refused += got[2] is EnumerationBudgetExceeded
    assert refused  # the budget refuses some witness searches at the larger carriers


REAL_ATOM = RealCmp("<", rat_real(0), rat_real(1))
OVER_BUDGET = Forall("g", TYPE_ONE, Prime(App(Var("g", TYPE_ONE), ZERO_CONST), ZERO_CONST))
TRUE = Prime(ZERO_CONST, ZERO_CONST)


def test_oracle_raises_only_on_what_it_reaches():
    m = FiniteModel(3)  # 4^4 = 256 tables of type 0(0), past a budget of 100
    assert eval_formula(Or(TRUE, REAL_ATOM), m) is True
    with pytest.raises(UnsupportedType):
        eval_formula(Or(FALSE, REAL_ATOM), m)
    assert eval_formula(And(FALSE, OVER_BUDGET), m, budget=100) is False
    with pytest.raises(EnumerationBudgetExceeded):
        eval_formula(And(TRUE, OVER_BUDGET), m, budget=100)
    unbound = Prime(v0("a"), v0("b"))
    assert eval_formula(Implies(FALSE, unbound), m) is True
    assert eval_formula(Forall("x", ZERO, Or(Prime(v0("x"), v0("x")), unbound)), m) is True
    for reached in (unbound, Forall("x", ZERO, And(Prime(v0("x"), v0("x")), unbound))):
        with pytest.raises(KeyError, match="unbound variable a"):  # the left term first
            eval_formula(reached, m)
    assert eval_formula(unbound, m, {"a": 2, "b": 2}) is True


def test_corpus_soundness():
    corpus = generate_corpus(0, count=30)
    assert len(corpus) == 30
    assert len(set(corpus)) == 30
    for f in corpus:
        assert free_formula_vars(f) == {}
        rep = check_interpretation_soundness(f)
        assert rep.all_agree, format_formula(f)


def test_dialectica_qf_or_free_identity():
    corpus = generate_corpus(5, count=20)
    for f in corpus:
        if is_quantifier_free(f) and "(or " not in format_formula(f):
            d = dialectica(f)
            assert d.ex_vars == () and d.univ_vars == () and d.matrix == f


def test_parse_format_roundtrip_on_corpus():
    for f in generate_corpus(1, count=25):
        assert parse_formula(format_formula(f)) == f
    spec = "(forall (a 0) (existsleq (b 0) a (forall (c 0) (<= b c))))"
    f = parse_formula(spec)
    assert delta_recognize(f) is not None
    assert parse_formula(format_formula(f)) == f


# Random formulas over every head of the text format: terms mix bound variables, free
# ones (printed as ``(: name TYPE)`` escapes), numerals, named constants and ``rat``.
NAMES = ["x", "y", "f"]
TYPES = st.sampled_from([ZERO, X, TYPE_ONE, Arrow(X, TYPE_ONE)])


@st.composite
def terms(draw, ctx, depth=2):
    roll = draw(st.integers(0, 5 if depth else 4))
    if roll == 0 and ctx:
        name = draw(st.sampled_from(sorted(ctx)))
        return Var(name, ctx[name])
    if roll <= 1:
        return Var(draw(st.sampled_from(NAMES)), draw(TYPES))
    if roll == 2:
        return numeral(draw(st.integers(0, 3)))
    if roll == 3:
        return draw(st.sampled_from(list(NAMED_CONSTS.values())))
    if roll == 4:
        return rat_real(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4))))
    return App(draw(terms(ctx, depth - 1)), draw(terms(ctx, depth - 1)))


@st.composite
def formulas(draw, ctx=None, depth=3):
    ctx = ctx or {}
    roll = draw(st.integers(0, 9 if depth else 5))
    t = terms(ctx)
    if roll == 0:
        return draw(st.sampled_from([Prime, Leq0, MemberA]))(draw(t), draw(t))
    if roll == 1:
        return RealCmp(draw(st.sampled_from(["=", "<=", "<"])), draw(t), draw(t))
    if roll == 2:
        return draw(st.sampled_from([EqAt, Preceq]))(draw(TYPES), draw(t), draw(t))
    if roll == 3:
        return FALSE
    if roll <= 5:
        return Prime(draw(t), draw(t))
    if roll == 6:
        return neg(draw(formulas(ctx, depth - 1)))
    if roll == 7:
        name, vtype = draw(st.sampled_from(NAMES)), draw(TYPES)
        body = draw(formulas({**ctx, name: vtype}, depth - 1))
        return draw(st.sampled_from([Forall, Exists]))(name, vtype, body)
    left, right = draw(formulas(ctx, depth - 1)), draw(formulas(ctx, depth - 1))
    return draw(st.sampled_from([And, Or, Implies]))(left, right)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(formulas())
def test_parse_format_roundtrip_over_the_grammar(f):
    assert parse_formula(format_formula(f)) == f


def test_typecheck_formula_accepts_the_generated_formulas():
    readme = [
        "(forall (x 0) (exists (y 0) (= y (succ x))))",
        "(forall (a 0) (existsleq (b 0) a (forall (c 0) (<= b a))))",
    ]
    accepted = [uc_star_formula(), expand_defined(uc_star_formula())]
    accepted += [parse_formula(text) for text in readme]
    for f in generate_corpus(2, count=20):
        accepted += [f, negative_translation(f), dialectica(f).to_formula()]
    for f in accepted:
        typecheck_formula(f)


@pytest.mark.parametrize("text", [
    "(forall (a 0) (existsleq (b 0) succ (= b b)))",
    "(forall (a 0) (existsleq (b 0) (a a) (= b b)))",
    "(forall (x 0) (member x (: y X)))",
    "(<R (: r 0) (rat 1/2))",
    "(eqat X zeroX 0)",
    "(forall (x 0) (= (: x X) 0))",
])
def test_typecheck_formula_refuses_ill_typed_atoms(text):
    with pytest.raises(IllTypedApplication):
        typecheck_formula(parse_formula(text))


def test_parse_rejects_garbage():
    extra = ("(= 0 0 5)", "(not false junk)", "(= (rat 1/2 7) 0)", "(= (: x 0 junk) 0)")
    binders = ("(forall x0 (= x x))", "(forall ab (= a a))", "(exists (x 0 1) (= x x))",
               "(= (: (a b) 0) 0)", "(forall (5 0) (= 5 5))", "(= (: 5 0) 0)")
    for bad in ("", "(forall x)", "(= 1", "(unknownop 1 2)", "(forall (x Q) (= x x))",
                *extra, *binders):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)
    with pytest.raises(FormulaSyntaxError):
        parse_term("(: 5 0)")


def test_exists_leq_shape():
    f = exists_leq("b", ZERO, numeral(3), leq(v0("b"), numeral(3)))
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)
    assert isinstance(f.body.left, Preceq)


# Matrices of forall x forall y exists z shapes: their Dialectica witness is a two-argument
# Skolem function F, applied to the bound x and y, and, in the second formula, to closed terms
SKOLEM_MATRICES = ["(= {z} {x})", "(= {z} {y})", "(<= (succ {z}) {x})", "(<= {z} (succ {x}))",
                   "(and (<= {x} {z}) (<= {y} {z}))", "(or (= {z} {x}) (<= (succ {y}) {z}))"]


def test_two_argument_skolem_functions_match_the_reference_evaluator():
    budget = 20_000  # 0(0)(0) has 16 tables at carrier 1 and 19683 at carrier 2
    for matrix in SKOLEM_MATRICES:
        f = parse_formula("(forall (x 0) (forall (y 0) (exists (z 0) "
                          + matrix.format(x="x", y="y", z="z") + ")))")
        d = dialectica(f)
        assert {str(t) for _, t in d.ex_vars} == {"0(0)(0)"}  # "or" adds a Skolem case flag
        closed = parse_formula("(exists (F ((0 0) 0)) (and "
                               + matrix.format(x="0", y="1", z="(F 0 1)")
                               + " (forall (x 0) (forall (y 0) "
                               + matrix.format(x="x", y="y", z="(F x y)") + "))))")
        for size in (1, 2, 3):
            m = FiniteModel(size)
            got = [outcome(lambda: eval_formula(f, m, budget=budget)),
                   outcome(lambda: eval_dialectica(d, m, budget=budget)),
                   outcome(lambda: eval_formula(closed, m, budget=budget))]
            want = [outcome(lambda: reference_truth(f, m, {}, budget)),
                    outcome(lambda: reference_dialectica(d, m, budget)),
                    outcome(lambda: reference_truth(closed, m, {}, budget))]
            assert got == want, (matrix, size)


def verdict(thunk):
    """The value, or the type and message of the exception raised."""
    try:
        return thunk()
    except Exception as exc:
        return type(exc), str(exc)


UNBOUND = Prime(v0("a"), ZERO_CONST)


def table_bodies(t, rng, count):
    """Bodies over ``F : t`` that read ``F`` at bound points and numerals (outside the domain
    too) and reach a real atom or an unbound variable on some tables only."""
    f = Var("F", t)
    args = [Var("x", t.argument)] + [numeral(k) for k in range(4)]
    ends = [numeral(k) for k in range(4)] + ([Var("y", t.result)] if t.result in (ZERO, X) else [])

    def value(arg=None):
        v = App(f, arg or rng.choice(args))
        return App(v, rng.choice(args)) if isinstance(t.result, Arrow) else v

    def formula(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice([Prime, Leq0])(value(), rng.choice(ends + [value()]))
        if roll < 0.4:
            return rng.choice([REAL_ATOM, UNBOUND])
        return rng.choice([And, Or, Implies])(formula(depth - 1), formula(depth - 1))

    for _ in range(count):
        body = formula(3)
        if t.result in (ZERO, X):
            body = rng.choice([Forall, Exists])("y", t.result, body)
        yield rng.choice([Forall, Exists])("x", t.argument, body)
    trap = Implies(Prime(value(numeral(2)), numeral(3)), rng.choice([REAL_ATOM, UNBOUND]))
    yield trap  # reached only on the tables with F 2 = 3
    yield Or(Prime(value(numeral(0)), numeral(1)), trap)
    yield And(Leq0(value(numeral(1)), numeral(1)), trap)


TABLE_MODELS = ([(spec, size, points) for spec in ("0(0)", "X(0)", "0(X)")
                 for size in (1, 2, 3) for points in range(4)]
                + [("0(0)(0)", size, 0) for size in (1, 2)])


@pytest.mark.parametrize("spec, size, points", TABLE_MODELS)
def test_table_search_decides_and_raises_as_the_product_order_does(spec, size, points):
    """A quantifier over tables skips those that read as one already evaluated.  It must
    reach the same deciding table, or the same first raising one, as the full walk does."""
    t, budget = parse_type(spec), 20_000
    model = FiniteModel(size, x_points=[float(i) for i in range(points)])
    rng = random.Random(f"{spec}:{size}:{points}")
    seen = set()
    for body in table_bodies(t, rng, 12 if spec == "0(0)(0)" else 40):
        for quantifier in (Exists, Forall):
            f = quantifier("F", t, body)
            got = verdict(lambda: eval_formula(f, model, budget=budget))
            assert got == verdict(lambda: reference_truth(f, model, {}, budget)), format_formula(f)
            seen.add(got if isinstance(got, bool) else got[0])
    assert {True, False} <= seen, seen
    if points or spec != "X(0)":  # X(0) without X points has no table, so nothing to read
        assert {UnsupportedType, KeyError} & seen, seen


@pytest.mark.parametrize("spec, size, budget, message", [
    ("0(0)", 4, 1000, "5^5 tables of type 0(0) exceed budget 1000"),
    ("0(0)(0)", 2, 20, "3^3 tables of type 0(0) exceed budget 20"),  # the result type first
    ("0(0)(0)", 2, 30, "27^3 tables of type 0(0)(0) exceed budget 30"),
    ("0(X)", 2, 1000, "model carries no X points"),
    ("0(0(0))", 1, 1000, "cannot enumerate functionals over 0(0)"),
])
def test_a_table_search_refuses_before_building_as_the_enumeration_does(spec, size, budget,
                                                                       message):
    t, model = parse_type(spec), FiniteModel(size)
    for quantifier in (Exists, Forall):
        f = And(TRUE, quantifier("F", t, Prime(App(Var("F", t), ZERO_CONST), ZERO_CONST)))
        want = verdict(lambda: reference_truth(f, model, {}, budget))
        assert verdict(lambda: eval_formula(f, model, budget=budget)) == want
        assert want == (EnumerationBudgetExceeded, message)


def counting(size):
    """A model whose ``count`` constant of type ``0(0)`` returns 0 and counts its calls."""
    calls = []
    return FiniteModel(size, defined={"count": lambda n: calls.append(n) or 0}), calls


COUNT = defined_const("count", TYPE_ONE)


def test_a_witness_the_body_never_reads_costs_one_evaluation():
    model, calls = counting(4)  # 5^5 = 3125 tables of type 0(0)
    body = Forall("x0", ZERO, Prime(App(COUNT, v0("x0")), numeral(1)))  # false at x0 = 0
    assert eval_formula(Exists("_F2", TYPE_ONE, body), model) is False
    assert calls == [0]


def test_a_false_body_reading_one_point_costs_one_table_per_prefix_read():
    model, calls = counting(4)
    read = App(COUNT, App(Var("F", TYPE_ONE), numeral(2)))  # fills F 0, F 1 and F 2
    assert eval_formula(Exists("F", TYPE_ONE, Prime(read, numeral(1))), model) is False
    assert calls == list(range(5)) * 25  # 5^3 tables, F 2 read last and fastest
