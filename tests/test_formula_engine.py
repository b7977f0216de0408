from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prooflab.finite_types import Arrow, X, ZERO, parse_type
from prooflab.formula_engine import (
    And,
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
    Var,
    ZERO_CONST,
    numeral,
    rat_real,
)

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
    for bad in ("", "(forall x)", "(= 1", "(unknownop 1 2)", "(forall (x Q) (= x x))"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad)


def test_exists_leq_shape():
    f = exists_leq("b", ZERO, numeral(3), leq(v0("b"), numeral(3)))
    assert isinstance(f, Exists)
    assert isinstance(f.body, And)
    assert isinstance(f.body.left, Preceq)
