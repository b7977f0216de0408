import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from prooflab.finite_types import Arrow, X, ZERO, parse_type
from prooflab.term_calculus import (
    App,
    CHI_A,
    Const,
    FiniteModel,
    IllTypedApplication,
    MONUS,
    PRED,
    SUCC,
    TYPE_ONE,
    UnsupportedType,
    Var,
    ZERO_CONST,
    app,
    bracket_abstract,
    bracket_abstract_chain,
    enumerate_values,
    enumeration_size,
    evaluate,
    free_vars,
    identity_term,
    leq_term,
    numeral,
    numeral_value,
    proj_const,
    rec_const,
    reduce_term,
    sigma_const,
    substitute,
    typecheck,
    uncurry,
)
from table_reference import reference_values

X_VAR = Var("x", ZERO)


def random_terms(rng, count, ctx_vars=()):
    """Grow a pool of well-typed terms by randomly applying compatible pairs."""
    ctx = {v.name: v.type for v in ctx_vars}
    seeds = [
        *(numeral(k) for k in range(4)),
        SUCC,
        PRED,
        MONUS,
        identity_term(ZERO),
        proj_const(ZERO, ZERO),
        proj_const(ZERO, TYPE_ONE),
        sigma_const(ZERO, ZERO, ZERO),
        rec_const(ZERO),
        *ctx_vars,
    ]
    pool = {}
    for t in seeds:
        pool.setdefault(typecheck(t, ctx), []).append(t)
    flat = list(seeds)
    made = []
    while len(made) < count:
        f = rng.choice(flat)
        ft = typecheck(f, ctx)
        if not isinstance(ft, Arrow):
            continue
        args = pool.get(ft.argument)
        if not args:
            continue
        t = App(f, rng.choice(args))
        made.append(t)
        flat.append(t)
        pool.setdefault(typecheck(t, ctx), []).append(t)
    return made


def test_typecheck_examples():
    assert typecheck(App(SUCC, ZERO_CONST)) is ZERO
    x = Var("p", X)
    y = Var("q", X)
    assert typecheck(app(CHI_A, x, y), {"p": X, "q": X}) is ZERO
    pi = proj_const(ZERO, ZERO)
    assert typecheck(app(pi, Var("a", ZERO), Var("b", ZERO)), {"a": ZERO, "b": ZERO}) is ZERO


def test_typecheck_rejects_bad_application():
    with pytest.raises(IllTypedApplication):
        typecheck(App(SUCC, SUCC))
    with pytest.raises(IllTypedApplication):
        typecheck(App(ZERO_CONST, ZERO_CONST))
    try:
        typecheck(App(SUCC, App(SUCC, SUCC)))
    except IllTypedApplication as e:
        assert e.path


def reference_typecheck(t, ctx=None, path=""):
    """The recursive walk: the order and the errors that ``typecheck`` keeps."""
    if isinstance(t, Var):
        if ctx is not None and t.name in ctx and ctx[t.name] != t.type:
            raise IllTypedApplication(
                f"variable {t.name} declared {ctx[t.name]} but annotated {t.type}", path)
        return t.type
    if isinstance(t, Const):
        return t.type
    fun_t = reference_typecheck(t.fun, ctx, path + "fun.")
    arg_t = reference_typecheck(t.arg, ctx, path + "arg.")
    if not isinstance(fun_t, Arrow):
        raise IllTypedApplication(f"applied non-arrow type {fun_t}", path)
    if fun_t.argument != arg_t:
        raise IllTypedApplication(f"expected argument of type {fun_t.argument}, got {arg_t}", path)
    return fun_t.result


def typecheck_outcome(check, *args):
    try:
        return check(*args)
    except IllTypedApplication as exc:
        return str(exc), exc.path


def test_typecheck_finds_the_first_error_of_the_recursive_walk():
    rng = random.Random(3)
    atoms = [ZERO_CONST, SUCC, PRED, proj_const(ZERO, TYPE_ONE), rec_const(ZERO),
             Var("x", ZERO), Var("x", TYPE_ONE), Var("f", TYPE_ONE)]

    def grow(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        return App(grow(depth - 1), grow(depth - 1))

    errors = 0
    for _ in range(1500):
        t = grow(6)
        for ctx, path in ((None, ""), ({"x": ZERO, "f": TYPE_ONE}, "arg.")):
            want = typecheck_outcome(reference_typecheck, t, ctx, path)
            assert typecheck_outcome(typecheck, t, ctx, path) == want, t
            errors += isinstance(want, tuple)
    assert 500 < errors < 2900  # both outcomes are common


def test_typecheck_of_a_deep_numeral_does_not_recurse():
    assert typecheck(numeral(100_000)) is ZERO


def test_reduction_rules():
    a, b = numeral(2), numeral(1)
    pi = proj_const(ZERO, ZERO)
    red = reduce_term(app(pi, a, b))
    assert red.normal and red.term == a

    rec = rec_const(ZERO)
    base = reduce_term(app(rec, a, bracket_abstract_chain(
        [Var("u", ZERO), Var("v", ZERO)], Var("u", ZERO)), ZERO_CONST))
    assert base.term == a

    # iterate successor twice from zero: recursor counts to the numeral
    step = bracket_abstract_chain([Var("u", ZERO), Var("v", ZERO)], App(SUCC, Var("u", ZERO)))
    red = reduce_term(app(rec, ZERO_CONST, step, numeral(2)))
    assert red.term == numeral(2)
    assert red.normal


def test_bracket_abstraction_laws():
    ident = bracket_abstract(X_VAR, X_VAR)
    assert reduce_term(App(ident, numeral(3))).term == numeral(3)

    const = bracket_abstract(X_VAR, numeral(2))
    assert reduce_term(App(const, numeral(3))).term == numeral(2)

    succ_of = bracket_abstract(X_VAR, App(SUCC, X_VAR))
    assert reduce_term(App(succ_of, ZERO_CONST)).term == numeral(1)


def test_numerals():
    assert numeral(0) == ZERO_CONST
    assert numeral_value(numeral(7)) == 7
    assert numeral_value(App(SUCC, Var("x", ZERO))) is None
    head, args = uncurry(app(CHI_A, Var("p", X), Var("q", X)))
    assert head == CHI_A and len(args) == 2


def test_free_vars_and_substitute():
    t = app(proj_const(ZERO, ZERO), X_VAR, numeral(1))
    assert free_vars(t) == {"x": ZERO}
    s = substitute(t, "x", numeral(5))
    assert free_vars(s) == {}
    assert reduce_term(s).term == numeral(5)


def test_subject_reduction_random():
    rng = random.Random(1)
    for t in random_terms(rng, 1000):
        before = typecheck(t)
        red = reduce_term(t, fuel=50_000)
        assert red.normal
        assert typecheck(red.term) == before


def test_bracket_beta_simulation_random():
    rng = random.Random(2)
    terms = random_terms(rng, 300, ctx_vars=(X_VAR,))
    for t in terms:
        s = numeral(rng.randrange(4))
        lhs = reduce_term(App(bracket_abstract(X_VAR, t), s), fuel=100_000)
        rhs = reduce_term(substitute(t, "x", s), fuel=100_000)
        assert lhs.normal and rhs.normal
        assert lhs.term == rhs.term


def test_evaluate_matches_reduction_random():
    rng = random.Random(3)
    model = FiniteModel(512)
    for t in random_terms(rng, 400):
        if typecheck(t) is not ZERO:
            continue
        red = reduce_term(t, fuel=50_000)
        assert evaluate(t, model) == evaluate(red.term, model)


def test_evaluate_examples():
    assert evaluate(numeral(2), FiniteModel(3)) == 2
    assert evaluate(App(SUCC, ZERO_CONST), FiniteModel(0)) == 0
    m = FiniteModel(5)
    pi = proj_const(ZERO, ZERO)
    assert evaluate(app(pi, numeral(4), numeral(1)), m) == 4
    member = FiniteModel(2, x_points=[0.0, 1.0], chi=lambda i, j: 0 if i == j else 1)
    assert evaluate(app(CHI_A, Var("p", X), Var("q", X)), member, {"p": 1, "q": 1}) == 0
    with pytest.raises(UnsupportedType):
        evaluate(CHI_A, FiniteModel(2))


def test_pred_monus_leq():
    m = FiniteModel(64)
    for a in range(6):
        assert evaluate(App(PRED, numeral(a)), m) == max(0, a - 1)
        assert numeral_value(reduce_term(App(PRED, numeral(a))).term) == max(0, a - 1)
        for b in range(6):
            want = max(0, a - b)
            assert numeral_value(reduce_term(app(MONUS, numeral(a), numeral(b))).term) == want
            le = numeral_value(reduce_term(leq_term(numeral(a), numeral(b))).term)
            assert (le == 0) == (a <= b)


def test_enumerate_values():
    m = FiniteModel(2)
    assert enumeration_size(ZERO, m) == 3
    assert enumeration_size(TYPE_ONE, m) == 27
    fns = enumerate_values(TYPE_ONE, m)
    assert len(fns) == 27
    assert len({tuple(f(i) for i in m.carrier()) for f in fns}) == 27
    with pytest.raises(UnsupportedType):
        enumerate_values(parse_type("0(0(0))"), FiniteModel(3), budget=1000)


def test_enumerated_table_refuses_arguments_outside_its_domain():
    for f in enumerate_values(TYPE_ONE, FiniteModel(2)):
        with pytest.raises(KeyError):
            f(3)


def listing(t, model):
    """``enumerate_values`` and the reference on ``t``: both lists, or both exceptions."""
    out = []
    for enumerate_fn in (enumerate_values, reference_values):
        try:
            out.append(enumerate_fn(t, model))
        except UnsupportedType as exc:
            out.append((type(exc), str(exc)))
    return out


def outputs(t, value, model):
    """The value's outputs on every domain point, recursing into function-valued results."""
    if not isinstance(t, Arrow):
        return value
    return [outputs(t.result, value(a), model) for a in reference_values(t.argument, model)]


@pytest.mark.parametrize("size", range(5))
@pytest.mark.parametrize("spec", ["0", "X", "0(0)", "0(X)", "X(0)", "0(0)(0)"])
def test_enumerated_tables_match_the_product_reference(spec, size):
    t = parse_type(spec)
    model = FiniteModel(size, x_points=[float(i) for i in range(size)])
    got, want = listing(t, model)
    if isinstance(want, tuple):  # past the budget: the same refusal
        assert got == want and spec == "0(0)(0)" and size >= 3
        return
    assert len(got) == len(want)
    for f, g in zip(got, want):
        assert outputs(t, f, model) == outputs(t, g, model)
    if isinstance(t, Arrow):
        assert all(type(f.__self__) is dict for f in got)
        assert len({id(f.__self__) for f in got}) == len(got)  # every table is its own dict
        outside = len(reference_values(t.argument, model))
        for f in got:
            with pytest.raises(KeyError):
                f(outside)


def test_enumeration_past_the_budget_refuses_before_building_a_table():
    with pytest.raises(UnsupportedType) as exc:
        enumerate_values(TYPE_ONE, FiniteModel(99))
    assert str(exc.value) == "100^100 tables of type 0(0) exceed budget 200000"


def test_tables_come_in_product_order_in_a_fresh_list_per_call():
    model = FiniteModel(3)
    first = enumerate_values(TYPE_ONE, model)
    rows = [outputs(TYPE_ONE, f, model) for f in first]
    assert rows == [list(table) for table in itertools.product(range(4), repeat=4)]
    first.clear()
    second = enumerate_values(TYPE_ONE, FiniteModel(3))
    assert [outputs(TYPE_ONE, f, model) for f in second] == rows
    assert enumerate_values(TYPE_ONE, model) is not second


@pytest.mark.parametrize("spec", ["X(0)", "0(X)"])
def test_tables_follow_the_number_of_x_points(spec):
    t = parse_type(spec)
    for points in (2, 3, 2, 1):
        model = FiniteModel(2, x_points=[float(i) for i in range(points)])
        got, want = listing(t, model)
        assert [outputs(t, f, model) for f in got] == [outputs(t, g, model) for g in want]


def test_a_lower_budget_refuses_a_type_enumerated_before():
    assert len(enumerate_values(TYPE_ONE, FiniteModel(4), budget=20_000)) == 5**5
    with pytest.raises(UnsupportedType) as exc:
        enumerate_values(TYPE_ONE, FiniteModel(4), budget=1_000)
    assert str(exc.value) == "5^5 tables of type 0(0) exceed budget 1000"


@pytest.mark.parametrize("size", [-1, -5, 2.5, 3.0, True, False, "3", None])
def test_finite_model_refuses_a_size_that_is_not_a_natural_number(size):
    with pytest.raises(ValueError, match="natural number"):
        FiniteModel(size)


def test_identity_term_is_combinator():
    ident = identity_term(TYPE_ONE)
    assert typecheck(ident) == Arrow(TYPE_ONE, TYPE_ONE)
    red = reduce_term(App(App(ident, SUCC), numeral(1)))
    assert red.term == numeral(2)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
def test_monus_agrees_with_integers(a, b):
    got = numeral_value(reduce_term(app(MONUS, numeral(a), numeral(b)), fuel=500_000).term)
    assert got == max(0, a - b)
