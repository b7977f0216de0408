import re

import pytest
from hypothesis import given, settings, strategies as st

from prooflab.finite_types import (
    Arrow,
    BaseType,
    TypeContainsX,
    TypeSyntaxError,
    X,
    ZERO,
    argument_types,
    arrow_chain,
    classify,
    contains_x,
    degree,
    format_type,
    hat,
    is_admissible,
    is_small,
    parse_type,
    pure_index,
    pure_type,
)
from type_reference import reference_parse_type

types = st.recursive(
    st.sampled_from([ZERO, X]),
    lambda inner: st.builds(Arrow, inner, inner),
    max_leaves=12,
)


def all_types(size):
    """Every type with at most ``size`` leaves over the two bases."""
    exact = {1: [ZERO, X]}
    for n in range(2, size + 1):
        exact[n] = [
            Arrow(res, arg)
            for k in range(1, n)
            for res in exact[k]
            for arg in exact[n - k]
        ]
    return [t for n in range(1, size + 1) for t in exact[n]]


def test_parse_examples():
    t = parse_type("X(X)(1)")
    assert t == Arrow(Arrow(X, X), Arrow(ZERO, ZERO))
    assert str(t) == "X(X)(0(0))"
    assert format_type(t, pure_shorthand=True) == "X(X)(1)"
    assert parse_type("0") is ZERO
    assert parse_type("X") is X
    assert parse_type("2") == Arrow(ZERO, Arrow(ZERO, ZERO))


def test_parse_rejects_garbage():
    for bad in ("", "0(", "()", "0)(", "Y", "0(0))", "0 0"):
        with pytest.raises(TypeSyntaxError):
            parse_type(bad)


@given(types)
def test_parse_print_roundtrip(t):
    assert parse_type(str(t)) == t
    assert parse_type(format_type(t, pure_shorthand=True)) == t


# Type text from the reader's alphabet and outside it, numerals cut to two digits: the
# numeral n reads as n nested arrows, so a long digit run would cost time and memory
TYPE_TEXT = st.text(alphabet="0123456789X() Y²", max_size=16).map(
    lambda s: re.sub(r"([0-9]{2})[0-9]+", r"\1", s))


def _reading(parse, text):
    try:
        return parse(text)
    except TypeSyntaxError:
        return TypeSyntaxError


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(TYPE_TEXT, types.map(str), types.map(lambda t: format_type(t, True))))
def test_parse_type_matches_the_reference_reader(text):
    # the reference refuses trailing spaces, where its regex wants one more token; the
    # reader takes spaces as separators anywhere, as formula text does
    assert _reading(parse_type, text) == _reading(reference_parse_type, text.rstrip())


def test_parse_type_reads_spaces_as_separators():
    assert parse_type(" X (0) ( 1 )\t\n") == Arrow(Arrow(X, ZERO), pure_type(1))
    for bad, message in (("X((", "end of type"), ("0)", "unexpected ')'"), ("0 0", "'0'"),
                         ("²", "'²'"), ("()", "end of type"), ("X Y", "'Y'")):
        with pytest.raises(TypeSyntaxError, match=re.escape(message)):
            parse_type(bad)


def test_pure_types_degree():
    for n in range(11):
        info = classify(pure_type(n))
        assert info.degree == n
        assert pure_index(pure_type(n)) == n
    assert pure_type(0) is ZERO
    assert pure_type(3) == Arrow(ZERO, pure_type(2))


def test_degree_recursion():
    assert degree(ZERO) == 0
    assert degree(parse_type("0(0)")) == 1
    assert degree(parse_type("0(0(0))")) == 2
    assert degree(parse_type("0(0)(0)")) == 1


def test_degree_refuses_x():
    with pytest.raises(TypeContainsX):
        degree(X)
    with pytest.raises(TypeContainsX):
        degree(parse_type("0(X)"))
    assert classify(X).degree is None


def test_small_and_admissible_examples():
    assert is_small(X) and is_admissible(X)
    assert is_small(ZERO) and is_admissible(ZERO)
    xx = parse_type("X(X)")
    assert is_admissible(xx) and not is_small(xx)
    assert not is_admissible(parse_type("0(X(X))"))
    assert is_small(parse_type("0(0)(0)"))
    assert is_admissible(parse_type("X(0)(X)"))


def test_small_implies_admissible_exhaustive():
    for t in all_types(8):
        if is_small(t):
            assert is_admissible(t), t


def test_hat_examples():
    assert hat(X) is ZERO
    assert hat(parse_type("X(X)")) == parse_type("0(0)")
    assert hat(parse_type("X(X)(1)")) == parse_type("0(0)(0(0))")


@given(types)
def test_hat_properties(t):
    h = hat(t)
    assert not contains_x(h)
    assert hat(h) == h
    assert len(argument_types(h)[0]) == len(argument_types(t)[0])


def test_arrow_chain():
    assert arrow_chain([], ZERO) is ZERO
    t = arrow_chain([ZERO, X], ZERO)
    assert str(t) == "0(X)(0)"
    assert argument_types(t) == ([ZERO, X], ZERO)


def test_base_type_identity():
    assert BaseType("0") == ZERO
    assert BaseType("X") == X
    assert contains_x(Arrow(ZERO, X))
    assert not contains_x(pure_type(4))


def test_deep_types_walk_without_recursion():
    # nesting past Python's recursion limit in the argument (a pure type) and in the result:
    # printing, parsing, the degree, the hat and the X test loop over explicit stacks
    deep = 5000
    pure = pure_type(deep)
    text = "0(" * deep + "0" + ")" * deep
    assert str(pure) == text and format_type(pure, pure_shorthand=True) == str(deep)
    assert pure_index(parse_type(text)) == deep and degree(pure) == deep
    assert not contains_x(pure) and str(hat(pure)) == text
    left = X
    for _ in range(deep):
        left = Arrow(left, ZERO)
    assert str(left) == "X" + "(0)" * deep == str(parse_type(str(left)))
    assert contains_x(left) and str(hat(left)) == "0" + "(0)" * deep
    assert degree(hat(left)) == 1 and classify(left).admissible
