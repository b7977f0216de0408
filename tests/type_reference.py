"""Reference reader of finite-type text: a regex tokenizer and a recursive descent.

This is the parser ``finite_types.parse_type`` used before it read the nested token
lists that formula text shares. The tests compare the two on random strings and
printed types, so that a reading the program gets wrong must agree with an
independent construction to pass.
"""

import re

from prooflab.errors import TypeSyntaxError
from prooflab.finite_types import Arrow, X, pure_type

_TOKEN = re.compile(r"\s*([0-9]+|X|\(|\))")


def _tokenize(text):
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise TypeSyntaxError(f"bad type syntax at {text[pos:]!r}")
        yield m.group(1)
        pos = m.end()


def reference_parse_type(text):
    """Parse ``0``, ``X``, numerals and left-nested arrows like ``X(X)(1)``."""
    tokens = list(_tokenize(text))
    pos = 0

    def atom():
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

    def typ():
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
