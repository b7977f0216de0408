"""Reference listing of finite-model values, one ``dict(zip(...))`` per table.

This is the construction ``term_calculus.enumerate_values`` used before it
built its tables one argument at a time. The tests compare the two, and the
oracle's reference evaluators enumerate their domains with it, so that a
wrong table in the program cannot pass through both sides of a comparison.
"""

import itertools

from prooflab.finite_types import Arrow, BaseType
from prooflab.term_calculus import UnsupportedType, _base_domain


def reference_values(t, model, budget=200_000):
    """All values of ``t`` in ``model``; functions are tables over ``itertools.product``."""
    if isinstance(t, BaseType):
        dom = _base_domain(t, model)
        if len(dom) > budget:
            raise UnsupportedType(f"carrier of {t} exceeds budget")
        return list(dom)
    assert isinstance(t, Arrow)
    if not isinstance(t.argument, BaseType):
        raise UnsupportedType(f"cannot enumerate functionals over {t.argument}")
    arg_dom = list(_base_domain(t.argument, model))
    results = reference_values(t.result, model, budget)
    if len(results) ** len(arg_dom) > budget:
        raise UnsupportedType(
            f"{len(results)}^{len(arg_dom)} tables of type {t} exceed budget {budget}"
        )
    tables = itertools.product(results, repeat=len(arg_dom))
    return [dict(zip(arg_dom, table)).__getitem__ for table in tables]
