import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from prooflab.finite_types import X, ZERO, parse_type
from prooflab.majorization import (
    MajSamples,
    NOT_BOUNDED,
    NotBounded,
    bobs_uniform_majorant,
    check_majorizes,
    chi_majorant,
    monotone_hull,
    resolvent_majorant,
)
from prooflab.operator_lab import (
    abs_subdifferential,
    box_indicator,
    identity_operator,
    matrix_operator,
    resolvent,
    tan_subgradient,
)
from prooflab.real_codes import canonical_rep

TYPE_ONE = parse_type("0(0)")


def test_monotone_hull_constant():
    h = monotone_hull(lambda n: 7)
    assert [h(n) for n in range(4)] == [7, 7, 7, 7]


def test_monotone_hull_table():
    h = monotone_hull((5, 0, 7, 1))
    assert [h(n) for n in range(4)] == [5, 5, 7, 7]
    with pytest.raises(ValueError):
        h(4)


def test_monotone_hull_guards():
    h = monotone_hull(lambda n: n)
    with pytest.raises(ValueError):
        h(-1)
    with pytest.raises(ValueError):
        h(5000)


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=64))
def test_monotone_hull_dominates_and_nondecreasing(xs):
    h = monotone_hull(xs)
    vals = [h(n) for n in range(len(xs))]
    assert all(v >= x for v, x in zip(vals, xs))
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_chi_majorant_is_constant_one():
    m = chi_majorant()
    assert m(0)(0) == 1
    assert m(412)(9) == 1


def test_chi_majorant_majorizes_any_characteristic():
    samples = (
        MajSamples()
        .add_mixed(ZERO, [(0, 0), (3, 1), (5, 5)])
        .add_hat(ZERO, [(4, 2), (1, 1)])
    )
    chi = lambda x: lambda y: (x + y) % 2
    rep = check_majorizes(chi_majorant(), chi, parse_type("0(0)(0)"), samples)
    assert rep.ok and rep.checks > 0


def test_resolvent_majorant_formula():
    alpha = lambda n: 0
    assert resolvent_majorant(1, 0, 0, 0)(alpha)(10) == 13
    assert resolvent_majorant(0, 3, 1, 2)(alpha)(10) == 14
    assert resolvent_majorant(2, 1, 0, 1)(lambda n: 4)(0) == 2 + 12 * 2


def test_resolvent_majorant_rejects_negative_witnesses():
    with pytest.raises(ValueError):
        resolvent_majorant(1, -1, 0, 0)


def test_resolvent_majorant_dominates_soft_threshold():
    # reference point 0 is fixed by every resolvent of the subdifferential,
    # so the displacement witness is 0 and the bound collapses to x*
    op = abs_subdifferential()
    maj = resolvent_majorant(0, 1, 1, 0)
    alpha = monotone_hull(lambda n: canonical_rep(1)(n).code, cap=64)
    for gamma in (0.5, 1.0, 2.0):
        for x in np.linspace(-10, 10, 21):
            x_star = math.ceil(abs(x))
            p = resolvent(op, gamma, np.array([x]))
            assert abs(p[0]) <= maj(alpha)(x_star) + 1e-12


def test_check_majorizes_base_types():
    assert check_majorizes(3, 2, ZERO).ok
    rep = check_majorizes(2, 3, ZERO)
    assert not rep.ok and len(rep.failures) == 1
    assert check_majorizes(1.0, [0.6, 0.8], X).ok
    assert not check_majorizes(0.99, [0.6, 0.8], X).ok


def test_check_majorizes_arrow_needs_samples():
    with pytest.raises(ValueError):
        check_majorizes(lambda n: n, lambda n: n, TYPE_ONE)


def test_check_majorizes_dominance_and_monotonicity():
    samples = (
        MajSamples()
        .add_mixed(ZERO, [(3, 2), (5, 5), (0, 0)])
        .add_hat(ZERO, [(5, 3), (2, 2)])
    )
    good = check_majorizes(lambda n: n + 1, lambda n: n, TYPE_ONE, samples)
    assert good.ok and good.checks == 5
    flat = check_majorizes(lambda n: 0, lambda n: n, TYPE_ONE, samples)
    assert not flat.ok
    assert any("dom" in msg for msg in flat.failures)
    falling = check_majorizes(lambda n: 5 - n, lambda n: 0, TYPE_ONE, samples)
    assert not falling.ok
    assert any("mon" in msg for msg in falling.failures)


def test_check_majorizes_validates_sample_pool():
    bad = MajSamples().add_mixed(ZERO, [(2, 3)]).add_hat(ZERO, [])
    with pytest.raises(ValueError):
        check_majorizes(lambda n: n, lambda n: n, TYPE_ONE, bad)


def test_check_majorizes_second_order():
    t = parse_type("0(0(0))")
    samples = (
        MajSamples()
        .add_mixed(TYPE_ONE, [(monotone_hull(lambda n: n + 1), lambda n: n)])
        .add_hat(TYPE_ONE, [(monotone_hull(lambda n: 2 * n), monotone_hull(lambda n: n))])
        .add_mixed(ZERO, [(2, 1), (4, 4)])
        .add_hat(ZERO, [(3, 1)])
    )
    rep = check_majorizes(lambda f: f(3), lambda f: f(2), t, samples)
    assert rep.ok


def test_bobs_soft_threshold_constant_one():
    maj = bobs_uniform_majorant(abs_subdifferential())
    assert [maj(n) for n in range(5)] == [1, 1, 1, 1, 1]


def test_bobs_matrix_scales_with_norm():
    maj = bobs_uniform_majorant(matrix_operator(np.array([[2.0, 0.0], [0.0, 2.0]])))
    assert [maj(n) for n in range(4)] == [0, 2, 4, 6]
    ident = bobs_uniform_majorant(identity_operator(2))
    assert [ident(n) for n in range(4)] == [0, 1, 2, 3]


def test_bobs_unbounded_operators():
    assert bobs_uniform_majorant(tan_subgradient()) is NOT_BOUNDED
    assert bobs_uniform_majorant(box_indicator([-1.0, -1.0], [1.0, 1.0])) is NOT_BOUNDED
    assert bobs_uniform_majorant(object()) is NOT_BOUNDED


def test_not_bounded_singleton():
    assert NotBounded() is NOT_BOUNDED
    assert repr(NOT_BOUNDED) == "NotBounded"


def test_bobs_rejects_negative():
    maj = bobs_uniform_majorant(abs_subdifferential())
    with pytest.raises(ValueError):
        maj(-1)


def test_bobs_table_evaluates_each_argument_once():
    calls = []

    def bound(r):
        calls.append(r)
        return None if r == 3.0 else 2 * r

    maj = bobs_uniform_majorant(SimpleNamespace(norm_bound_on_ball=bound))
    calls.clear()
    assert [maj(2), maj(2), maj(1)] == [4, 4, 2]
    assert calls == [0.0, 1.0, 2.0, 0.0, 1.0]
    for _ in range(2):  # a refused argument raises every time: nothing is cached for it
        with pytest.raises(ValueError, match="naturals"):
            maj(-1)
        with pytest.raises(ValueError, match="inside radius 3"):
            maj(3)


def test_canonical_code_feeds_majorant():
    # parameter codes are nondecreasing after hulling, fit for the majorant slot
    alpha = monotone_hull(lambda n: canonical_rep(2)(n).code, cap=64)
    assert all(alpha(n) <= alpha(n + 1) for n in range(10))
    maj = resolvent_majorant(1, 0, 1, 0)(alpha)
    assert maj(3) == 3 + (2 + (alpha(0) + 1))
