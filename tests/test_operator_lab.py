import json
import math

import numpy as np
import pytest

from prooflab.operator_lab import (
    CATALOG,
    COMONOTONE_GAMMAS,
    CheckReport,
    ComonotoneStepError,
    FinitePoints,
    IntervalBox,
    NonPositiveGamma,
    NotAvailable,
    OutsideDomain,
    PreconditionViolated,
    STANDARD_GAMMAS,
    abs_subdifferential,
    as_vector,
    box_indicator,
    build_catalog,
    check_minimal_norm_selection,
    check_operator_class,
    check_resolvent_properties,
    clamp_tilde,
    graph_closedness_check,
    hstar_check,
    identity_operator,
    inner_vs_norm_check,
    l2,
    matrix_operator,
    minimal_norm_selection,
    one_sided_excess,
    range_condition_check,
    resolvent,
    resolvent_param_modulus,
    scaled_identity,
    tan_subgradient,
    uc_modulus_check,
    verify_resolvent_param_modulus,
    yosida,
)
from prooflab.operator_lab import _alpha_for


def pts(*rows):
    return FinitePoints(np.array(rows, dtype=float))


def test_as_vector_shapes():
    assert as_vector(3.5, 1).tolist() == [3.5]
    assert as_vector([1, 2], 2).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        as_vector([1, 2], 3)


def test_finite_points_queries():
    v = pts([3.0, 4.0], [0.0, 1.0])
    assert v.contains(np.array([0.0, 1.0]), 1e-9)
    assert not v.contains(np.array([0.0, 0.0]), 1e-9)
    assert v.min_norm_point().tolist() == [0.0, 1.0]
    assert v.distance_to(np.array([3.0, 0.0])) == pytest.approx(math.sqrt(10.0))


def test_interval_box_queries():
    b = IntervalBox(np.array([0.0, -math.inf]), np.array([1.0, math.inf]))
    assert b.contains(np.array([0.5, 100.0]), 0.0)
    assert not b.contains(np.array([2.0, 0.0]), 1e-9)
    assert b.min_norm_point().tolist() == [0.0, 0.0]
    assert b.distance_to(np.array([3.0, 7.0])) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        IntervalBox(np.array([1.0]), np.array([0.0]))


def test_one_sided_excess_points():
    assert one_sided_excess(pts([0.0]), pts([0.0])) == 0.0
    assert one_sided_excess(pts([0.0]), pts([1.0])) == pytest.approx(1.0)
    assert one_sided_excess(pts([0.0], [5.0]), pts([1.0], [4.0])) == pytest.approx(1.0)


def test_one_sided_excess_boxes():
    a = IntervalBox(np.array([0.0]), np.array([2.0]))
    b = IntervalBox(np.array([0.0]), np.array([1.0]))
    assert one_sided_excess(a, b) == pytest.approx(1.0)
    assert one_sided_excess(b, a) == 0.0
    inf_box = IntervalBox(np.array([0.0]), np.array([math.inf]))
    assert one_sided_excess(inf_box, b) == math.inf


def test_one_sided_excess_interval_vs_points_midpoint():
    # the worst point of [-1, 1] against {-1, 1} sits between the two points
    box = IntervalBox(np.array([-1.0]), np.array([1.0]))
    assert one_sided_excess(box, pts([-1.0], [1.0])) == pytest.approx(1.0)
    assert one_sided_excess(box, pts([0.0])) == pytest.approx(1.0)


def test_one_sided_excess_unsupported():
    box2 = IntervalBox(np.zeros(2), np.ones(2))
    with pytest.raises(NotAvailable):
        one_sided_excess(box2, pts([0.0, 0.0]))


def test_hstar_check():
    assert not hstar_check(pts([0.0]), pts([1.0]), 0.5)
    assert hstar_check(pts([0.0]), pts([1.0]), 1.0)


def test_clamp_tilde():
    assert clamp_tilde([3.0, 4.0], 10.0).tolist() == [3.0, 4.0]
    assert clamp_tilde([3.0, 4.0], 1.0).tolist() == pytest.approx([0.6, 0.8])
    assert clamp_tilde([0.0, 0.0], 1.0).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        clamp_tilde([1.0], 0.0)


def test_soft_threshold_resolvent():
    op = abs_subdifferential()
    assert resolvent(op, 2.0, 3.0)[0] == pytest.approx(1.0)
    assert resolvent(op, 1.0, 0.5)[0] == pytest.approx(0.0)
    assert resolvent(op, 1.0, -3.0)[0] == pytest.approx(-2.0)


def test_resolvent_identity_example():
    # J_1 evaluated at the convex combination reproduces J_2(3) = 1
    op = abs_subdifferential()
    j2 = resolvent(op, 2.0, 3.0)
    inner = 0.5 * np.array([3.0]) + 0.5 * j2
    assert resolvent(op, 1.0, inner)[0] == pytest.approx(j2[0])


def test_identity_resolvent_and_yosida():
    op = identity_operator()
    assert resolvent(op, 1.0, 2.0)[0] == pytest.approx(1.0)
    assert yosida(op, 1.0, 2.0)[0] == pytest.approx(1.0)


def test_comonotone_resolvent_beyond_threshold():
    op = scaled_identity(-0.5, 2)
    assert op.rho == pytest.approx(-2.0)
    p = resolvent(op, 8.0, [3.0, 0.0])
    assert p.tolist() == pytest.approx([-1.0, 0.0])
    with pytest.raises(ComonotoneStepError):
        resolvent(op, 1.0, [1.0, 1.0])
    with pytest.raises(ComonotoneStepError):
        resolvent(op, 4.0, [1.0, 1.0])


def test_resolvent_guards():
    op = abs_subdifferential()
    with pytest.raises(NonPositiveGamma):
        resolvent(op, 0.0, 1.0)
    with pytest.raises(OutsideDomain):
        resolvent(tan_subgradient(), 1.0, 0.5)


def test_tan_resolvent_solves_inclusion():
    op = tan_subgradient()
    for gamma, x in ((1.0, 2.0), (0.5, 1.2), (2.0, 5.0)):
        p = resolvent(op, gamma, x)[0]
        assert 0.0 < p < math.pi / 2
        assert p + gamma / math.cos(p) ** 2 == pytest.approx(x, abs=1e-7)


def test_resolvent_refuses_nan_step():
    with pytest.raises(NonPositiveGamma):
        resolvent(abs_subdifferential(), math.nan, 1.0)


def _tan_resolvent_200_steps(gamma: float, target: float) -> float:
    """The fixed-length bisection that the early stop must reproduce bit for bit."""
    a, b = 1e-15, math.pi / 2 - 1e-15
    for _ in range(200):
        mid = (a + b) / 2
        if mid + gamma * (1.0 / math.cos(mid) ** 2) <= target:
            a = mid
        else:
            b = mid
    return (a + b) / 2


def test_tan_resolvent_early_stop_is_bit_identical():
    rng = np.random.default_rng(11)
    solve = tan_subgradient().resolvent_fn
    for gamma in [*STANDARD_GAMMAS, *rng.uniform(1e-3, 5.0, 30).tolist()]:
        above = [math.nextafter(gamma, math.inf), gamma + 1e-12, gamma + 1e-6]
        for x in [*above, *(gamma + rng.uniform(1e-3, 10.0, 30)).tolist()]:
            assert solve(gamma, np.array([x]))[0] == _tan_resolvent_200_steps(gamma, x)


def test_iterative_fallback_matches_closed_form():
    ref = matrix_operator(np.array([[0.5]]))
    blind = matrix_operator(np.array([[0.5]]))
    blind.resolvent_fn = None
    blind.lipschitz = 0.5
    for x in (-3.0, 0.2, 7.0):
        want = resolvent(ref, 1.0, x)[0]
        assert resolvent(blind, 1.0, x)[0] == pytest.approx(want, abs=1e-8)
    blind.lipschitz = None
    with pytest.raises(NotAvailable):
        resolvent(blind, 1.0, 1.0)


def test_alpha_constant():
    assert _alpha_for(scaled_identity(-0.5, 2), 8.0) == pytest.approx(2.0 / 3.0)
    assert _alpha_for(abs_subdifferential(), 1.0) == pytest.approx(0.5)


def test_catalog_contents():
    assert sorted(CATALOG) == [
        "abs_subdiff",
        "box_normal_cone",
        "identity",
        "neg_half_identity",
        "psd_skew",
        "tan_subgradient",
    ]
    assert CATALOG["neg_half_identity"].gamma_grid == COMONOTONE_GAMMAS
    assert CATALOG["abs_subdiff"].gamma_grid == STANDARD_GAMMAS
    ops = build_catalog(seed=3)
    assert set(ops) == set(CATALOG)
    again = build_catalog(seed=3)
    x = np.full(ops["psd_skew"].dim, 0.7)
    assert np.allclose(ops["psd_skew"].selection(x), again["psd_skew"].selection(x))


def test_class_checks():
    rng = np.random.default_rng(0)
    ops = build_catalog(0)
    assert check_operator_class(ops["psd_skew"], "monotone", rng).passed
    assert check_operator_class(ops["abs_subdiff"], "monotone", rng).passed
    assert check_operator_class(ops["identity"], "accretive", rng, norm_p=1.0).passed
    neg = ops["neg_half_identity"]
    assert check_operator_class(neg, "comonotone", rng, rho=-2.0).passed
    tight = check_operator_class(neg, "comonotone", rng, rho=-1.9)
    assert not tight.passed and tight.violations > 0
    with pytest.raises(ValueError):
        check_operator_class(neg, "comonotone", rng)
    with pytest.raises(ValueError):
        check_operator_class(neg, "convex", rng)


def test_failing_report_names_its_worst_pair():
    op = build_catalog(0)["neg_half_identity"]
    rho = -1.9
    rep = check_operator_class(op, "comonotone", np.random.default_rng(11), samples=50, rho=rho)
    pairs = op.graph_samples(np.random.default_rng(11), 50, 5.0)
    slacks = [
        float((x - y) @ (u - v)) - rho * l2(u - v) ** 2
        for (x, u), (y, v) in zip(pairs, pairs[1:])
    ]
    worst = int(np.argmin(slacks))
    assert not rep.passed and rep.checks == 49
    assert rep.worst_slack == pytest.approx(slacks[worst], rel=1e-12)
    assert rep.witness == f"x={pairs[worst][0]}, y={pairs[worst + 1][0]}"


def test_report_fails_closed_on_nan():
    rep = CheckReport.from_slacks("probe", [0.5, math.nan], 1e-8, lambda i: f"sample {i}")
    assert rep.checks == 2 and rep.violations == 1
    assert rep.passed is False
    assert rep.witness == "sample 1"
    d = rep.as_dict()
    assert d["worst_slack"] is None
    json.dumps(d, allow_nan=False)


def test_inner_vs_norm_bridge():
    report = inner_vs_norm_check(np.random.default_rng(1), samples=300)
    assert report.passed and report.checks == 300


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_resolvent_property_suite(name):
    ops = build_catalog(0)
    op = ops[name]
    gammas = COMONOTONE_GAMMAS if (op.rho or 0) < 0 else STANDARD_GAMMAS
    reports = check_resolvent_properties(op, np.random.default_rng(2), gammas, samples=40)
    comonotone_only = (op.rho or 0) < 0
    expected = 5 if comonotone_only else 11
    assert len(reports) == expected
    for rep in reports.values():
        assert rep.passed, f"{name}: {rep.name} worst={rep.worst_slack} at {rep.witness}"
        assert rep.worst_slack >= -1e-8


def test_conical_form_is_tight_at_degree_limit():
    op = scaled_identity(-0.5, 2)
    reports = check_resolvent_properties(
        op, np.random.default_rng(5), COMONOTONE_GAMMAS, samples=60
    )
    assert abs(reports["conical_form"].worst_slack) < 1e-6


def test_report_as_dict():
    rng = np.random.default_rng(0)
    rep = check_operator_class(identity_operator(2), "monotone", rng, samples=20)
    d = rep.as_dict()
    assert d["passed"] is True and d["violations"] == 0 and d["checks"] == 19
    assert isinstance(d["worst_slack"], float)


def test_param_modulus_values():
    assert resolvent_param_modulus(1.0, 0, 3) == 3
    assert resolvent_param_modulus(1.0, 0, 0) == 0
    assert resolvent_param_modulus(4.0, 2, 5) == 9
    assert resolvent_param_modulus(0.5, 0, 2) == 2
    with pytest.raises(ValueError):
        resolvent_param_modulus(1.0, -1, 0)


def test_param_modulus_verification():
    op = abs_subdifferential()
    chk = verify_resolvent_param_modulus(op, 2.0, 1.2, 1.0, b=1.0, l_prime=0, k=2)
    assert chk.j == 2 and chk.premise_holds and chk.bound_holds
    assert chk.lhs == pytest.approx(0.2)
    far = verify_resolvent_param_modulus(op, 2.0, 3.0, 1.0, b=1.0, l_prime=0, k=2)
    assert not far.premise_holds and far.bound_holds


def test_param_modulus_preconditions():
    op = abs_subdifferential()
    with pytest.raises(PreconditionViolated):
        verify_resolvent_param_modulus(op, 2.0, 1.0, 0.4, b=1.0, l_prime=0, k=1)
    with pytest.raises(PreconditionViolated):
        verify_resolvent_param_modulus(op, 10.0, 1.0, 2.0, b=1.0, l_prime=0, k=1)


def test_param_modulus_sweep_on_soft_threshold():
    op = abs_subdifferential()
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(0, 5))
        l_prime = int(rng.integers(0, 3))
        b = float(rng.choice([1.0, 2.0, 4.0]))
        gamma_prime = 2.0**-l_prime + rng.random() * 2
        x = float(rng.uniform(-1, 1)) * (b + gamma_prime)
        j = resolvent_param_modulus(b, l_prime, k)
        gamma = gamma_prime + (rng.random() * 2 - 1) * 2.0**-j
        if gamma <= 0:
            continue
        try:
            chk = verify_resolvent_param_modulus(op, x, gamma, gamma_prime, b, l_prime, k)
        except PreconditionViolated:
            continue
        assert chk.bound_holds


def test_minimal_norm_selection_values():
    ab = abs_subdifferential()
    assert minimal_norm_selection(ab, 0.0)[0] == 0.0
    assert minimal_norm_selection(ab, 2.0)[0] == 1.0
    box = box_indicator([-1.0, -1.0], [1.0, 1.0])
    assert minimal_norm_selection(box, [1.0, 1.0]).tolist() == [0.0, 0.0]
    lin = matrix_operator(np.array([[2.0, 0.0], [0.0, 1.0]]))
    assert minimal_norm_selection(lin, [1.0, 3.0]).tolist() == [2.0, 3.0]


@pytest.mark.parametrize("name", ["abs_subdiff", "box_normal_cone", "psd_skew"])
def test_min_selection_reports(name):
    opsmap = build_catalog(0)
    reports = check_minimal_norm_selection(opsmap[name], np.random.default_rng(3), samples=60)
    assert set(reports) == {
        "min_selection_membership",
        "min_selection_variational",
        "min_selection_uniqueness",
    }
    for rep in reports.values():
        assert rep.passed, f"{name}: {rep.name} at {rep.witness}"


def test_uc_modulus_lipschitz_passes():
    op = matrix_operator(2.0 * np.eye(2))
    rep = uc_modulus_check(op, lambda k: 2 * k + 2, np.random.default_rng(4), samples=200)
    assert rep.passed


def test_uc_modulus_jump_fails():
    rep = uc_modulus_check(
        abs_subdifferential(), lambda k: k, np.random.default_rng(4), samples=400
    )
    assert not rep.passed


def test_range_condition_total_operator():
    op = identity_operator(2)
    reports = range_condition_check(
        op, lambda n: 1.0, lambda n: 1, bound=4.0, center=np.zeros(2),
        rng=np.random.default_rng(6),
    )
    assert set(reports) == {
        "range_split_membership",
        "range_split_in_ball",
        "range_split_w_bound",
    }
    for rep in reports.values():
        assert rep.passed


def test_range_condition_off_center_drops_w_bound():
    op = abs_subdifferential()
    reports = range_condition_check(
        op, lambda n: 1.0 / (n + 1), lambda n: n + 1, bound=2.0, center=1.0,
        rng=np.random.default_rng(6),
    )
    assert "range_split_w_bound" not in reports
    assert all(rep.passed for rep in reports.values())


def test_range_condition_preconditions():
    op = identity_operator(1)
    rng = np.random.default_rng(0)
    with pytest.raises(PreconditionViolated):
        range_condition_check(op, lambda n: 1.0, lambda n: 0, 1.0, 0.0, rng)
    with pytest.raises(NonPositiveGamma):
        range_condition_check(op, lambda n: 0.0, lambda n: 1, 1.0, 0.0, rng)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_graph_closedness(name):
    opsmap = build_catalog(0)
    rep = graph_closedness_check(opsmap[name], np.random.default_rng(8))
    assert rep.passed, f"{name}: {rep.witness}"


def test_yosida_norm_below_selection_norm():
    # the approximant never beats the minimal section of a monotone instance
    rng = np.random.default_rng(9)
    op = abs_subdifferential()
    for _ in range(100):
        x = float(rng.uniform(-4, 4))
        for gamma in STANDARD_GAMMAS:
            ax = l2(yosida(op, gamma, x))
            assert ax <= l2(op.minimal_norm(np.array([x]))) + 1e-9
