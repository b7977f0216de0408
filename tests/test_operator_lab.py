import json
import math

import numpy as np
import pytest

from prooflab.operator_lab import (
    CATALOG,
    COMONOTONE_GAMMAS,
    CheckReport,
    ComonotoneStepError,
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
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
    identity_operator,
    inner_vs_norm_check,
    l2,
    matrix_operator,
    minimal_norm_selection,
    one_sided_excess,
    range_condition_check,
    resolve_rows,
    resolvent,
    resolvent_param_modulus,
    scaled_identity,
    tan_subgradient,
    uc_modulus_check,
    verify_resolvent_param_modulus,
    yosida,
)
from prooflab.operator_lab import _alpha_for, _distance, _min_norm, _norms, _selection


def box(lo, hi):
    """One value box row per pair of rows."""
    return np.array(lo, dtype=float, ndmin=2), np.array(hi, dtype=float, ndmin=2)


def test_as_vector_shapes():
    assert as_vector(3.5, 1).tolist() == [3.5]
    assert as_vector([1, 2], 2).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        as_vector([1, 2], 3)
    for bad in (math.nan, [1.0, math.inf], [-math.inf, 0.0]):
        with pytest.raises(NonFiniteInput):
            as_vector(bad, np.size(bad))


def test_finite_points_queries():
    # a single value v is the box [v, v]: its distance is _norms(v - U) bit for bit, and
    # its least-norm point and its selection are v itself
    rng = np.random.default_rng(3)
    v = rng.normal(size=(200, 4)) * 10.0 ** rng.integers(-8, 8, size=(200, 1))
    U = v + rng.normal(size=v.shape) * 10.0 ** rng.integers(-12, 2, size=(200, 1))
    assert _distance(v, v, U).tobytes() == _norms(v - U).tobytes()
    assert _distance(v, v.copy(), U).tobytes() == _norms(v - U).tobytes()  # the general path
    assert _min_norm(v, v).tobytes() == v.tobytes()
    assert _selection(v, v).tobytes() == v.tobytes()


def test_interval_box_queries():
    lo, hi = box([[0.0, -math.inf]], [[1.0, math.inf]])
    assert _distance(lo, hi, np.array([[0.5, 100.0]]))[0] == 0.0
    assert _distance(lo, hi, np.array([[3.0, 7.0]]))[0] == pytest.approx(2.0)
    assert _min_norm(lo, hi).tolist() == [[0.0, 0.0]]
    assert _selection(lo, hi).tolist() == [[0.0, 0.0]]
    lo, hi = box([[-math.inf, 2.0]], [[-1.0, math.inf]])
    assert _min_norm(lo, hi).tolist() == [[-1.0, 2.0]]
    assert _selection(lo, hi).tolist() == [[-1.0, 2.0]]


def test_value_box_infinite_values():
    # an infinite coordinate is inside on an infinite face and outside on a finite one
    lo, hi = box([[0.0, -math.inf], [0.0, -1.0]], [[math.inf, 0.0], [1.0, math.inf]])
    inside = np.array([[math.inf, -math.inf], [0.5, math.inf]])
    with np.errstate(invalid="ignore"):  # inf - inf, which the distance drops
        assert _distance(lo, hi, inside).tolist() == [0.0, 0.0]
    outside = np.array([[-math.inf, 0.0], [math.inf, 0.0]])
    assert _distance(lo, hi, outside).tolist() == [math.inf, math.inf]


def test_value_box_nan_row_fails_every_tolerance():
    lo, hi = box([[0.0, -math.inf], [math.nan, math.nan]], [[1.0, math.inf], [math.nan, math.nan]])
    U = np.array([[0.5, 0.0], [0.0, 0.0]])
    assert not (_distance(lo, hi, U) <= math.inf)[1]
    U[0, 1] = math.nan
    assert not (_distance(lo, hi, U) <= math.inf).any()


def test_one_sided_excess_points():
    assert one_sided_excess(box(0.0, 0.0), box(0.0, 0.0)).tolist() == [0.0]
    assert one_sided_excess(box(0.0, 0.0), box(1.0, 1.0)).tolist() == [1.0]
    points = [[0.0, 0.0], [3.0, 4.0]]
    assert one_sided_excess(box(points, points), box(points[::-1], points[::-1])).tolist() == [
        5.0, 5.0
    ]


def test_one_sided_excess_boxes():
    a, b = box(0.0, 2.0), box(0.0, 1.0)
    assert one_sided_excess(a, b).tolist() == [1.0]
    assert one_sided_excess(b, a).tolist() == [0.0]
    inf_box = box(0.0, math.inf)
    assert one_sided_excess(inf_box, b).tolist() == [math.inf]
    assert one_sided_excess(b, inf_box).tolist() == [0.0]
    # shared infinite faces add nothing, one face short of the other adds infinity
    ray = box([[0.0, -math.inf]], [[math.inf, 0.0]])
    line = box([[-math.inf, -math.inf]], [[math.inf, math.inf]])
    assert one_sided_excess(ray, line).tolist() == [0.0]
    assert one_sided_excess(line, ray).tolist() == [math.inf]
    assert one_sided_excess(line, line).tolist() == [0.0]
    nan_row = box([[math.nan, math.nan]], [[math.nan, math.nan]])
    assert np.isnan(one_sided_excess(nan_row, line)).all()
    assert np.isnan(one_sided_excess(line, nan_row)).all()


def test_one_sided_excess_interval_vs_points_midpoint():
    # the abs kink: the whole of [-1, 1] against one of its ends, and against its midpoint
    kink = abs_subdifferential().value_box(np.zeros((2, 1)))
    assert one_sided_excess(kink, box([[1.0], [0.0]], [[1.0], [0.0]])).tolist() == [2.0, 1.0]
    assert one_sided_excess(box([[1.0], [0.0]], [[1.0], [0.0]]), kink).tolist() == [0.0, 0.0]


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
    pairs = []
    for gamma in [*STANDARD_GAMMAS, *rng.uniform(1e-3, 5.0, 30).tolist()]:
        above = [math.nextafter(gamma, math.inf), gamma + 1e-12, gamma + 1e-6]
        pairs += [(gamma, x) for x in [*above, *(gamma + rng.uniform(1e-3, 10.0, 30)).tolist()]]
    gammas, xs = np.array(pairs).T
    assert len(pairs) == 35 * 33
    got = tan_subgradient().resolvent_fn(gammas, xs[:, None])[:, 0]
    assert got.tolist() == [_tan_resolvent_200_steps(gamma, x) for gamma, x in pairs]


def _mixed_batch(op, grid, rng, count=120):
    """Rows at step sizes cycling ``grid``, drawn from the cube (and so partly outside a
    partial resolvent domain) and from the instance's own domain sampler."""
    gammas = np.resize(np.asarray(grid, dtype=float), count)
    cube = rng.uniform(-5.0, 5.0, size=(count, op.dim))
    if op.domain_sampler is None:
        return gammas, cube
    inside = np.concatenate([op.domain_sampler(rng, 1, g, 5.0) for g in gammas])
    return gammas, np.where((np.arange(count) % 2 == 0)[:, None], cube, inside)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_batch_resolvent_matches_scalar_bit_for_bit(name):
    op = build_catalog(4)[name]
    gammas, X = _mixed_batch(op, CATALOG[name].gamma_grid, np.random.default_rng(5))
    got, values = resolve_rows(op, gammas, X)
    for gamma, x, p, u in zip(gammas, X, got, values):
        try:
            want = resolvent(op, gamma, x, with_value=True)
        except OutsideDomain:
            assert np.isnan(p).all() and np.isnan(u).all()
            continue
        assert (p.tobytes(), u.tobytes()) == (want[0].tobytes(), want[1].tobytes())
    if name == "tan_subgradient":
        assert 0 < np.isnan(got[:, 0]).sum() < len(got)
    else:
        assert not np.isnan(got).any()


def test_batch_refusals_name_the_first_bad_row():
    op = scaled_identity(-0.5, 2)
    X = np.ones((3, 2))
    with pytest.raises(ComonotoneStepError, match="gamma = 1.0"):
        resolve_rows(op, np.array([8.0, 1.0, -1.0]), X)
    with pytest.raises(NonPositiveGamma, match="gamma = -1.0"):
        resolve_rows(op, np.array([8.0, -1.0, 1.0]), X)
    with pytest.raises(NonPositiveGamma, match="gamma = nan"):
        resolve_rows(abs_subdifferential(), np.array([1.0, math.nan]), np.ones((2, 1)))
    with pytest.raises(DimensionMismatch):
        resolve_rows(op, np.array([8.0, 8.0]), X)
    assert resolve_rows(op, np.array([]), np.ones((0, 2)))[0].shape == (0, 2)


def _shrinks_too_far(op):
    """The soft threshold with a closed form that moves 1.01 * gamma instead of gamma."""
    op.resolvent_fn = lambda g, X: np.sign(X) * np.maximum(np.abs(X) - 1.01 * g[:, None], 0.0)
    return op


@pytest.mark.parametrize("gamma", [0.25, 1.0])
def test_wrong_closed_form_fails_closed(gamma):
    op = _shrinks_too_far(abs_subdifferential())
    with pytest.raises(NoConvergence):
        resolve_rows(op, np.full(3, gamma), np.array([[0.1], [3.0], [-0.2]]))
    with pytest.raises(NoConvergence):
        resolvent(op, gamma, 3.0)


def _reference_distance(name, p, u):
    """The distance from ``u`` to the value set of catalog instance ``name`` (built at
    seed 4) at ``p``, one row at a time in plain Python; None outside the domain."""
    if name in ("identity", "psd_skew", "neg_half_identity"):
        rng = np.random.default_rng(4)  # psd_skew's two draws, as its builder makes them
        c, s = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
        mat = {"identity": 1.0, "neg_half_identity": -0.5}.get(name, c @ c.T / 6 + (s - s.T) / 2)
        return l2(np.dot(mat, p) - u)
    if name == "abs_subdiff":
        return abs(u[0] - math.copysign(1.0, p[0])) if p[0] != 0 else max(abs(u[0]) - 1.0, 0.0)
    if name == "tan_subgradient":
        return abs(1.0 / math.cos(p[0]) ** 2 - u[0]) if 0.0 < p[0] < math.pi / 2 else None
    # the box [-1, 1]^3: zero inside, and on a face the ray pointing out of it
    gaps = []
    for pi, ui in zip(p, u):
        if abs(pi) > 1.0 + 1e-9:
            return None
        lo = -math.inf if abs(pi + 1.0) <= 1e-9 else 0.0
        hi = math.inf if abs(pi - 1.0) <= 1e-9 else 0.0
        gaps.append(max(ui - hi, lo - ui, 0.0))
    return math.sqrt(sum(g * g for g in gaps))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_member_rows_agrees_with_the_value_sets(name):
    # graph pairs (faces and kinks included), their mirror images (outside the domain of
    # tan, where tan' is even) and cube points, with values moved off by 0, 0.5, 2 or 50
    # times the tolerance; a per-row distance to the value set is the reference
    op, rng, tol = build_catalog(4)[name], np.random.default_rng(7), 1e-6
    P, U = map(np.array, zip(*op.graph_samples(rng, 200, 5.0)))
    P = np.concatenate([P, -P, rng.uniform(-5.0, 5.0, size=P.shape)])
    U = np.concatenate([U, U, U])
    step = rng.normal(size=U.shape)
    step /= np.linalg.norm(step, axis=1)[:, None]
    step *= rng.choice([0.0, 0.5, 2.0, 50.0], size=(len(U), 1)) * tol
    got = _distance(*op.value_box(P), U + step)
    want = [_reference_distance(name, p, u) for p, u in zip(P, U + step)]
    inside = np.array([w is not None for w in want])
    assert (np.isnan(got) == ~inside).all()
    assert got[inside] == pytest.approx([w for w in want if w is not None], rel=1e-9, abs=1e-12)
    member = got <= tol
    assert 0 < member.sum() < len(member)


def test_tolerance_covers_rounding_of_tiny_steps():
    # p rounds to x when gamma is far below ulp(x), so u = (x - p) / gamma is off by
    # about ulp(x) / gamma; that rounding must not read as a failed inclusion
    op = abs_subdifferential()
    gamma = 7.105427357601002e-15
    assert resolvent(op, gamma, 98.0)[0] == 98.0
    got, values = resolve_rows(op, np.array([gamma, 0.5]), np.array([[98.0], [-3.0]]))
    assert got.tolist() == [[98.0], [-2.5]]
    assert math.isnan(values[0, 0]) and values[1].tolist() == [-1.0]  # the first u is noise
    _, u = resolvent(op, gamma, 98.0, with_value=True)
    assert math.isnan(u[0])
    # in R^2 the allowance is the L2 norm of the coordinate spacings: here the miss is
    # 0.593, the max spacing over gamma 0.5 and their L2 norm 0.707
    x = np.full(2, 0.4194224417951077)
    p, u = resolvent(identity_operator(2), 2.0**-53, x, with_value=True)
    assert p.tolist() == x.tolist() and np.isnan(u).all()


def test_values_lost_to_rounding_are_refused():
    # p = x / (1 + 1e-300) rounds to x, so (x - p) / gamma reads 0 where the value is about x
    with pytest.raises(NoConvergence):
        yosida(identity_operator(2), 1e-300, [0.66, 0.96])
    with pytest.raises(NoConvergence):
        range_condition_check(identity_operator(1), lambda n: 1e-300, lambda n: 1000, 1.0, 0.5,
                              np.random.default_rng(0))


def test_iterative_fallback_matches_closed_form():
    ref = matrix_operator(np.array([[0.5]]))
    blind = matrix_operator(np.array([[0.5]]))
    blind.resolvent_fn = None
    blind.lipschitz = 0.5
    for x in (-3.0, 0.2, 7.0):
        want = resolvent(ref, 1.0, x)[0]
        assert resolvent(blind, 1.0, x)[0] == pytest.approx(want, abs=1e-8)
    gammas, X = np.full(4, 1.0), np.array([[-3.0], [0.2], [7.0], [1.5]])
    got, want = resolve_rows(blind, gammas, X), resolve_rows(ref, gammas, X)
    assert np.concatenate(got) == pytest.approx(np.concatenate(want), abs=1e-8)
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


def _range_condition_by_row(op, gamma_fn, alpha_fn, bound, center, rng, n_grid, samples, tol):
    """``range_condition_check`` one sample at a time, through the one-row API."""
    split, ball, wbound = [], [], []
    for n in n_grid:
        gamma = gamma_fn(n)
        for _ in range(samples):
            x = center + rng.uniform(-1, 1, size=op.dim) * bound / math.sqrt(op.dim)
            if not op.in_domain(x):
                continue
            try:
                z, w = resolvent(op, gamma, x, tol=tol, with_value=True)
            except OutsideDomain:
                split.append((-1.0, f"n={n}, x={x}: no split"))
                continue
            split.append((1.0, f"n={n}, x={x}"))
            ball.append((bound + tol - l2(z - center), f"n={n}, x={x}"))
            wbound.append((bound * 2.0 ** (alpha_fn(n) + 1) - l2(w), f"n={n}, x={x}"))
    named = {"range_split_membership": split, "range_split_in_ball": ball}
    if l2(center) == 0.0:
        named["range_split_w_bound"] = wbound
    return {
        name: CheckReport.from_slacks(name, [s for s, _ in rows], tol, lambda i, r=rows: r[i][1])
        for name, rows in named.items()
    }


@pytest.mark.parametrize("name, center, bound", [
    ("tan_subgradient", [1.0], 0.9),  # points outside the resolvent domain: no split
    ("box_normal_cone", [0.0, 0.0, 0.0], 2.0),  # points outside the domain are skipped
    ("abs_subdiff", [0.0], 3.0),
])
def test_range_condition_matches_a_check_by_row(name, center, bound):
    op = build_catalog(0)[name]
    args = (lambda n: 2.0 ** -n, lambda n: n + 1, bound, np.array(center))
    got = range_condition_check(op, *args, np.random.default_rng(1), samples=40, tol=1e-8)
    n_grid = (0, 1, 2, 3, 5, 8)
    want = _range_condition_by_row(op, *args, np.random.default_rng(1), n_grid, 40, 1e-8)
    assert {k: r.as_dict() for k, r in got.items()} == {k: r.as_dict() for k, r in want.items()}
    assert any(not r.passed for r in want.values()) or name != "tan_subgradient"


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


def test_graph_closedness_catches_a_planted_non_closed_operator():
    # the sign with the value {0} at 0: sequences tending to 0 keep the value 1 or -1
    op = abs_subdifferential()
    op.value_box = lambda P: (np.sign(P),) * 2
    rep = graph_closedness_check(op, np.random.default_rng(8))
    assert not rep.passed and rep.witness == "x=[0.]"
    assert 0 < rep.violations < rep.checks


def test_yosida_norm_below_selection_norm():
    # the approximant never beats the minimal section of a monotone instance
    rng = np.random.default_rng(9)
    op = abs_subdifferential()
    for _ in range(100):
        x = float(rng.uniform(-4, 4))
        for gamma in STANDARD_GAMMAS:
            ax = l2(yosida(op, gamma, x))
            assert ax <= l2(op.minimal_norm(np.array([x]))) + 1e-9
