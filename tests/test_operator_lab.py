import dataclasses
import functools
import json
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prooflab.operator_lab import (
    CATALOG,
    CHECK_GROUPS,
    COMONOTONE_GAMMAS,
    CheckReport,
    ComonotoneStepError,
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    NonPositiveGamma,
    OutsideDomain,
    PreconditionViolated,
    STANDARD_GAMMAS,
    SetValuedOperator,
    abs_subdifferential,
    as_vector,
    box_indicator,
    build_catalog,
    check_group,
    check_minimal_norm_selection,
    check_operator_class,
    check_resolvent_properties,
    clamp_tilde,
    graph_closedness_check,
    identity_operator,
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
from prooflab.cli import INPUT_ERRORS
from prooflab.operator_lab import (
    _TAN_LOCKSTEP_ROWS,
    _alpha_for,
    _distance,
    _floor,
    _min_norm,
    _norms,
    _selection,
)


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
    for radius in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            clamp_tilde([3.0, 4.0], radius)


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


def _tan_resolvent_by_row(gamma: float, target: float) -> float:
    """The scalar bisection, one row at a time: Python floats and ``math.cos``."""
    a, b = 1e-15, math.pi / 2 - 1e-15
    for _ in range(200):
        mid = (a + b) / 2
        if mid in (a, b):
            return mid
        if mid + gamma * (1.0 / math.cos(mid) ** 2) <= target:
            a = mid
        else:
            b = mid
    return (a + b) / 2


def _tan_corpus(rng, count):
    """``count`` rows of ``(gamma, x)`` at step sizes from 1e-12 to 16, in three equal
    parts: ``x`` within a few ulps to 1e-6 relative of ``gamma`` (a root near the bracket's
    left end, 1e-15), ``x`` up to 1e12 (a root near pi/2), and ``x - gamma`` up to 10."""
    gammas = 10.0 ** rng.uniform(-12.0, math.log10(16.0), count)
    near, far, mid = np.array_split(np.arange(count), 3)
    xs = np.empty(count)
    xs[near] = gammas[near] * (1.0 + 10.0 ** rng.uniform(-16.0, -6.0, len(near)))
    xs[near[::7]] = np.nextafter(gammas[near[::7]], math.inf)
    xs[far] = gammas[far] + 10.0 ** rng.uniform(2.0, 12.0, len(far))
    xs[mid] = gammas[mid] + rng.uniform(1e-3, 10.0, len(mid))
    return gammas, np.maximum(xs, np.nextafter(gammas, math.inf))  # inside the domain


@functools.cache
def _tan_corpus_solved():
    """The 102,000-row corpus and its reference roots, computed once for the tests."""
    gammas, xs = _tan_corpus(np.random.default_rng(23), 102_000)
    return gammas, xs, np.array([*map(_tan_resolvent_by_row, gammas.tolist(), xs.tolist())])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tan_lockstep_bisection_matches_the_rows_bit_for_bit():
    resolvent_fn = tan_subgradient().resolvent_fn
    gammas, xs, want = _tan_corpus_solved()
    assert want.min() < 1e-12 and want.max() > math.pi / 2 - 1e-9  # both ends of the bracket
    assert resolvent_fn(gammas, xs[:, None])[:, 0].tolist() == want.tolist()
    # the two sides of the cutoff, row batches and lockstep batches
    for size in (_TAN_LOCKSTEP_ROWS - 1, _TAN_LOCKSTEP_ROWS):
        for start in range(0, 40 * size, size):
            rows = slice(start, start + size)
            assert resolvent_fn(gammas[rows], xs[rows, None])[:, 0].tolist() == want[rows].tolist()
    # rows outside the resolvent domain among rows of the last part that the kernel verifies
    # (gamma >= 1e-6): it hands the rest on as a smaller batch, still a lockstep one
    rows = np.flatnonzero(gammas >= 1e-6)[-3 * _TAN_LOCKSTEP_ROWS :]
    outside = np.arange(3 * _TAN_LOCKSTEP_ROWS) % 3 == 0
    mixed = np.where(outside, gammas[rows] * 0.5, xs[rows])
    P = resolve_rows(tan_subgradient(), gammas[rows], mixed[:, None])[0][:, 0]
    assert np.isnan(P[outside]).all() and (~outside).sum() >= _TAN_LOCKSTEP_ROWS
    assert P[~outside].tolist() == want[rows][~outside].tolist()


def _tan_rows(gammas, xs, size, singles=False):
    """``tan_subgradient``'s resolvents of the rows, in calls of ``size`` rows; with
    ``singles``, every other block of ``size`` rows goes one row a call."""
    resolvent_fn = tan_subgradient().resolvent_fn
    assert size < _TAN_LOCKSTEP_ROWS  # each call bisects its rows one at a time
    calls = []
    for block, start in enumerate(range(0, len(gammas), size)):
        end = min(start + size, len(gammas))
        calls += [(i, i + 1) for i in range(start, end)] if singles and block % 2 else [(start, end)]
    return [p for start, end in calls
            for p in resolvent_fn(gammas[start:end], xs[start:end, None])[:, 0].tolist()]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tan_predicted_bisection_matches_the_reference_bit_for_bit():
    # the per-row bisection decides the midpoints far from a Newton root without its float
    # predicate; on every row it must still end where the plain bisection does, in calls of
    # one row and of the most rows the per-row path takes
    gammas, xs, want = _tan_corpus_solved()
    assert _tan_rows(gammas, xs, _TAN_LOCKSTEP_ROWS - 1, singles=True) == want.tolist()
    # adversarial rows: x is the predicate's own sum at a random p, or a float next to it,
    # so the predicate flips within an ulp of p; p near both ends of the bracket and between
    rng, count, top = np.random.default_rng(29), 16_667, math.pi / 2 - 1e-15
    p = np.concatenate([10.0 ** rng.uniform(-15.0, -1.0, count // 4),
                        top - 10.0 ** rng.uniform(-15.0, -1.0, count // 4)])
    p = np.concatenate([p, rng.uniform(1e-15, top, count - len(p))]).tolist()
    g = (10.0 ** rng.uniform(-12.0, 3.0, count)).tolist()
    sums = [q + gamma * (1.0 / math.cos(q) ** 2) for q, gamma in zip(p, g)]
    adversarial = [(gamma, y) for gamma, x in zip(g, sums)
                   for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
    assert len(adversarial) >= 50_000
    gammas, xs = np.array(adversarial).T
    assert _tan_rows(gammas, xs, _TAN_LOCKSTEP_ROWS - 1) == [
        *map(_tan_resolvent_by_row, gammas.tolist(), xs.tolist())]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tan_bisection_without_a_root_is_the_plain_one():
    # x <= gamma, x = inf or NaN (and gamma <= 0): no root to predict from, today's loop
    rows = [(gamma, x) for gamma in (1e-12, 0.25, 4.0, 1e3)
            for x in (gamma, math.nextafter(gamma, -math.inf), 0.0, -1.0, -math.inf, math.inf,
                      math.nan)]
    rows += [(gamma, x) for gamma in (0.0, -0.0, -1.0, math.nan) for x in (0.5, 2.0, math.nan)]
    gammas, xs = np.array(rows).T
    want = [*map(_tan_resolvent_by_row, gammas.tolist(), xs.tolist())]
    assert _tan_rows(gammas, xs, 1) == _tan_rows(gammas, xs, _TAN_LOCKSTEP_ROWS - 1) == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_tan_row_bisection_matches_the_reference_on_finite_rows(gamma, x):
    got = tan_subgradient().resolvent_fn(np.array([gamma]), np.array([[x]]))
    assert got.tolist() == [[_tan_resolvent_by_row(gamma, x)]]


@pytest.mark.parametrize("tol", [1e-13, 1e-14, 1e-15])
def test_tan_wrong_resolvent_fails_closed_at_small_tolerances(tol):
    # the box at p moved an ulp or two, which the kernel also accepts for tan's rounding,
    # does not cover a closed form that is 1% off
    op, rng = tan_subgradient(), np.random.default_rng(3)
    right = op.resolvent_fn
    op.resolvent_fn = lambda g, X: 0.99 * right(g, X)
    X = np.concatenate([op.domain_sampler(rng, 20, gamma, 5.0) for gamma in STANDARD_GAMMAS])
    gammas = np.repeat(STANDARD_GAMMAS, 20)
    with pytest.raises(NoConvergence):
        resolve_rows(op, gammas, X, tol)
    op.resolvent_fn = right
    assert np.isfinite(resolve_rows(op, gammas, X, tol)[0]).all()


def _planted(op, p):
    op.resolvent_fn = lambda gammas, X: np.full(X.shape, p)
    return op


@pytest.mark.parametrize("p", [5e-324, 1e-323, -5e-324, -1e-323])
def test_ulp_allowance_stops_at_a_kink(p):
    # p = 0 is the resolvent of |.| at x = 0.5, gamma = 1, with u = 0.5; a p one or two ulps
    # off 0 has the single value sign(p), and the kink's [-1, 1] next to it excuses nothing
    with pytest.raises(NoConvergence):
        resolve_rows(_planted(abs_subdifferential(), p), np.array([1.0]), np.array([[0.5]]))


@pytest.mark.parametrize("ulps", [1, 2])
def test_ulp_allowance_stops_at_a_face(ulps):
    # p an ulp or two inside the face band of [-1, 1] has the value 0 there; the outward ray
    # on the face next to it excuses no large outward u
    p = 1.0 - 1e-9  # box_indicator's upper face band starts here
    for _ in range(ulps):
        p = math.nextafter(p, 0.0)
    op = _planted(box_indicator([-1.0], [1.0]), p)
    with pytest.raises(NoConvergence):
        resolve_rows(op, np.array([1.0]), np.array([[p + 5.0]]))


def _kernel_outcome(op, gammas, X):
    """Row 0 of a ``resolve_rows`` call as bytes, or the class and message it raised."""
    try:
        P, U = resolve_rows(op, gammas, X)
    except ValueError as exc:
        return type(exc), str(exc)
    return P[0].tobytes(), U[0].tobytes()


@pytest.mark.parametrize("gamma", [*STANDARD_GAMMAS, 1e-300, 1.1e-16, 1e3, 1e307, 1e308])
@pytest.mark.parametrize("name", ["identity", "psd_skew"])
def test_matrix_one_row_solve_is_the_batched_row_bit_for_bit(name, gamma):
    # a one-row call solves a 2-D system; it must give the batched call's row, and at 1e308,
    # where I + gamma A overflows on psd_skew, the same NaN and refusal, neither announced
    op = build_catalog(0)[name]
    X = np.random.default_rng(31).uniform(-5.0, 5.0, size=(4, op.dim))
    gammas = np.array([gamma, 0.5, gamma, 2.0])

    def solved(g, rows):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            P = op.resolvent_fn(g, rows)
        return P.tobytes(), {str(w.message) for w in caught}

    batch, batch_warnings = solved(gammas, X)
    size = len(batch) // len(X)
    for j in range(len(X)):
        row, row_warnings = solved(gammas[j : j + 1], X[j : j + 1])
        assert row == batch[j * size : (j + 1) * size]
        assert row_warnings == batch_warnings == set()
    if gamma == 1e308 and name == "psd_skew":
        assert np.isnan(np.frombuffer(batch, dtype=float)[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        one = _kernel_outcome(op, gammas[:1], X[:1])
        assert one == _kernel_outcome(op, gammas, X)
    assert (one[0] is NonFiniteInput) == (gamma == 1e308 and name == "psd_skew")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", [1, 2])
def test_an_overflowing_matrix_step_fails_closed_unannounced(rows):
    # I + gamma A passes the float range at gamma = 1.7e308: the kernel refuses the NaN rows
    # that gesv makes of it, and numpy's overflow warning on the way says nothing more
    op = build_catalog(0)["psd_skew"]
    with pytest.raises(NonFiniteInput, match="float range"):
        resolve_rows(op, np.full(rows, 1.7e308), np.ones((rows, 6)))


def _psd_skew_matrix(seed):
    """The matrix of catalog instance ``psd_skew`` built at ``seed``, as its builder draws it."""
    rng = np.random.default_rng(seed)
    c, s = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    return c @ c.T / 6 + (s - s.T) / 2


def test_a_kept_matrix_step_is_a_fresh_solve_bit_for_bit():
    # a one-row step keeps I + gamma A while gamma repeats; each gamma change replaces it
    op, mat = build_catalog(0)["psd_skew"], _psd_skew_matrix(0)
    x = np.array([1.0, 2.0, 3.0, -1.0, 0.0, 5.0])
    for gamma in (0.5, 0.25, 0.5, 0.5, 1e-9):
        p = resolvent(op, gamma, x)
        assert p.tobytes() == np.linalg.solve(np.eye(6) + gamma * mat, x).tobytes()
        x = p


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


# Step sizes and coordinates of the row-independence fuzz: both ends of the float range,
# where a plain dot overflows or underflows, and the unit scale
_FUZZ_GAMMAS = (1e-300, 1e-160, 1e-17, 1e-9, 0.25, 1.0, 4.5, 8.0, 1e9, 1e154, 1e300)
_FUZZ_COORDS = (0.0, 1e-300, -1e-300, 1e-160, 0.3, -0.7, 1.0, 2.5, -4.0, 1e16, -1e16, 1e154,
                -1e154)


def _rows_outcome(op, gammas, X, tol):
    """A ``resolve_rows`` call as the bytes of ``P`` and ``U``, or the class and message of
    the input error it raised; any other exception propagates."""
    try:
        P, U = resolve_rows(op, gammas, X, tol)
    except INPUT_ERRORS as exc:
        return type(exc), str(exc)
    return P.tobytes(), U.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tol", [1e-8, 1e-200])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_each_row_is_resolved_as_if_alone(name, tol):
    # 150 seeded batches of 2 to 5 rows at step sizes the instance accepts: a batch gives each
    # row the P and U bytes of its one-row call, or raises what its first row failing alone
    # raises.  At 1e-200, a miss near 1e-170 squares to 0 in a plain dot (gamma 1e154 on the
    # unit scale), so only a rule read row by row keeps that row's U in every batch.
    op, rng = build_catalog(0)[name], np.random.default_rng(0)
    grid = np.array([g for g in _FUZZ_GAMMAS if g > _floor(op)])
    for _ in range(150):
        n = rng.integers(2, 6)
        gammas = rng.choice(grid, n)
        X = rng.choice(_FUZZ_COORDS, (n, op.dim)) * rng.choice([1.0, 1.0 + 2**-20], (n, op.dim))
        alone = [_rows_outcome(op, gammas[i : i + 1], X[i : i + 1], tol) for i in range(n)]
        failed = [out for out in alone if isinstance(out[0], type)]
        want = failed[0] if failed else tuple(map(b"".join, zip(*alone)))
        assert _rows_outcome(op, gammas, X, tol) == want


def test_a_miss_whose_plain_square_underflows_is_refused_alone_and_in_a_batch():
    # p = 1e-160 for x = 2e-160 + 1e-170 at gamma 1 misses the identity's value by 1e-170,
    # whose square is 0 in a plain dot, and no rounding of x or p covers it at tol 1e-200
    op, x = identity_operator(1), 2e-160 + 1e-170
    right = op.resolvent_fn
    op.resolvent_fn = lambda gammas, X: np.where(X == x, 1e-160, right(gammas, X))
    for X in ([[x]], [[x], [0.5]], [[0.5], [x]]):
        with pytest.raises(NoConvergence, match=re.escape(f"x = {np.array([x])}")):
            resolve_rows(op, np.ones(len(X)), np.array(X), 1e-200)
    assert resolve_rows(op, np.ones(1), np.array([[0.5]]), 1e-200)[0].tolist() == [[0.25]]


def test_an_infinite_value_is_refused():
    # u = (1e300 - p) / 1e-300 overflows, and tol * max(1, |u|) = inf would cover any miss
    with pytest.raises(NoConvergence, match="gamma = 1e-300"):
        resolvent(tan_subgradient(), 1e-300, 1e300, with_value=True)


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


@pytest.mark.parametrize("gamma", [0.25, 1.0, 1e-9])
def test_wrong_closed_form_fails_closed(gamma):
    op = _shrinks_too_far(abs_subdifferential())
    with pytest.raises(NoConvergence):
        resolve_rows(op, np.full(3, gamma), np.array([[0.1], [3.0], [-0.2]]))
    with pytest.raises(NoConvergence):
        resolvent(op, gamma, 3.0)


@pytest.mark.parametrize("gamma", [1e-6, 1e-9])
def test_wrong_matrix_solve_fails_closed_at_small_steps(gamma):
    # the allowance for a solve's rounding at small steps does not cover a 1% error in it
    rng = np.random.default_rng(0)
    c, s = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    mat = c @ c.T / 6 + (s - s.T) / 2
    op = matrix_operator(mat)
    op.resolvent_fn = lambda g, X: np.linalg.solve(np.eye(6) + 1.01 * g[:, None, None] * mat,
                                                   X[..., None])[..., 0]
    with pytest.raises(NoConvergence):
        resolve_rows(op, np.full(3, gamma), rng.uniform(-4.0, 4.0, size=(3, 6)))


@pytest.mark.parametrize("gamma", [1e-14, 1e-12, 1e-10, 1e-9])
def test_tan_rows_at_small_steps_are_accepted(gamma):
    # the root of tan's bisection can be two ulps off, which moves u by more than the
    # spacing of x over gamma alone; rows bisected one at a time and in lockstep
    op, rng = tan_subgradient(), np.random.default_rng(int(-math.log10(gamma)))
    X = op.domain_sampler(rng, 5 * (_TAN_LOCKSTEP_ROWS - 1), gamma, 1.5)
    lockstep, _ = resolve_rows(op, np.full(len(X), gamma), X)
    by_batch = [resolve_rows(op, np.full(len(b), gamma), b)[0] for b in np.split(X, 5)]
    assert len(by_batch[0]) == _TAN_LOCKSTEP_ROWS - 1
    assert np.concatenate(by_batch).tolist() == lockstep.tolist()


def _reference_distance(name, p, u):
    """The distance from ``u`` to the value set of catalog instance ``name`` (built at
    seed 4) at ``p``, one row at a time in plain Python; None outside the domain."""
    if name in ("identity", "psd_skew", "neg_half_identity"):
        mat = {"identity": 1.0, "neg_half_identity": -0.5}.get(name, _psd_skew_matrix(4))
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
    P, U = op.graph_sampler(rng, 200, 5.0)
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
    # at the ends of the float range the miss and the allowance are taken as scaled norms:
    # 1e154 squared overflows, and the spacing of 1e-300 squared underflows to 0
    for op, gamma, x, want in [(identity_operator(2), 1e-17, [1e154, 1e154], [1e154, 1e154]),
                               (abs_subdifferential(), 5e-324, [1e-300], [1e-300]),
                               (abs_subdifferential(), 1e-310, [1e-300], [1e-300 - 1e-310])]:
        assert resolvent(op, gamma, x).tolist() == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_acceptance_past_the_float_range_warns_nothing():
    # the kernel fails inf and NaN rows closed, so numpy's overflow and invalid warnings
    # on the way (u = x / 5e-324, inf - inf against the box) say nothing more
    assert resolvent(identity_operator(2), 1e-17, [1e154, 1e154]).tolist() == [1e154] * 2
    box = box_indicator([-1.0] * 3, [1.0] * 3)
    assert resolvent(box, 5e-324, [2.0, 0.0, 0.0]).tolist() == [1.0, 0.0, 0.0]


def test_values_lost_to_rounding_are_refused():
    # p = x / (1 + 1e-300) rounds to x, so (x - p) / gamma reads 0 where the value is about x
    with pytest.raises(NoConvergence):
        yosida(identity_operator(2), 1e-300, [0.66, 0.96])
    with pytest.raises(NoConvergence):
        range_condition_check(identity_operator(1), lambda n: 1e-300, lambda n: 1000, 1.0, 0.5,
                              np.random.default_rng(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_infinite_step_sizes_are_refused(name):
    op, gamma = CATALOG[name].build(np.random.default_rng(0)), CATALOG[name].gamma_grid[0]
    x = np.full(op.dim, 0.5)
    with pytest.raises(NonFiniteInput, match="step size"):
        resolve_rows(op, np.array([gamma, math.inf]), np.stack([x, x]))
    with pytest.raises(NonFiniteInput, match="step size"):
        resolvent(op, math.inf, x)
    with pytest.raises(NonFiniteInput, match="step size"):
        yosida(op, math.inf, x)


@pytest.mark.parametrize("name", ["identity", "psd_skew", "tan_subgradient"])
def test_yosida_suite_still_fails_wrong_values_at_tiny_steps(name):
    # a 1% error in the values is caught by the kernel's defining inclusion at 1e-9 (at
    # 1e-300, p rounds to x and no resolvent equation can tell the values apart)
    op = build_catalog(0)[name]
    wrong = dataclasses.replace(op, value_box=lambda P: tuple(1.01 * b for b in op.value_box(P)))
    with pytest.raises(NoConvergence):
        check_resolvent_properties(wrong, np.random.default_rng(1), (1e-9,), samples=60)


def test_an_operator_brings_its_resolvent_and_graph_sampler():
    # no fallback solves or samples an operator that lacks them
    with pytest.raises(TypeError, match="'resolvent_fn' and 'graph_sampler'"):
        SetValuedOperator("bare", 1, value_box=lambda P: (P, P))


@pytest.mark.parametrize("count", [0, 1, 50])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_graph_sampler_returns_value_rows(name, count):
    # (X, U) float rows, each U[i] a value at X[i]: at distance 0 from its value box
    op = build_catalog(2)[name]
    X, U = op.graph_sampler(np.random.default_rng(count), count, 5.0)
    for rows in (X, U):
        assert rows.dtype == np.float64 and rows.shape == (count, op.dim)
    assert _distance(*op.value_box(X), U).tolist() == [0.0] * count


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tan_value_is_the_per_row_derivative_bit_for_bit():
    hi = math.pi / 2
    rng = np.random.default_rng(17)
    above_zero = np.arange(1, 1001) * 5e-324  # the first subnormals past 0
    below_hi = hi - np.arange(1, 1001) * np.spacing(hi)
    p = np.concatenate([above_zero, below_hi, rng.uniform(0.0, hi, 98_000)])
    assert ((0.0 < p) & (p < hi)).all()
    lo_box, hi_box = tan_subgradient().value_box(p[:, None])
    want = [1.0 / math.cos(v) ** 2 for v in p.tolist()]
    assert lo_box[:, 0].tolist() == want and hi_box is lo_box
    outside = np.array([0.0, -5e-324, -1.0, hi, math.nextafter(hi, 2.0), 3.0, 1e300,
                        -math.inf, math.inf, math.nan])
    assert np.isnan(tan_subgradient().value_box(outside[:, None])[0]).all()


def test_kernel_refuses_rows_past_the_float_range():
    op = identity_operator(2)
    for bad in (math.inf, -math.inf, math.nan):
        X = np.array([[1.0, 2.0], [0.5, bad]])
        with pytest.raises(NonFiniteInput, match="finite coordinates"):
            resolve_rows(op, np.array([1.0, 1.0]), X)
    # I - gamma / 2 is -1e-10 at this step, so p = -1e310 = -inf and u = +inf: the value at
    # the float next to -inf is infinite, as is the tolerance, yet p passed the float range
    doubling = matrix_operator(np.array([[-0.5]]))  # rho unset: the step is allowed
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteInput, match="float range"):
        resolvent(doubling, 2.0000000002, [1e300])


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
    X, U = op.graph_sampler(np.random.default_rng(11), 50, 5.0)
    slacks = [
        float((X[i] - X[i + 1]) @ (U[i] - U[i + 1])) - rho * l2(U[i] - U[i + 1]) ** 2
        for i in range(49)
    ]
    worst = int(np.argmin(slacks))
    assert not rep.passed and rep.checks == 49
    assert rep.worst_slack == pytest.approx(slacks[worst], rel=1e-12)
    assert rep.witness == f"x={X[worst]}, y={X[worst + 1]}"


def test_report_fails_closed_on_nan():
    rep = CheckReport.from_slacks("probe", [0.5, math.nan], 1e-8, {"sample": np.arange(2)})
    assert rep.checks == 2 and rep.violations == 1
    assert rep.passed is False
    assert rep.witness == "sample=1"
    d = rep.as_dict()
    assert d["worst_slack"] is None
    json.dumps(d, allow_nan=False)


def test_report_counts_only_kept_samples():
    # rows 0 and 3 are worse than any kept row, but skipped: they count nowhere
    slacks = np.array([-9.0, -1.0, 0.5, -7.0, -3.0, -2.0])
    keep = np.array([False, True, True, False, True, True])
    show = {"gamma": np.arange(6) / 4, "lambda": np.arange(6) * 2, "x": np.eye(6)[:, :2]}
    rep = CheckReport.from_slacks("probe", slacks, 1e-8, show, keep)
    assert (rep.checks, rep.violations, rep.worst_slack) == (4, 3, -3.0)
    assert rep.witness == "gamma=1.0, lambda=8, x=[0. 0.]"  # row 4, the columns in order
    tols = np.array([0.0, 0.0, 0.0, 0.0, 5.0, 5.0])  # row-aligned tolerances absolve 4 and 5
    rep = CheckReport.from_slacks("probe", slacks, tols, show, keep)
    assert (rep.violations, rep.witness) == (1, "gamma=0.25, lambda=2, x=[0. 1.]")
    assert CheckReport.from_slacks("probe", slacks, 10.0, show, keep).passed


def test_report_fails_closed_on_a_kept_nan_and_on_no_kept_sample():
    slacks, show = np.array([1.0, math.nan, math.nan, 2.0]), {"i": np.arange(4)}
    rep = CheckReport.from_slacks("probe", slacks, 1e-8, show, np.array([True, False, True, True]))
    assert (rep.checks, rep.violations, rep.witness, rep.passed) == (3, 1, "i=2", False)
    ends = np.array([True, False, False, True])  # the NaN rows skipped: a pass
    assert CheckReport.from_slacks("probe", slacks, 1e-8, show, ends).passed
    none = CheckReport.from_slacks("probe", slacks, 1e-8, show, np.zeros(4, dtype=bool))
    assert (none.checks, none.violations, none.witness, none.passed) == (0, 0, "", False)
    assert none.as_dict()["worst_slack"] is None


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


@pytest.mark.parametrize("name, calls, rows", [
    # pairs, inclusion, minimality and the change points at lambda; the blends and the
    # change points at gamma
    ("identity", 2, 6750),
    ("neg_half_identity", 2, 1230),  # no minimality set, no change points at gamma
])
def test_suite_resolves_only_the_sets_its_checks_read(monkeypatch, name, calls, rows):
    from prooflab import operator_lab

    seen, kernel = [], operator_lab.resolve_rows

    def counted(op, gammas, X, tol=1e-8):
        seen.append(len(gammas))
        return kernel(op, gammas, X, tol)

    monkeypatch.setattr(operator_lab, "resolve_rows", counted)
    op = build_catalog(0)[name]
    reports = check_resolvent_properties(op, np.random.default_rng(1), CATALOG[name].gamma_grid,
                                         samples=300)
    assert all(rep.passed for rep in reports.values())
    assert (len(seen), sum(seen)) == (calls, rows)


def _suite_outcome(op, grid):
    """The class and message a resolvent suite at 60 samples raises, or ``None``."""
    try:
        check_resolvent_properties(op, np.random.default_rng(1), grid, samples=60)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name, grid", [
    ("planted", STANDARD_GAMMAS),  # every row misses: the first pair's x is reported
    ("planted", (1e308,)),  # pairs miss, and z + gamma * w, read later, passes the float range
    ("identity", (1e308,)), ("box_normal_cone", (1e308,)),
    ("identity", (1e-300, 1e300)), ("box_normal_cone", (1e-300, 1e300)),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_failing_suite_raises_what_a_call_per_request_raises(monkeypatch, name, grid):
    from prooflab import operator_lab

    def build():
        op = build_catalog(0)["identity" if name == "planted" else name]
        return _planted(op, 1.0) if name == "planted" else op

    merged = _suite_outcome(build(), grid)
    monkeypatch.setattr(operator_lab, "_resolve_round", lambda op, requests, tol: [
        operator_lab.resolve_rows(op, g, X, tol) for g, X in requests])
    assert merged is not None and merged == _suite_outcome(build(), grid)


def test_the_blends_at_gamma_raise_before_the_points_at_gamma(monkeypatch):
    # at 1e-300 and 1e300 the identity's first round passes, and a blend at gamma / lambda =
    # 1e600 is inf - inf, NaN: the blends raise, and the change points at gamma, which
    # displacement_bound reads, are never resolved
    from prooflab import operator_lab

    calls, kernel = [], operator_lab.resolve_rows

    def counted(op, gammas, X, tol=1e-8):
        calls.append(len(gammas))
        return kernel(op, gammas, X, tol)

    monkeypatch.setattr(operator_lab, "resolve_rows", counted)
    op, grid = build_catalog(0)["identity"], (1e-300, 1e300)
    assert _suite_outcome(op, grid) == (NonFiniteInput, "expected finite coordinates, got [nan nan]")
    points = 4 * 12  # the change points: 12 per pair of step sizes
    # the two rounds (x and y of 60 points, 15 inclusion and 15 minimality points per step
    # size, the change points at lambda; the blends and the change points at gamma), then the
    # blends alone, the first request of the second round
    assert calls == [2 * 60 + 2 * 15 + 2 * 15 + points, 2 * points, points]


class _Scripted:
    """A generator that yields the doubles of ``stream`` in order; its state is the
    position in the stream."""

    def __init__(self, stream):
        self.stream, self.bit_generator = stream, SimpleNamespace(state=0)

    def _take(self, n):
        at = self.bit_generator.state
        self.bit_generator.state = at + n
        return self.stream[at:at + n]

    def random(self, size=None):
        return self._take(1)[0] if size is None else np.reshape(self._take(np.prod(size)), size)

    def uniform(self, low, high):
        return low + (high - low) * self._take(1)[0]


def _sampled(sampler, rng, count, radius):
    """The samples as bytes and the generator's next draw, or the class that was raised."""
    try:
        X, U = sampler(rng, count, radius)
    except OverflowError:
        return OverflowError
    return X.tobytes(), U.tobytes(), X.shape, U.shape, rng.random()


def test_abs_graph_samples_in_one_draw_are_the_loop_s():
    from prooflab.operator_lab import _abs_graph_loop

    sampler = abs_subdifferential().graph_sampler
    for seed in range(40):
        for count in (0, 1, 2, 7, 60, 301):
            for radius in (5.0, 3, 0.5, 1e-300, 5e-324, 1e300, 1e308):
                got = _sampled(sampler, np.random.default_rng(seed), count, radius)
                want = _sampled(_abs_graph_loop, np.random.default_rng(seed), count, radius)
                assert got == want, (seed, count, radius)


def test_abs_graph_samples_replay_the_loop_on_a_point_at_zero():
    # row 0 is off the kink and its value maps to 0.0 at radius 5: the loop draws again (0.7
    # gives 2.0), so every later row takes the next double of the stream
    from prooflab.operator_lab import _abs_graph_loop

    stream = [0.9, 0.5, 0.7, 0.1, 0.3, 0.6, 0.25, 0.2]
    rng = _Scripted(stream)
    X, U = abs_subdifferential().graph_sampler(rng, 3, 5.0)
    loop = _Scripted(stream)
    want = _abs_graph_loop(loop, 3, 5.0)
    assert (X.tolist(), U.tolist()) == ([[2.0], [0.0], [-2.5]], [[1.0], [-0.4], [-1.0]])
    assert X.tobytes() + U.tobytes() == want[0].tobytes() + want[1].tobytes()
    assert rng.bit_generator.state == loop.bit_generator.state == 7


# Oracles that do not go through the operator's own value box: the suite checks an operator
# against itself, so 1.001 times the subdifferential of |.| passes every check of oplab
# verify, being monotone too.
def scaled_values(op, c):
    """``c * op``: its values, graph samples and resolvents, scaled consistently."""
    def graph_sampler(rng, count, radius):
        X, U = op.graph_sampler(rng, count, radius)
        return X, c * U

    return dataclasses.replace(
        op, name=f"{c}*{op.name}", value_box=lambda P: tuple(c * b for b in op.value_box(P)),
        graph_sampler=graph_sampler, resolvent_fn=lambda gammas, X: op.resolvent_fn(c * gammas, X))


def inverse_identity_residuals(op, inverse, gammas, X):
    """``|J_{gamma A}(x) + gamma * J_{A^-1 / gamma}(x / gamma) - x|`` for one-dimensional rows
    (Bauschke & Combettes, ch. 23), ``inverse`` standing for ``A^-1``."""
    P = resolve_rows(op, gammas, X)[0]
    Q = resolve_rows(inverse, 1 / gammas, X / gammas[:, None])[0]
    return np.abs(P + gammas[:, None] * Q - X)[:, 0]


def test_inverse_resolvent_identity_pairs_abs_subdiff_with_its_inverse():
    # the inverse of the subdifferential of |.| is the normal cone of [-1, 1]
    rng = np.random.default_rng(0)
    gammas = rng.choice([*STANDARD_GAMMAS, 1e-9, 1e3], 20_000)
    X = rng.uniform(-5.0, 5.0, size=(20_000, 1))
    miss = inverse_identity_residuals(abs_subdifferential(), box_indicator([-1.0], [1.0]),
                                      gammas, X)
    assert (miss <= np.spacing(abs(X[:, 0]))).all() and miss.max() == 4.440892098500626e-16


def test_inverse_resolvent_identity_catches_a_consistently_scaled_operator():
    planted = scaled_values(abs_subdifferential(), 1.001)
    for group, seed in zip(CHECK_GROUPS, np.random.SeedSequence(0).spawn(len(CHECK_GROUPS))):
        reports = check_group(planted, group, np.random.default_rng(seed))
        assert all(rep.passed for rep in reports), group
    rng = np.random.default_rng(0)
    gammas = rng.choice(STANDARD_GAMMAS, 1000)
    X = rng.uniform(-5.0, 5.0, size=(1000, 1))
    miss = inverse_identity_residuals(planted, box_indicator([-1.0], [1.0]), gammas, X)
    bad = miss > np.spacing(abs(X[:, 0]))
    # a row misses where |x| > gamma, by 0.001 * gamma once |x| > 1.001 * gamma
    assert bad.sum() == 684 and miss.max() == pytest.approx(0.004)


@pytest.mark.parametrize("gamma", [*STANDARD_GAMMAS, 1e-9, 1e3])
def test_abs_subdiff_meets_its_inverse_resolvent_identity_at_each_step(gamma):
    """At one step size, ``J_{gamma A}(x) + gamma J_{A^-1 / gamma}(x / gamma) = x`` within one
    coordinate spacing of ``x``, for A the subdifferential of ``|.|`` and ``A^-1`` the normal
    cone of [-1, 1] that ``box_indicator`` builds: a formula outside ``abs_subdiff``'s own
    ``value_box``.  Half the rows are on the unit scale and half on the scale of ``gamma``, so
    every step meets the kink, and 1.001 times the operator (in its value box, its graph
    sampler and its resolvent alike) misses there by ``0.001 * gamma``.

    ``neg_half`` has no such check: its inverse ``-2 I`` is hypomonotone, with a resolvent
    only at steps below the ceiling ``1/2``, and ``_floor`` bounds a step size from below only,
    so the lab refuses every step the identity would need
    (``test_neg_half_has_no_inverse_resolvent_to_check_against``)."""
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.uniform(-5.0, 5.0, (1000, 1)),
                        gamma * rng.uniform(-5.0, 5.0, (1000, 1))])
    gammas, spacing = np.full(len(X), gamma), np.spacing(abs(X[:, 0]))
    inverse = box_indicator([-1.0], [1.0])
    miss = inverse_identity_residuals(abs_subdifferential(), inverse, gammas, X)
    assert (miss <= spacing).all()
    planted = inverse_identity_residuals(scaled_values(abs_subdifferential(), 1.001), inverse,
                                         gammas, X)
    assert (planted > spacing).sum() >= 800 and planted.max() == pytest.approx(1e-3 * gamma)


def test_identity_resolves_as_gesv_on_one_plus_gamma_times_i():
    # division by 1 + gamma gives LAPACK's solve of (1 + gamma) I, bit for bit, batched and
    # one row at a time; only an exact -0.0 differs, which gesv turns into +0.0
    op, rng = identity_operator(2), np.random.default_rng(4)
    gammas = rng.choice([*STANDARD_GAMMAS, 1e-9, 1e3], 2000)
    X = rng.uniform(-5.0, 5.0, size=(2000, 2))
    want = [np.linalg.solve((1 + gamma) * np.eye(2), x) for gamma, x in zip(gammas, X)]
    assert resolve_rows(op, gammas, X)[0].tobytes() == np.array(want).tobytes()
    for gamma, x, p in zip(gammas, X, want):
        assert resolvent(op, gamma, x).tobytes() == p.tobytes()
    x = np.array([-0.0, -1.0])
    assert math.copysign(1.0, np.linalg.solve(1.5 * np.eye(2), x)[0]) == 1.0
    p = resolvent(op, 0.5, x)
    assert p.tolist() == [0.0, -2 / 3] and math.copysign(1.0, p[0]) == -1.0


def test_neg_half_has_no_inverse_resolvent_to_check_against():
    # the inverse of x -> -x/2 is x -> -2x, comonotone of degree -1/2, whose resolvent is
    # refused at every step at or below 1; neg_half itself needs steps past 4, whose
    # inverses 1/gamma lie below 1/4, so the identity above cannot be checked for it
    op, inverse = build_catalog(0)["neg_half_identity"], scaled_identity(-2.0, 2)
    X = np.ones((1, 2))
    for gamma in (*COMONOTONE_GAMMAS, 4.5, 1e3):
        resolve_rows(op, np.array([gamma]), X)
        with pytest.raises(ComonotoneStepError):
            resolve_rows(inverse, np.array([1 / gamma]), X / gamma)
    resolve_rows(inverse, np.array([1.5]), X)


def tan_equation_misses(op, gammas, X):
    """``|p + gamma (1 + tan(p)^2) - x|`` at the resolvents ``p`` of one-dimensional rows, over
    a bound on its rounding: the derivative of tan on (0, pi/2) written with ``1 + tan^2``, not
    ``1 / cos^2`` as ``tan_subgradient``'s value box has it.  The root may be two ulps off,
    each moving the left side by ``f'(p) = 1 + 2 gamma tan(p) (1 + tan(p)^2)``, and the sum
    rounds within 8 eps of ``x + gamma (1 + tan(p)^2)``; below 1 is within the bound."""
    p = resolve_rows(op, gammas, X)[0][:, 0]
    t, x = np.tan(p), X[:, 0]
    w = 1.0 + t * t
    bound = 2.0 * (1.0 + 2.0 * gammas * t * w) * np.spacing(p) + 2.0**-49 * (x + gammas * w)
    return np.abs(p + gammas * w - x) / bound


def _tan_equation_rows(count):
    """Step sizes and points of the tan oracle: at least ``1.01 gamma``, so 1.001 times the
    operator has a resolvent too, and up to ``1e8`` past it."""
    rng = np.random.default_rng(0)
    gammas = rng.choice([*STANDARD_GAMMAS, 1e-3, 1e3], count)
    radii = rng.choice([5.0, 1e3, 1e8], count)
    return gammas, (1.01 * gammas + rng.uniform(0.0, radii))[:, None]


def test_tan_resolvents_meet_their_equation_written_with_tan_squared():
    assert tan_equation_misses(tan_subgradient(), *_tan_equation_rows(3000)).max() <= 1.0


def test_tan_equation_catches_a_consistently_scaled_operator():
    # 1.001 times tan's derivative, in its value box, graph sampler and resolvent alike,
    # passes the kernel, whose test reads that value box, and misses the equation everywhere
    gammas, X = _tan_equation_rows(3000)
    planted = scaled_values(tan_subgradient(), 1.001)
    assert np.isfinite(resolve_rows(planted, gammas, X)[0]).all()
    assert tan_equation_misses(planted, gammas, X).min() > 1e3


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
                split.append((-1.0, n, x))
                continue
            split.append((1.0, n, x))
            ball.append((bound + tol - l2(z - center), n, x))
            wbound.append((bound * 2.0 ** (alpha_fn(n) + 1) - l2(w), n, x))
    named = {"range_split_membership": split, "range_split_in_ball": ball}
    if l2(center) == 0.0:
        named["range_split_w_bound"] = wbound
    return {
        name: CheckReport.from_slacks(name, [s for s, _, _ in rows], tol,
                                      {"n": [n for _, n, _ in rows], "x": [x for *_, x in rows]})
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
