import csv
import dataclasses
import importlib
import io
import json
import math
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from prooflab.algorithms import (
    _CHUNK_GROWTH,
    DIVERGENCE_GUARD,
    GammaSchedule,
    IterationTrace,
    ScheduleSyntaxError,
    TraceFormatError,
    moudafi_iteration,
    parse_gamma_schedule,
    proximal_point,
    trace_report,
)
from prooflab.operator_lab import (
    ComonotoneStepError,
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    OutsideDomain,
    abs_subdifferential,
    as_vector,
    box_indicator,
    build_catalog,
    identity_operator,
    l2,
    matrix_operator,
    range_condition_check,
    resolvent,
    scaled_identity,
    tan_subgradient,
    yosida,
)


def test_ppa_soft_threshold_frozen_run():
    trace = proximal_point(abs_subdifferential(), 3.5, "const:1.0", steps=50)
    assert [p[0] for p in trace.points] == pytest.approx([3.5, 2.5, 1.5, 0.5, 0.0])
    assert trace.gammas == [1.0, 1.0, 1.0, 1.0]
    assert trace.step_residuals == pytest.approx([1.0, 1.0, 1.0, 0.5])
    assert trace.value_residuals == pytest.approx([1.0, 1.0, 1.0, 0.5])
    assert trace.reached_zero_at == 4
    assert not trace.diverged and trace.outside_domain_at is None
    assert trace.final[0] == 0.0


def test_runs_refuse_a_non_finite_start():
    with pytest.raises(NonFiniteInput):
        proximal_point(abs_subdifferential(), math.nan)
    with pytest.raises(NonFiniteInput):
        moudafi_iteration(identity_operator(2), identity_operator(2), [math.inf, 0.0])


def test_ppa_detects_zero_at_start():
    trace = proximal_point(abs_subdifferential(), 0.0, "const:1.0", steps=10)
    assert trace.reached_zero_at == 0
    assert len(trace.points) == 1


def test_ppa_accepts_schedule_objects_and_numbers():
    op = abs_subdifferential()
    sched = parse_gamma_schedule("const:1.0")
    a = proximal_point(op, 3.5, sched, steps=4)
    b = proximal_point(op, 3.5, 1.0, steps=4)
    assert [p[0] for p in a.points] == [p[0] for p in b.points]
    with pytest.raises(ScheduleSyntaxError):
        proximal_point(op, 3.5, [1.0], steps=4)


def test_ppa_comonotone_oscillation():
    trace = proximal_point(scaled_identity(-0.5, 2), [1.0, 0.0], "const:8.0", steps=50)
    assert trace.points[1][0] == pytest.approx(-1.0 / 3.0)
    assert trace.points[2][0] == pytest.approx(1.0 / 9.0)
    assert trace.reached_zero_at == 19


def test_ppa_divergence_guard():
    # negative definite matrix with no declared degree: J doubles the iterate
    op = matrix_operator(np.array([[-0.5]]))
    trace = proximal_point(op, 3.5, "const:1.0", steps=100)
    assert trace.diverged
    assert trace.reached_zero_at is None
    assert abs(trace.final[0]) > DIVERGENCE_GUARD
    assert len(trace.points) < 50


def test_ppa_leaves_domain():
    trace = proximal_point(tan_subgradient(), 2.0, "const:1.0", steps=10)
    assert trace.outside_domain_at == 1
    assert len(trace.points) == 2


def test_moudafi_frozen_contraction():
    ident = identity_operator()
    trace = moudafi_iteration(ident, ident, 8.0, mu=1.0, lam=1.0, steps=3)
    assert [p[0] for p in trace.points] == pytest.approx([8.0, 6.0, 4.5, 3.375])
    assert trace.reached_zero_at is None


def test_moudafi_residual_scaling():
    ident = identity_operator()
    trace = moudafi_iteration(ident, ident, 4.0, mu=2.0, lam=1.0, steps=5)
    assert trace.value_residuals == pytest.approx(
        [r / 2.0 for r in trace.step_residuals]
    )


def test_moudafi_dimension_mismatch():
    with pytest.raises(ValueError):
        moudafi_iteration(identity_operator(1), identity_operator(2), 1.0)


@pytest.mark.parametrize("name", ["abs_subdiff", "box_normal_cone", "identity"])
def test_runs_refuse_an_infinite_step_size(name):
    # the refusal resolve_rows makes; schedule strings cannot name one, and a Moudafi run
    # refuses mu = inf before its shift x + mu * T(x) can pass the float range
    op = build_catalog(0)[name]
    x = np.full(op.dim, 2.0)
    inf_steps = GammaSchedule("inf", lambda n: math.inf, lambda n: 0)
    with pytest.raises(NonFiniteInput, match="step size"):
        proximal_point(op, x, inf_steps, steps=2)
    with pytest.raises(NonFiniteInput, match="step size"):
        moudafi_iteration(op, op, x, lam=math.inf, steps=2)
    with pytest.raises(NonFiniteInput, match="step size"):
        moudafi_iteration(op, op, x, mu=math.inf, steps=2)


def test_moudafi_stops_at_fixed_point():
    trace = moudafi_iteration(
        identity_operator(), identity_operator(), 1.0, steps=500, zero_tol=1e-9
    )
    assert trace.reached_zero_at is not None
    assert abs(trace.final[0]) < 1e-8


DOUBLING = matrix_operator(np.array([[-0.5]]))  # its resolvent at 1 doubles the point
# (run, (diverged, outside_domain_at, reached_zero_at, number of points))
STOP_REASONS = {
    "ppa-steps-run-out": (lambda: proximal_point(identity_operator(1), 8.0, steps=3),
                          (False, None, None, 4)),
    "ppa-zero-at-start": (lambda: proximal_point(abs_subdifferential(), 0.0, steps=3),
                          (False, None, 0, 1)),
    "ppa-zero": (lambda: proximal_point(abs_subdifferential(), 3.5, steps=50),
                 (False, None, 4, 5)),
    "ppa-diverged": (lambda: proximal_point(DOUBLING, 3.5, steps=100), (True, None, None, 40)),
    "ppa-outside-domain": (lambda: proximal_point(tan_subgradient(), 2.0, steps=10),
                           (False, 1, None, 2)),
    "moudafi-steps-run-out": (
        lambda: moudafi_iteration(identity_operator(1), identity_operator(1), 8.0, steps=3),
        (False, None, None, 4)),
    "moudafi-zero": (
        lambda: moudafi_iteration(identity_operator(1), identity_operator(1), 1.0, steps=500),
        (False, None, 69, 70)),
    "moudafi-no-zero-test-at-start": (  # its zero test reads the step, so it waits for one
        lambda: moudafi_iteration(identity_operator(1), identity_operator(1), 8.0,
                                  zero_tol=math.inf),
        (False, None, 1, 2)),
    "moudafi-diverged": (  # shift 1.5 x, then the doubling resolvent: x triples
        lambda: moudafi_iteration(identity_operator(1), DOUBLING, 1.0, steps=100),
        (True, None, None, 27)),
    "moudafi-outside-domain-of-t": (  # p + tan'(p) = 0.5 has no root
        lambda: moudafi_iteration(tan_subgradient(), identity_operator(1), 0.5, lam=1.0),
        (False, 0, None, 1)),
    "moudafi-outside-domain-of-s": (  # the second shifted point is below 1
        lambda: moudafi_iteration(identity_operator(1), tan_subgradient(), 1.2),
        (False, 1, None, 2)),
}


@pytest.mark.parametrize("case", STOP_REASONS)
def test_stop_reasons(case):
    run, expected = STOP_REASONS[case]
    trace = run()
    assert (trace.diverged, trace.outside_domain_at, trace.reached_zero_at,
            len(trace.points)) == expected
    assert len(trace.gammas) == len(trace.step_residuals) == len(trace.points) - 1
    if trace.params["zero_tol"] != math.inf:  # a parameter JSON cannot hold
        text = trace.to_json()
        assert IterationTrace.from_json(text).to_json() == text  # every stop reads back


def test_parse_schedules():
    const = parse_gamma_schedule("const:2.0")
    assert const(0) == const(7) == 2.0
    bare = parse_gamma_schedule("0.25")
    assert bare.spec == "const:0.25" and bare(3) == 0.25
    harm = parse_gamma_schedule("harmonic:3")
    assert harm(2) == pytest.approx(1.0)
    geom = parse_gamma_schedule("geom:1,0.5")
    assert geom(3) == pytest.approx(0.125)


@pytest.mark.parametrize(
    "spec",
    ["junk", "", "const:-1", "const:0", "const:1,2", "harmonic:-2",
     "geom:1.0", "geom:1,1.5", "geom:1,0", "wavelet:1", "const:x"],
)
def test_schedule_syntax_errors(spec):
    with pytest.raises(ScheduleSyntaxError):
        parse_gamma_schedule(spec)


@pytest.mark.parametrize("spec", ["const:1.0", "const:0.3", "harmonic:2", "geom:4,0.5"])
def test_positivity_modulus_is_strict(spec):
    sched = parse_gamma_schedule(spec)
    for n in range(60):
        assert 2.0 ** -sched.positivity_modulus(n) < sched(n)


def test_positivity_modulus_is_strict_on_subnormal_steps():
    geom = parse_gamma_schedule("geom:1,0.5")
    assert geom(1074) == 5e-324 and geom.positivity_modulus(1074) == 1075
    harm = parse_gamma_schedule("harmonic:1e-310")
    assert harm.positivity_modulus(0) == 1030
    for sched, n in ((geom, 1074), (harm, 0), (harm, 7)):
        assert 2.0 ** -sched.positivity_modulus(n) < sched(n)


def test_positivity_modulus_refuses_a_zero_step():
    geom = parse_gamma_schedule("geom:1,0.5")
    assert geom(1075) == 0.0
    with pytest.raises(ValueError, match=r"gamma\(1075\) = 0.0"):
        geom.positivity_modulus(1075)


@pytest.mark.parametrize("spec", ["const:1.0", "harmonic:1.0", "geom:1,0.5", "const:1e-6"])
@pytest.mark.parametrize("name", ["identity", "psd_skew", "abs_subdiff", "box_normal_cone"])
def test_schedule_moduli_feed_the_range_condition(name, spec):
    # a schedule's positivity modulus is the witness alpha_n that the bounded range
    # condition asks for along the schedule's step sizes
    op, sched = build_catalog(0)[name], parse_gamma_schedule(spec)
    reports = range_condition_check(op, sched, sched.positivity_modulus, 4.0, np.zeros(op.dim),
                                    np.random.default_rng(0))
    assert set(reports) == {"range_split_membership", "range_split_in_ball", "range_split_w_bound"}
    assert all(report.passed and report.checks for report in reports.values())


def test_positivity_modulus_matches_the_reciprocal_formula_on_normal_steps():
    # every power of two and both of its neighbours, where 1 / g stays finite
    for k in range(-1022, 1024):
        for g in (math.nextafter(2.0**k, 0), 2.0**k, math.nextafter(2.0**k, math.inf)):
            if sys.float_info.min <= g < math.inf:
                reciprocal = max(0, math.floor(math.log2(1.0 / g)) + 1)
                assert parse_gamma_schedule(f"const:{g!r}").positivity_modulus(0) == reciprocal


@pytest.mark.parametrize("spec, steps", [("geom:1,0.5", 1100), ("harmonic:5e-324", 2)])
def test_ppa_refuses_a_schedule_that_underflows(spec, steps):
    with pytest.raises(ScheduleSyntaxError) as exc:
        proximal_point(abs_subdifferential(), 100.0, spec, steps=steps)
    assert repr(spec) in str(exc.value) and f"steps = {steps}" in str(exc.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the run ignores its own overflows
def test_ppa_runs_a_schedule_down_to_its_least_subnormal_step():
    trace = proximal_point(abs_subdifferential(), 100.0, "geom:1,0.5", steps=1075)
    assert len(trace.points) == 1076 and trace.gammas[-1] == 5e-324


def test_schedule_call_matches_gamma():
    sched = GammaSchedule("const:1.5", lambda n: 1.5, lambda n: 0)
    assert sched(9) == sched.gamma(9) == 1.5


def test_json_roundtrip_is_byte_stable():
    trace = proximal_point(abs_subdifferential(), 3.5, "const:1.0", steps=50)
    text = trace.to_json()
    back = IterationTrace.from_json(text)
    assert back.to_json() == text
    assert [p[0] for p in back.points] == [p[0] for p in trace.points]
    assert back.reached_zero_at == 4
    payload = json.loads(text)
    assert list(payload) == sorted(payload)


def test_csv_roundtrip_exact():
    trace = proximal_point(abs_subdifferential(), math.pi, "harmonic:2", steps=7)
    text = trace.to_csv()
    lines = text.splitlines()
    assert lines[0] == "step,x0,gamma,step_residual,value_residual"
    assert lines[1].startswith("0,") and lines[1].endswith(",,,")
    back = IterationTrace.from_csv(text, algorithm=trace.algorithm, params=trace.params)
    assert all(a[0] == b[0] for a, b in zip(back.points, trace.points))
    assert back.gammas == trace.gammas
    assert back.step_residuals == trace.step_residuals
    assert back.to_csv() == text


def _csv_with(text: str, row: int, col: int, cell: str) -> str:
    lines = [line.split(",") for line in text.splitlines()]
    lines[row][col] = cell
    return "".join(",".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("row, col, cell, named", [
    (2, 1, "nan", "non-finite"),
    (2, 1, "inf", "non-finite"),
    (3, 2, "-1", "step size that is not positive"),
    (3, 2, "0", "step size that is not positive"),
    (3, 2, "1e400", "non-finite"),
    (2, 3, "-0.5", "negative residual"),
    (4, 2, "", "could not convert"),  # a blank cell on a step row
    (4, 4, "", "could not convert"),
    (1, 2, "1.0", "the start row holds a series value"),
    (3, 1, "x", "could not convert"),
])
def test_trace_csv_refuses_what_json_refuses(row, col, cell, named):
    trace = proximal_point(abs_subdifferential(), math.pi, "harmonic:2", steps=7)
    text = trace.to_csv()
    assert IterationTrace.from_csv(text).to_csv() == text
    with pytest.raises(TraceFormatError, match=named):
        IterationTrace.from_csv(_csv_with(text, row, col, cell))
    if row > 1 and col > 1 and cell:  # the same series value in a JSON trace
        data = json.loads(trace.to_json())
        data[["gammas", "step_residuals", "value_residuals"][col - 2]][row - 2] = float(cell)
        with pytest.raises(TraceFormatError, match=named):
            IterationTrace.from_json(json.dumps(data))


def test_trace_csv_refuses_a_malformed_table():
    text = proximal_point(identity_operator(2), [1.0, 2.0], steps=3).to_csv()
    header, start, step, *_ = text.splitlines(keepends=True)
    for bad in ["", header, header + start + step.replace(",", ",,", 1), header + step,
                header.replace("x1", "y1") + start + step, "a,b,c,d\n0,,,\n1,1,1,1\n",
                header + start + step[: step.rindex(",")] + "\n",
                '"' + "x" * 200_000]:  # a field past the csv module's limit
        with pytest.raises(TraceFormatError):
            IterationTrace.from_csv(bad)


def test_trace_report_fejer():
    trace = proximal_point(abs_subdifferential(), 3.5, "const:1.0", steps=50)
    report = trace_report(trace, zero=[0.0])
    assert report["fejer_monotone"] is True
    assert report["distance_to_zero"] == 0.0
    assert report["iterations"] == 4
    assert report["reached_zero_at"] == 4
    assert report["final_step_residual"] == pytest.approx(0.5)


def test_trace_report_flags_moving_away():
    trace = IterationTrace(algorithm="synthetic", params={})
    trace.push(np.array([0.5]))
    trace.push(np.array([2.0]), gamma=1.0, step_res=1.5, value_res=1.5)
    report = trace_report(trace, zero=[0.0])
    assert report["fejer_monotone"] is False


def test_trace_report_fails_a_distance_beyond_the_float_range():
    far = IterationTrace(algorithm="synthetic", params={})  # here the subtraction overflows
    far.push(np.array([1e308]))
    runs = [(proximal_point(abs_subdifferential(), 3.5, "const:1.0", steps=50), [1e308]),
            (far, [-1e308])]
    for trace, zero in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = trace_report(trace, zero=zero)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (report["distance_to_zero"], report["fejer_monotone"]) == (None, False)
        json.dumps(report, allow_nan=False)


def _l2_cases(rng):
    """Random vectors of dimension 1 to 8 at ordinary, huge and subnormal scales, each
    also as a strided view."""
    for d in range(1, 9):
        for scale in (1.0, 1e150, 1e154, 1e300, 1e-160, 1e-310, 5e-324):
            for _ in range(40):
                v = rng.standard_normal(d) * scale * 10.0 ** rng.integers(-3, 4, size=d)
                wide = np.zeros((d, 3))
                wide[:, 1] = v
                yield v
                yield wide[:, 1]


def test_l2_is_numpy_norm_bit_for_bit():
    with np.errstate(over="ignore", under="ignore"):
        for v in _l2_cases(np.random.default_rng(3)):
            got, want = l2(v), float(np.linalg.norm(v))
            assert type(got) is float and repr(got) == repr(want), v


def test_trace_report_distances_are_the_per_point_l2():
    rng = np.random.default_rng(4)
    for d in range(1, 9):
        for scale in (1.0, 1e-160, 1e150):
            trace = IterationTrace(algorithm="synthetic", params={})
            for _ in range(12):
                trace.push(rng.standard_normal(d) * scale)
            zero = rng.standard_normal(d) * scale
            dists = [l2(p - zero) for p in trace.points]
            for k in range(1, len(trace.points) + 1):  # each prefix reports its last distance
                prefix = dataclasses.replace(trace, points=trace.points[:k])
                assert repr(trace_report(prefix, zero=zero)["distance_to_zero"]) == repr(dists[k - 1])


def test_trace_report_without_zero():
    trace = proximal_point(abs_subdifferential(), 1.0, "const:1.0", steps=2)
    report = trace_report(trace)
    assert "fejer_monotone" not in report
    assert report["algorithm"] == "proximal_point"


@pytest.mark.parametrize("spec", ["const:nan", "const:inf", "harmonic:inf", "geom:inf,0.5", "nan"])
def test_schedule_rejects_non_finite_arguments(spec):
    with pytest.raises(ScheduleSyntaxError):
        parse_gamma_schedule(spec)


def test_trace_json_refuses_non_finite_numbers():
    trace = IterationTrace(algorithm="synthetic", params={})
    trace.push(np.array([math.inf]))
    with pytest.raises(ValueError):
        trace.to_json()
    good = json.loads(proximal_point(abs_subdifferential(), 3.5, steps=5).to_json())
    broken = [{"points": [[1.0], [1.0, 2.0]]}, {"points": []}, {"gammas": ["x"]}]
    for bad in ['{"points": [[NaN]]}', "[]", "{", *(json.dumps({**good, **b}) for b in broken)]:
        with pytest.raises(TraceFormatError):
            IterationTrace.from_json(bad)


@pytest.mark.parametrize("name, value, named", [
    ("points", ["2"], "points holds '2', which is not a JSON number"),
    ("points", [True], "points holds True"),  # bool is a subclass of int, and no number
    ("gammas", "1.5", "gammas holds '1.5'"),
    ("step_residuals", False, "step_residuals holds False"),
    ("value_residuals", None, "value_residuals holds None"),
    ("points", [1], None),  # an integer is a JSON number
    ("gammas", 1, None),
])
def test_trace_json_accepts_only_numbers(name, value, named):
    data = json.loads(proximal_point(abs_subdifferential(), 3.5, steps=50).to_json())
    data[name][1] = value
    if named is None:
        assert json.loads(IterationTrace.from_json(json.dumps(data)).to_json())[name][1] == value
    else:
        with pytest.raises(TraceFormatError, match=named):
            IterationTrace.from_json(json.dumps(data))


def test_trace_report_zero_must_match_the_dimension():
    trace = proximal_point(identity_operator(2), [1.0, 1.0], steps=2)
    assert trace_report(trace, zero=[0.0, 0.0])["fejer_monotone"] is True
    with pytest.raises(DimensionMismatch):
        trace_report(trace, zero=[0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")  # inf already says it diverged
def test_runs_stop_when_numbers_leave_the_float_range():
    box = box_indicator([-1.0], [1.0])
    runs = [
        proximal_point(identity_operator(1), 1e308, steps=3),  # starts beyond the guard
        proximal_point(box, 1.2, "const:1e-300", steps=3),  # value residual overflows
        moudafi_iteration(box, box, 8.0, mu=1e-310, steps=3),
        moudafi_iteration(identity_operator(1), identity_operator(1), 100.0, mu=1e308),  # shift
    ]
    for trace in runs:
        assert trace.diverged and len(trace.points) == 1
        assert IterationTrace.from_json(trace.to_json()).diverged


def _counting(op):
    """``op`` with its ``value_box`` wrapped in a call counter."""
    calls = []

    def value_box(P):
        calls.append(len(P))
        return op.value_box(P)

    return dataclasses.replace(op, value_box=value_box), calls


@pytest.mark.parametrize("name, x0, schedule, steps", [
    ("identity", [2.0, -1.0], "const:0.5", 40),
    ("psd_skew", [1.0, 2.0, 3.0, -1.0, 0.0, 5.0], "harmonic:0.7", 40),
    ("abs_subdiff", [3.5], "const:1.0", 50),  # reaches the zero at step 4
    ("abs_subdiff", [100.0], "geom:1,0.5", 100),  # steps far below ulp(x): u is NaN
    ("box_normal_cone", [2.0, -3.0, 0.5], "geom:1,0.5", 30),
    ("neg_half_identity", [1.0, 0.0], "const:8.0", 30),
    ("tan_subgradient", [1.2], "const:0.006", 60),
    ("identity", [2.0, -1.0], "const:0.006", 1000),
])
def test_ppa_evaluates_the_value_box_once_a_chunk(name, x0, schedule, steps):
    op, calls = _counting(build_catalog(0)[name])
    trace = proximal_point(op, x0, schedule, steps=steps)
    assert trace.outside_domain_at is None and not trace.diverged
    taken, chunks = len(trace.points) - 1, []
    while sum(chunks) < taken:  # chunks of 1, 2, 4, ... steps up to the one holding the stop
        chunks.append(min(_CHUNK_GROWTH ** len(chunks), steps - sum(chunks)))
    assert calls == [1, *chunks]  # the start, then one box per chunk over all its steps
    assert sum(calls) <= 2 * taken + 1
    if x0 == [100.0]:  # the run does take the fallback from noise u to the box
        x, gamma = trace.points[-2], trace.gammas[-1]
        assert math.isnan(resolvent(op, gamma, x, with_value=True)[1][0])


def _reference_ppa(op, x0, schedule, steps, zero_tol=1e-9, guard=DIVERGENCE_GUARD):
    """The proximal-point loop written out with its own zero test: the start and every
    iterate are tested through ``op.minimal_norm``, norms are ``np.linalg.norm``, and a
    noise ``u`` is replaced by the least norm of a value at the new point."""

    def norm(v):
        return float(np.linalg.norm(v))

    def value_residual(x):
        try:
            return norm(op.minimal_norm(x))
        except OutsideDomain:
            return math.inf

    sched = parse_gamma_schedule(schedule)
    params = {"schedule": sched.spec, "steps": steps, "zero_tol": zero_tol}
    trace = IterationTrace("proximal_point", params)
    x = as_vector(x0, op.dim)
    trace.push(x)
    for n in range(steps + 1):
        if norm(x) > guard:
            trace.diverged = True
            break
        if value_residual(x) <= zero_tol:
            trace.reached_zero_at = n
            break
        if n == steps:
            break
        gamma = sched(n)
        try:
            nxt, u = resolvent(op, gamma, x, with_value=True)
        except OutsideDomain:
            trace.outside_domain_at = n
            break
        res, vres = norm(nxt - x), norm(u)
        if math.isnan(vres):
            vres = value_residual(nxt)
        if not math.isfinite(res + vres):
            trace.diverged = True
            break
        trace.push(nxt, gamma=gamma, step_res=res, value_res=vres)
        x = nxt
    return trace


REFERENCE_RUNS = {  # catalog name: (start point, three schedules)
    "identity": ([2.0, -1.5], ("const:0.3", "harmonic:0.8", "geom:1,0.5")),
    "psd_skew": ([1.0, 2.0, 3.0, -1.0, 0.0, 5.0], ("const:0.2", "harmonic:0.5", "geom:0.5,0.9")),
    "abs_subdiff": ([3.5], ("const:1.0", "harmonic:0.3", "geom:1,0.5")),
    "box_normal_cone": ([2.0, -3.0, 0.5], ("const:1.5", "harmonic:1.0", "geom:1,0.5")),
    "neg_half_identity": ([1.0, -0.25], ("const:8.0", "harmonic:1000", "geom:9,0.999")),
    "tan_subgradient": ([1.3], ("const:0.006", "harmonic:0.07", "geom:0.006,0.999")),
}
REFERENCE_CASES = [(name, x0, sched, 60) for name, (x0, scheds) in REFERENCE_RUNS.items()
                   for sched in scheds]
REFERENCE_CASES += [("abs_subdiff", [100.0], "geom:1,0.5", 100),  # the noise-u fallback
                    ("tan_subgradient", [1.3], "const:0.05", 60),  # leaves the domain
                    ("box_normal_cone", [1.2] * 3, "const:1e-300", 5)]  # |u| overflows
REFERENCE_CASES += [  # 1000-step runs, as the benchmark makes them
    ("identity", [2.0, -3.0], "const:0.006", 1000),
    ("psd_skew", [1.0, 2.0, 3.0, -1.0, 0.0, 5.0], "harmonic:0.7", 1000),
    ("abs_subdiff", [4.0], "harmonic:0.4", 1000),  # soft thresholding that never reaches 0
    ("abs_subdiff", [-4.0], "const:0.005", 1000),  # reaches the zero at step 801
    ("neg_half_identity", [3.0, -1.0], "geom:9,0.999", 1000),  # and at step 18
    ("tan_subgradient", [1.4], "const:0.0013", 1000),  # leaves the domain at step 604
]
# Chunks end after 1, 3, 7, 15, 31, ... steps: stops at steps 14, 15 and 16 land just before,
# on and just after the end of one.
REFERENCE_CASES += [(name, x0, sched, steps) for name, x0, sched, steps in (
    *(("abs_subdiff", [a], "const:1.0", 60) for a in (13.5, 14.5, 15.5)),  # a zero
    *(("identity", [2.0, -1.5], "const:0.3", steps) for steps in (14, 15, 16)),  # steps run out
    *(("tan_subgradient", [1.3], f"const:{g}", 60) for g in (0.056, 0.0525, 0.05)),  # the domain
)]
REFERENCE_CASES += [
    ("psd_skew", [2.0] * 6, "geom:1,0.5", 60),  # steps down to gamma = 1.7e-18, where p is x
    ("neg_half_identity", [1.0, 1.0], "geom:10,0.5", 60),  # ComonotoneStepError at gamma = 2.5
]


def _csv_reference(trace: IterationTrace) -> str:
    """A trace's CSV as ``csv.writer`` writes it: the reference for ``to_csv``'s joined rows."""
    buf, points = io.StringIO(), np.array(trace.points)
    n, dim = len(points), points.shape[-1] if trace.points else 0
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", *[f"x{i}" for i in range(dim)], "gamma", "step_residual",
                     "value_residual"])
    series = [["", *map(float, values), *[""] * n][:n]
              for values in (trace.gammas, trace.step_residuals, trace.value_residuals)]
    writer.writerows(zip(range(n), *points.T.tolist(), *series))
    return buf.getvalue()


CSV_RUNS = [  # the reference runs of every instance, a 0-step run and a run stopping at 0
    *[(name, x0, schedule, 60) for name, (x0, schedules) in REFERENCE_RUNS.items()
      for schedule in schedules],
    ("psd_skew", [1.0, 2.0, 3.0, -1.0, 0.0, 5.0], "harmonic:0.7", 1000),
    ("abs_subdiff", [-4.0], "const:0.005", 1000),
    ("identity", [2.0, -1.5], "const:0.3", 0),
    ("identity", [0.0, 0.0], "const:0.3", 10),  # reaches the zero at step 0
]


@pytest.mark.parametrize("name, x0, schedule, steps", CSV_RUNS)
def test_csv_rows_match_the_csv_writer(name, x0, schedule, steps):
    trace = proximal_point(build_catalog(0)[name], x0, schedule, steps)
    assert steps or len(trace.points) == 1
    assert x0[0] or trace.reached_zero_at == 0
    text = trace.to_csv()
    assert text == _csv_reference(trace)
    back = IterationTrace.from_csv(text, algorithm=trace.algorithm, params=trace.params)
    assert np.array(back.points).tobytes() == np.array(trace.points).tobytes()
    assert [back.gammas, back.step_residuals, back.value_residuals] == [
        trace.gammas, trace.step_residuals, trace.value_residuals]
    assert back.to_csv() == text


def test_csv_rows_match_the_csv_writer_off_the_runs():
    # a Moudafi trace, and a trace with no point at all
    moudafi = moudafi_iteration(build_catalog(0)["psd_skew"], identity_operator(6), [1.0] * 6,
                                mu=0.5, lam=0.5, steps=40)
    assert moudafi.to_csv() == _csv_reference(moudafi) and len(moudafi.points) == 41
    empty = IterationTrace("ppa", {})
    assert empty.to_csv() == _csv_reference(empty) == "step,gamma,step_residual,value_residual\n"


def _outcome(run):
    """Everything a run gives: its trace, or the class and message of what it raised."""
    try:
        trace = run()
    except Exception as exc:
        return type(exc), str(exc)
    series = [list(map(repr, getattr(trace, name))) for name in ("gammas", "step_residuals",
                                                                  "value_residuals")]
    return (np.array(trace.points).tobytes(), series, trace.diverged, trace.outside_domain_at,
            trace.reached_zero_at, trace.to_json())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference loop's norms overflow
@pytest.mark.parametrize("name, x0, schedule, steps", REFERENCE_CASES)
def test_ppa_matches_the_reference_loop_bit_for_bit(name, x0, schedule, steps):
    op = build_catalog(0)[name]
    assert _outcome(lambda: proximal_point(op, x0, schedule, steps)) == _outcome(
        lambda: _reference_ppa(op, x0, schedule, steps))


def _no_step_from_zero(gammas, X):  # a closed form that fails past the run's stop
    if not X.all():
        raise RuntimeError("no step from 0")
    return abs_subdifferential().resolvent_fn(gammas, X)


def _wrong_then_failing(gammas, X):  # right from 0.8 up, wrong below it, failing below 0.3
    if X[0, 0] < 0.3:
        raise RuntimeError("no step below 0.3")
    return X - gammas[:, None] * np.where(X < 0.8, 0.25, 1.0)


# (operator, start point, schedule, steps, zero_tol)
EDGE_RUNS = {
    **{f"refused-at-step-{r + 1}": (  # by then the point is below 1e-9: zero_tol = 0
        scaled_identity(-0.5, 2), [1.0, 1.0], f"geom:{4.5 * 2**r!r},0.5", 60, 0.0)
       for r in (13, 14, 15)},
    # the guard stops the run at step 17, in the chunk of steps 15 to 30, where later
    # steps grow the point by 1e10 a step past the float range
    "guard-before-overflow": (DOUBLING, [1e-150], "const:2.0000000002", 40, 0.0),
    "error-past-a-zero": (
        dataclasses.replace(abs_subdifferential(), resolvent_fn=_no_step_from_zero),
        [3.5], "const:1.0", 50, 1e-9),
    # step 3 fails its check and step 4 raises, both in the chunk of steps 3 to 6
    "error-past-a-failed-check": (
        dataclasses.replace(abs_subdifferential(), resolvent_fn=_wrong_then_failing),
        [3.5], "const:1.0", 50, 1e-9),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference loop's norms overflow
@pytest.mark.parametrize("case", EDGE_RUNS)
def test_ppa_edge_runs_match_the_reference_loop(case):
    op, x0, schedule, steps, zero_tol = EDGE_RUNS[case]
    got = _outcome(lambda: proximal_point(op, x0, schedule, steps, zero_tol=zero_tol))
    assert got == _outcome(lambda: _reference_ppa(op, x0, schedule, steps, zero_tol=zero_tol))
    if case.startswith("refused"):
        assert got[0] is ComonotoneStepError
    elif case == "error-past-a-failed-check":
        assert got[0] is NoConvergence
    else:
        assert got[2 if case == "guard-before-overflow" else 4] not in (False, None)


def test_reference_runs_cover_every_stop_reason():
    outcomes = set()
    runs = [(build_catalog(0)[name], *case) for name, *case in REFERENCE_CASES]
    for op, x0, schedule, steps in [*runs, EDGE_RUNS["error-past-a-failed-check"][:4]]:
        try:
            trace = proximal_point(op, x0, schedule, steps)
        except (NoConvergence, ComonotoneStepError) as exc:
            outcomes.add(type(exc))
            continue
        outcomes.add((trace.diverged, trace.outside_domain_at is not None,
                      trace.reached_zero_at not in (None, 0)))
    # steps run out, a zero mid-run, leaving the domain, diverging, the two refusals
    assert outcomes >= {(False, False, False), (False, False, True), (False, True, False),
                        (True, False, False), NoConvergence, ComonotoneStepError}


def test_ppa_takes_valid_small_steps_on_psd_skew():
    # geometric schedules reach step sizes near ulp(1), where the LU solve's own rounding
    # moves u by more than p rounding to x alone; every such run used to be refused
    refused = 0
    for seed in range(2):
        op, rng = build_catalog(seed)["psd_skew"], np.random.default_rng(seed)
        for x0 in rng.uniform(-4.0, 4.0, size=(6, 6)):
            for q in (0.5, 0.3, 0.1):
                try:
                    trace = proximal_point(op, x0, f"geom:1,{q}", 80)
                except NoConvergence:
                    refused += 1
                    continue
                assert len(trace.points) == 81 and np.isfinite(trace.value_residuals).all()
    assert refused == 0


def _reference_moudafi(op_t, op_s, x0, mu, lam, steps, zero_tol=1e-9, guard=DIVERGENCE_GUARD):
    """Moudafi's scheme a step at a time through ``yosida`` and ``resolvent``, with its own
    zero test on the step residual and ``np.linalg.norm`` for norms."""

    def norm(v):
        return float(np.linalg.norm(v))

    params = {"mu": mu, "lambda": lam, "steps": steps, "zero_tol": zero_tol}
    trace = IterationTrace("moudafi", params)
    x, res = as_vector(x0, op_t.dim), math.nan
    trace.push(x)
    for n in range(steps + 1):
        if norm(x) > guard:
            trace.diverged = True
            break
        if res <= zero_tol:
            trace.reached_zero_at = n
            break
        if n == steps:
            break
        try:
            shifted = x + mu * yosida(op_t, lam, x)
            nxt = resolvent(op_s, mu, shifted) if np.isfinite(shifted).all() else shifted
        except OutsideDomain:
            trace.outside_domain_at = n
            break
        res = norm(nxt - x)
        if not math.isfinite(res + res / mu):
            trace.diverged = True
            break
        trace.push(nxt, gamma=mu, step_res=res, value_res=res / mu)
        x = nxt
    return trace


OPERATORS = build_catalog(0)

# (T, S, start point, mu, lambda, steps)
MOUDAFI_RUNS = {
    **{f"{name}-1000": (OPERATORS[name], OPERATORS[name], x0, mu, mu, 1000)
       for name, x0, mu in (("identity", [2.0, -3.0], 0.5),
                            ("psd_skew", [1.0, 2.0, 3.0, -1.0, 0.0, 5.0], 0.05),
                            ("abs_subdiff", [4.0], 0.05),
                            ("box_normal_cone", [2.0, -3.0, 0.5], 0.5),
                            ("neg_half_identity", [3.0, -1.0], 8.0),
                            ("tan_subgradient", [1.2], 0.002))},
    "zero": (identity_operator(1), identity_operator(1), 1.0, 1.0, 1.0, 500),
    "steps-end-on-a-chunk": (identity_operator(1), identity_operator(1), 8.0, 1.0, 1.0, 15),
    "diverged": (identity_operator(1), DOUBLING, 1.0, 1.0, 1.0, 100),
    "outside-domain-of-t": (tan_subgradient(), identity_operator(1), 0.5, 1.0, 1.0, 50),
    "outside-domain-of-s": (identity_operator(1), tan_subgradient(), 1.2, 1.0, 1.0, 50),
    "start-past-the-float-range": (OPERATORS["neg_half_identity"], OPERATORS["neg_half_identity"],
                                   [1e300, 1.0], 8.0, 8.0, 50),
    "shift-overflows": (identity_operator(1), identity_operator(1), 100.0, 1e308, 1.0, 50),
    "value-residual-overflows": (box_indicator([-1.0], [1.0]), box_indicator([-1.0], [1.0]),
                                 8.0, 1e-310, 1.0, 3),
    "mu-refused": (OPERATORS["identity"], OPERATORS["neg_half_identity"], [1.0, 2.0], 1.0, 8.0, 50),
    "lambda-refused": (OPERATORS["neg_half_identity"], OPERATORS["identity"],
                       [1.0, 2.0], 8.0, 1.0, 50),
    "yosida-noise-before-mu-refused": (OPERATORS["identity"], OPERATORS["neg_half_identity"],
                                       [1.0, 2.0], 1.0, 1e-300, 50),
    # |x| doubles each step, until its u is rounding noise near x = 1534
    "yosida-noise-mid-run": (abs_subdifferential(), DOUBLING, 1.0, 1.0, 1e-6, 60),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the reference loop's norms overflow
@pytest.mark.parametrize("case", MOUDAFI_RUNS)
def test_moudafi_matches_the_reference_loop_bit_for_bit(case):
    op_t, op_s, x0, mu, lam, steps = MOUDAFI_RUNS[case]
    assert _outcome(lambda: moudafi_iteration(op_t, op_s, x0, mu, lam, steps)) == _outcome(
        lambda: _reference_moudafi(op_t, op_s, x0, mu, lam, steps))


def test_moudafi_reference_runs_cover_every_stop_reason():
    outcomes = set()
    for op_t, op_s, x0, mu, lam, steps in MOUDAFI_RUNS.values():
        try:
            trace = moudafi_iteration(op_t, op_s, x0, mu, lam, steps)
        except (NoConvergence, ComonotoneStepError) as exc:  # u noise, a refused step size
            outcomes.add(type(exc))
            continue
        outcomes.add((trace.diverged, trace.outside_domain_at, trace.reached_zero_at,
                      len(trace.points) - 1 == steps))
    assert {NoConvergence, ComonotoneStepError} <= outcomes
    assert {o[0] for o in outcomes if isinstance(o, tuple)} == {True, False}
    assert any(isinstance(o, tuple) and o[1] is not None and o[1] > 0 for o in outcomes)
    assert any(isinstance(o, tuple) and o[2] is not None and o[2] > 0 for o in outcomes)


def test_runs_past_the_float_range_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        neg_half = OPERATORS["neg_half_identity"]
        trace = moudafi_iteration(neg_half, neg_half, [1e300, 1.0], mu=8.0, lam=8.0)
        assert trace.diverged and len(trace.points) == 1
        trace = proximal_point(DOUBLING, 1e-150, "const:2.0000000002", 40, zero_tol=0.0)
        assert trace.diverged and len(trace.points) == 18  # later steps went past 1e308


def test_every_traced_binding_exists():
    """``perfbench/tracing.py`` wraps each ``(module, attribute)`` of ``TRACED`` by
    reading the attribute from the module's ``__dict__``; one that is gone fails every
    traced run.  The tracer, run from its source without writing a file, installs on
    every binding and its removal puts each original back."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), tracing.__dict__)
    bindings = [binding for _, _, traced in tracing.TRACED for binding in traced]
    names = {owner.partition(".")[0] for owner, _ in bindings}
    tracer = tracing.Tracer({name: importlib.import_module(f"prooflab.{name}") for name in names})

    def bound():
        return [tracer._target(owner).__dict__.get(attr) for owner, attr in bindings]

    originals = bound()
    assert None not in originals, [b for b, f in zip(bindings, originals) if f is None]
    try:
        tracer.install()
        assert [f.__wrapped__ for f in bound()] == originals
    finally:
        tracer.remove()
    assert bound() == originals


@pytest.mark.parametrize("change, named", [
    ({"diverged": "no"}, "diverged = 'no'"),
    ({"diverged": 0}, "diverged = 0"),
    ({"outside_domain_at": "later"}, "outside_domain_at = 'later'"),
    ({"reached_zero_at": -3}, "reached_zero_at = -3"),
    ({"reached_zero_at": True}, "reached_zero_at = True"),
    ({"reached_zero_at": 4.0}, "reached_zero_at = 4.0"),
    ({"outside_domain_at": 2}, "outside_domain_at = 2"),
    ({"gammas": []}, "one entry per step"),
    ({"value_residuals": [1.0] * 5}, "one entry per step"),
])
def test_trace_json_refuses_outcomes_that_disagree_with_the_points(change, named):
    good = json.loads(proximal_point(abs_subdifferential(), 3.5, steps=50).to_json())
    assert good["reached_zero_at"] == len(good["points"]) - 1 == 4
    IterationTrace.from_json(json.dumps(good))
    with pytest.raises(TraceFormatError, match=named):
        IterationTrace.from_json(json.dumps({**good, **change}))
