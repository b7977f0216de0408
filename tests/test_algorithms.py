import json
import math

import numpy as np
import pytest

from prooflab.algorithms import (
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
    DimensionMismatch,
    NonFiniteInput,
    abs_subdifferential,
    box_indicator,
    identity_operator,
    matrix_operator,
    scaled_identity,
    tan_subgradient,
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


def test_moudafi_stops_at_fixed_point():
    trace = moudafi_iteration(
        identity_operator(), identity_operator(), 1.0, steps=500, zero_tol=1e-9
    )
    assert trace.reached_zero_at is not None
    assert abs(trace.final[0]) < 1e-8


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow too
def test_trace_report_fails_a_distance_beyond_the_float_range():
    trace = proximal_point(abs_subdifferential(), 3.5, "const:1.0", steps=50)
    report = trace_report(trace, zero=[1e308])
    assert (report["distance_to_zero"], report["fejer_monotone"]) == (None, False)
    json.dumps(report, allow_nan=False)


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


def test_trace_report_zero_must_match_the_dimension():
    trace = proximal_point(identity_operator(2), [1.0, 1.0], steps=2)
    assert trace_report(trace, zero=[0.0, 0.0])["fejer_monotone"] is True
    with pytest.raises(DimensionMismatch):
        trace_report(trace, zero=[0.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow too
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
