import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfqsim.margin import (
    MarginError,
    MarginReport,
    MarginSpec,
    ParameterMargin,
    margin_sweep,
    render_report,
    report_csv,
)


def interval_pass_fn(low, high):
    def fn(factors):
        f = factors.get("p", 1.0)
        return low <= f <= high

    return fn


def test_recovers_synthetic_interval():
    spec = MarginSpec(parameters=[("p", 1.0)], pass_fn=interval_pass_fn(0.7, 1.5))
    report = margin_sweep(spec)
    (p,) = report.per_parameter
    assert p.low == pytest.approx(0.7, abs=spec.resolution)
    assert p.high == pytest.approx(1.5, abs=spec.resolution)
    assert report.critical_margin_percent == pytest.approx(30.0, abs=100 * spec.resolution)
    assert not p.saturated


def test_always_passing_saturates_at_bounds():
    spec = MarginSpec(parameters=[("p", 2.0)], pass_fn=lambda f: True)
    report = margin_sweep(spec)
    (p,) = report.per_parameter
    assert (p.low, p.high) == (0.2, 3.0)
    assert p.saturated_low and p.saturated_high
    assert report.critical_unbounded
    assert ">=" in render_report(report)


def test_nominal_failure_is_an_error():
    spec = MarginSpec(parameters=[("p", 1.0)], pass_fn=lambda f: False)
    with pytest.raises(MarginError, match="nominal fails"):
        margin_sweep(spec)


def test_pass_fn_exceptions_are_wrapped_with_context():
    def broken(factors):
        if factors:
            raise RuntimeError("engine exploded")
        return True

    spec = MarginSpec(parameters=[("p", 1.0)], pass_fn=broken)
    with pytest.raises(MarginError, match="p at"):
        margin_sweep(spec)


@given(
    low=st.floats(0.25, 0.95),
    width=st.floats(0.1, 1.8),
)
@settings(max_examples=60, deadline=None)
def test_bisection_brackets_any_step_boundary(low, width):
    high = min(1.0 + width, 2.95)
    if not (low <= 1.0 <= high):
        high = max(high, 1.0)
    spec = MarginSpec(parameters=[("p", 1.0)], pass_fn=interval_pass_fn(low, high))
    report = margin_sweep(spec)
    (p,) = report.per_parameter
    assert abs(p.low - low) <= spec.resolution
    assert abs(p.high - high) <= spec.resolution
    assert p.low <= 1.0 <= p.high


def test_island_regions_are_flagged():
    def islands(factors):
        f = factors.get("p", 1.0)
        return 0.9 <= f <= 1.1 or 2.0 <= f <= 2.4

    report = margin_sweep(MarginSpec(parameters=[("p", 1.0)], pass_fn=islands))
    (p,) = report.per_parameter
    assert p.islands
    assert "non-monotone" in render_report(report)


def test_critical_margin_rules():
    single = MarginReport([ParameterMargin("a", 1.0, 0.8, 1.3)])
    assert single.critical_margin_percent == pytest.approx(20.0)

    two = MarginReport(
        [
            ParameterMargin("a", 1.0, 0.5, 1.5),
            ParameterMargin("b", 1.0, 0.9, 2.0),
        ]
    )
    assert two.critical_margin_percent == pytest.approx(10.0)
    assert two.critical_parameter == "b"

    saturated = MarginReport(
        [ParameterMargin("a", 1.0, 0.2, 3.0, saturated_low=True, saturated_high=True)]
    )
    assert saturated.critical_unbounded


def test_csv_rendering():
    report = MarginReport([ParameterMargin("jtl_delay", 3e-12, 0.7, 1.5)])
    csv = report_csv(report)
    assert csv.splitlines()[0] == "param,low,high,margin_pct"
    assert "jtl_delay,0.7000,1.5000,30.00" in csv


def test_bounds_must_contain_nominal():
    with pytest.raises(MarginError):
        MarginSpec(parameters=[], pass_fn=lambda f: True, search_bounds=(1.5, 3.0))
