import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfqsim import data
from sfqsim.cells import CellTimings, PulseEvent
from sfqsim.margin import (
    TIMING_PARAMS,
    MarginError,
    MarginReport,
    MarginSpec,
    ParameterMargin,
    margin_sweep,
    render_report,
    report_csv,
    timing_spec,
)
from sfqsim.waveio import read_schedule


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -0.01])
def test_resolution_must_be_positive_and_finite(value):
    with pytest.raises(MarginError, match="resolution"):
        MarginSpec(parameters=[], pass_fn=lambda f: True, resolution=value)


@pytest.mark.parametrize("bounds", [(0.2, float("inf")), (float("-inf"), 3.0), (0.2, float("nan"))])
def test_search_bounds_must_be_finite(bounds):
    # an infinite bound would make the edge bisection loop forever
    with pytest.raises(MarginError, match="finite"):
        MarginSpec(parameters=[], pass_fn=lambda f: True, search_bounds=bounds)


def test_timing_spec_parameters_and_pass_function():
    sched = read_schedule(data.load_text("tb_fig7.sched"))
    spec = timing_spec("ndro", sched.events)
    assert [name for name, _ in spec.parameters] == list(TIMING_PARAMS)
    assert spec.parameters[0] == ("jtl_delay", CellTimings().jtl_delay)
    assert spec.pass_fn({}) and spec.pass_fn({"mem_delay": 2.0})
    # a slow memory returns its reload after the reset, so the memory refills
    assert not spec.pass_fn({"mem_delay": 25.0})
    fig8 = read_schedule(data.load_text("tb_fig8.sched"))
    spec = timing_spec("mndro-rst", fig8.events, base=CellTimings(mem_delay=6e-12))
    assert [name for name, _ in spec.parameters][-1] == "mcg_spacing"
    assert dict(spec.parameters)["mem_delay"] == 6e-12
    # a replication spacing the composition rule forbids is a failing point
    assert not spec.pass_fn({"mcg_spacing": 3.0})
    subset = timing_spec("mndro-dec", fig8.events, params=["mcg_spacing"], resolution=0.05)
    assert (subset.parameters, subset.resolution) == ([("mcg_spacing", 4e-12)], 0.05)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        (dict(kind="dff"), "unknown circuit"),
        (dict(params=["mcg_spacing"]), r"unknown sweep parameter\(s\): \['mcg_spacing'\]"),
        (dict(window=150e-12), r"at least the window \(150 ps\) apart"),
        (dict(window=float("nan")), "window"),
        (dict(resolution=float("nan")), "resolution"),
        (dict(schedule=[PulseEvent(1e-10, "foo")]), "unknown input symbol 'FOO'"),
    ],
)
def test_timing_spec_rejects_bad_inputs_when_built(kwargs, error):
    args = dict(kind="ndro", schedule=read_schedule(data.load_text("tb_fig7.sched")).events)
    args.update(kwargs)
    with pytest.raises((ValueError, MarginError), match=error):
        timing_spec(**args)
