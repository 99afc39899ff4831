import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfqsim.cells import PulseEvent
from sfqsim.oracle import (
    MNDRO_DECREMENT,
    MNDRO_RESET,
    NDRO,
    OracleMachine,
    check_trace,
    compare_trace,
    run_oracle,
)

PS = 1e-12
_symbols = st.lists(st.sampled_from(("SET", "RST", "CLK")), max_size=30)


def test_ndro_clock_in_set_state_emits_one():
    m = OracleMachine(NDRO)
    m.step("SET")
    outcome = m.step("CLK")
    assert outcome.new_state == 1
    assert outcome.output_pulse_count == 1


def test_mndro_reset_kind_counts_state_pulses():
    m = OracleMachine(MNDRO_RESET)
    m.step("SET")
    m.step("SET")
    outcome = m.step("CLK")
    assert (outcome.new_state, outcome.output_pulse_count) == (2, 2)


def test_decrement_floors_at_zero():
    m = OracleMachine(MNDRO_DECREMENT)
    outcome = m.step("RST")
    assert (outcome.new_state, outcome.output_pulse_count) == (0, 0)


def test_run_oracle_examples():
    assert [c for _, c in run_oracle(NDRO, ["SET", "CLK", "RST", "CLK"])] == [1, 0]
    assert run_oracle(NDRO, []) == []
    for kind in (MNDRO_RESET, MNDRO_DECREMENT):
        assert [c for _, c in run_oracle(kind, ["SET"] * 4 + ["CLK"])] == [3]


def test_unknown_kind_and_symbol_rejected():
    with pytest.raises(ValueError):
        OracleMachine("bogus")
    with pytest.raises(ValueError):
        OracleMachine(NDRO).step("NOP")


@given(_symbols)
def test_clock_never_changes_state(symbols):
    for kind in (NDRO, MNDRO_RESET, MNDRO_DECREMENT):
        m = OracleMachine(kind)
        for s in symbols:
            before = m.state
            m.step(s)
            if s == "CLK":
                assert m.state == before


@given(_symbols)
def test_reset_and_decrement_agree_until_rst_above_s1(symbols):
    a = OracleMachine(MNDRO_RESET)
    b = OracleMachine(MNDRO_DECREMENT)
    for s in symbols:
        diverges = s == "RST" and a.state > 1
        out_a = a.step(s)
        out_b = b.step(s)
        if diverges:
            break
        assert out_a == out_b


def _events(times_ps, port="out"):
    return [PulseEvent(t * PS, port) for t in times_ps]


def test_compare_trace_pass_and_fail():
    clocks = [100e-12, 200e-12, 300e-12]
    expected = [1, 0, 2]
    observed = _events([107.5, 307.5, 311.5])
    assert compare_trace(expected, observed, clocks).passed

    missing = _events([107.5, 307.5])
    verdict = compare_trace(expected, missing, clocks)
    assert not verdict.passed
    assert (verdict.clk_index, verdict.expected, verdict.observed) == (2, 2, 1)
    assert str(verdict) == "FAIL clk=2 expected=2 observed=1"


def test_compare_trace_rejects_overlapping_windows():
    with pytest.raises(ValueError, match="window"):
        compare_trace([0, 0], [], [0.0, 30e-12], window=50e-12)


@pytest.mark.parametrize("window", [0.0, -1e-12, float("nan")])
def test_compare_trace_rejects_non_positive_window(window):
    with pytest.raises(ValueError, match="window must be positive"):
        compare_trace([0], [], [100e-12], window=window)


def test_pulse_on_a_clock_time_counts_for_that_clock():
    clocks = [100e-12, 200e-12, 300e-12]
    verdict = compare_trace([0, 1, 0], _events([200.0]), clocks)
    assert verdict.passed
    assert not compare_trace([1, 0, 0], _events([200.0]), clocks).passed


def test_compare_trace_does_not_need_sorted_pulses():
    clocks = [100e-12, 200e-12, 300e-12]
    assert compare_trace([1, 0, 2], _events([311.5, 107.5, 307.5]), clocks).passed


def test_check_trace_runs_the_oracle_over_the_schedule():
    schedule = [
        PulseEvent(100e-12, "set"),
        PulseEvent(200e-12, "clk"),
        PulseEvent(300e-12, "rst"),
        PulseEvent(400e-12, "clk"),
    ]
    assert check_trace(NDRO, schedule, _events([207.5])).passed
    verdict = check_trace(NDRO, schedule, _events([207.5, 407.5]))
    assert (verdict.clk_index, verdict.expected, verdict.observed) == (1, 0, 1)


@pytest.mark.parametrize(
    "kind, port, clk_ps, error",
    [
        ("dff", "set", 200.0, "unknown oracle kind"),
        (NDRO, "foo", 200.0, "unknown input symbol 'FOO'"),
        (NDRO, "set", 120.0, r"at least the window \(50 ps\) apart"),
    ],
)
def test_check_trace_rejects_bad_inputs(kind, port, clk_ps, error):
    schedule = [PulseEvent(50e-12, port), PulseEvent(100e-12, "clk")]
    schedule.append(PulseEvent(clk_ps * PS, "clk"))
    with pytest.raises(ValueError, match=error):
        check_trace(kind, schedule, [])


def test_compare_trace_counts_stray_pulses_against_their_clock():
    clocks = [100e-12, 200e-12]
    # pulse at 180 ps is outside clk0's window but precedes clk1
    verdict = compare_trace([1, 0], _events([107.5, 180.0]), clocks)
    assert not verdict.passed
    assert verdict.clk_index == 0


def test_compare_trace_flags_pulses_before_first_clock():
    verdict = compare_trace([1], _events([50.0, 107.5]), [100e-12])
    assert not verdict.passed
