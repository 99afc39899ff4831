import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import oracle_matches, random_symbols, schedule_from_symbols
from sfqsim.cells import (
    BUILTIN_CIRCUITS,
    BehavioralCircuit,
    CellInstance,
    CellTimings,
    CircuitError,
    PulseEvent,
    behavioral_jj_count,
    build_mndro,
    build_ndro,
    scaled_timings,
    simulate,
)

PSF = 1e-12


def ev(time_ps, port):
    return PulseEvent(time_ps * PSF, port)


def out_times_ps(result):
    return [round(e.time / PSF, 3) for e in result.outputs]


def test_feedback_overhead_and_delay():
    c = build_ndro()
    assert c.feedback_jj_count() == 12
    assert c.timings.feedback_delay == pytest.approx(10.5e-12)


def test_feedback_delay_scales_linearly():
    doubled = CellTimings(
        jtl_delay=6e-12, spl_delay=5e-12, cbu_delay=10e-12, mem_delay=10e-12
    )
    assert build_ndro(doubled).timings.feedback_delay == pytest.approx(21e-12)


def test_jj_count_totals():
    assert behavioral_jj_count(build_ndro()) == 23
    assert behavioral_jj_count(build_mndro(True)) == 29
    assert behavioral_jj_count(build_mndro(False)) == 26
    empty = BehavioralCircuit(name="empty", timings=CellTimings())
    assert behavioral_jj_count(empty) == 0


def test_ndro_set_then_clock_emits_at_known_time():
    c = build_ndro()
    result = simulate(c, [ev(20, "set"), ev(120, "clk")], tstop=1e-9)
    # out = clk + mem_delay + spl_delay = 120 + 5 + 2.5
    assert out_times_ps(result) == [127.5]


def test_ndro_reset_then_clock_is_silent():
    c = build_ndro()
    result = simulate(c, [ev(20, "rst"), ev(120, "clk")], tstop=1e-9)
    assert result.outputs == []


def test_mndro_three_stores_read_three_spaced_by_mcg():
    c = build_mndro(True)
    sched = [ev(100, "set"), ev(200, "set"), ev(300, "set"), ev(400, "clk")]
    result = simulate(c, sched, tstop=1e-9)
    times = out_times_ps(result)
    assert len(times) == 3
    spacing = c.timings.mcg_spacing / PSF
    assert times == [407.5, 407.5 + spacing, 407.5 + 2 * spacing]
    # reload restores the state: a second read sees three again
    sched2 = sched + [ev(500, "clk")]
    result2 = simulate(c, sched2, tstop=1e-9)
    assert len(result2.outputs) == 6


def test_mndro_reset_configurations_differ():
    sched = [ev(100, "set"), ev(200, "set"), ev(300, "rst"), ev(400, "clk")]
    with_rg = simulate(build_mndro(True), sched, tstop=1e-9)
    assert with_rg.outputs == []  # RG replicates reset, clearing both fluxons
    without = simulate(build_mndro(False), sched, tstop=1e-9)
    assert len(without.outputs) == 1  # single decrement leaves one


def test_saturation_at_capacity():
    c = build_mndro(True)
    sched = [ev(100 + 100 * k, "set") for k in range(5)] + [ev(700, "clk")]
    result = simulate(c, sched, tstop=1.5e-9)
    assert len(result.outputs) == 3


def test_replication_spacing_limit_enforced():
    CellTimings(mcg_spacing=6e-12).check_replication(3)  # 12 < 15.5 holds
    with pytest.raises(CircuitError, match="mcg_spacing"):
        build_mndro(True, CellTimings(mcg_spacing=8e-12))  # 16 >= 15.5 fails


def test_feedback_reload_arrival_time():
    c = build_ndro()
    result = simulate(c, [ev(20, "set"), ev(120, "clk")], tstop=1e-9, record_trace=True)
    clk_at_mem = next(r.time for r in result.trace if r.cell == "mem" and r.port == "clk")
    reload_at_mem = next(
        r.time
        for r in result.trace
        if r.cell == "mem" and r.port == "set" and r.time > clk_at_mem
    )
    expected = c.timings.mem_delay + 10.5e-12
    assert reload_at_mem - clk_at_mem == pytest.approx(expected, abs=0.0)


def test_wiring_cells_conserve_pulses():
    t = CellTimings()
    c = BehavioralCircuit(name="wiring", timings=t)
    c.add_cell(CellInstance("j", "JTL"))
    c.add_cell(CellInstance("s", "SPL"))
    c.expose_input("in", ("j", "in"))
    c.connect(("j", "out"), ("s", "in"))
    c.expose_output(("s", "out0"), "a")
    c.expose_output(("s", "out1"), "b")
    events = [ev(100 * (k + 1), "in") for k in range(4)]
    result = simulate(c, events, tstop=1e-9)
    assert len(result.outputs) == 8  # JTL forwards, SPL duplicates
    assert {e.port for e in result.outputs} == {"a", "b"}


def test_cbu_merges_pulses_within_dead_time():
    t = CellTimings()
    c = BehavioralCircuit(name="merge", timings=t)
    c.add_cell(CellInstance("c", "CBU"))
    c.expose_input("a", ("c", "in0"))
    c.expose_input("b", ("c", "in1"))
    c.expose_output(("c", "out"), "q")
    close = simulate(c, [ev(100, "a"), ev(101, "b")], tstop=1e-9)
    assert len(close.outputs) == 1
    apart = simulate(c, [ev(100, "a"), ev(150, "b")], tstop=1e-9)
    assert len(apart.outputs) == 2


def test_zero_delay_replicator_cycle_rejected():
    c = BehavioralCircuit(name="loop", timings=CellTimings())
    c.add_cell(CellInstance("m", "MCG", replicas=2))
    c.add_cell(CellInstance("r", "RG", replicas=2))
    c.expose_input("in", ("m", "in"))
    c.connect(("m", "out"), ("r", "in"))
    c.connect(("r", "out"), ("m", "in"))
    with pytest.raises(CircuitError, match="zero-delay replicator cycle detected"):
        simulate(c, [ev(100, "in")], tstop=1e-9)


def test_settling_window_warning():
    c = build_ndro()
    result = simulate(c, [ev(100, "set"), ev(105, "set"), ev(200, "clk")], tstop=1e-9)
    assert any("settling" in w for w in result.warnings)


def test_unknown_port_and_negative_time_rejected():
    c = build_ndro()
    with pytest.raises(CircuitError, match="unknown input port"):
        simulate(c, [ev(100, "bogus")], tstop=1e-9)
    with pytest.raises(CircuitError, match="negative"):
        simulate(c, [PulseEvent(-1e-12, "set")], tstop=1e-9)


def test_default_tstop_is_last_input_plus_200_ps():
    sched = [ev(20, "set"), ev(120, "clk")]
    # the read-out leaves mem_delay + 2.5 ps after the clock at 120 ps; tstop is 320 ps
    kept = simulate(build_ndro(CellTimings(mem_delay=197e-12)), sched)
    assert out_times_ps(kept) == [319.5]
    assert simulate(build_ndro(CellTimings(mem_delay=198e-12)), sched).outputs == []


def test_builtin_circuits_map_kinds_to_builders():
    assert set(BUILTIN_CIRCUITS) == {"ndro", "mndro-rst", "mndro-dec"}
    t = CellTimings(mem_delay=6e-12)
    for kind, build in BUILTIN_CIRCUITS.items():
        assert build().name == kind
        assert build(t).timings == t


def test_simulate_is_pure():
    c = build_mndro(False)
    sched = [ev(100, "set"), ev(200, "clk"), ev(300, "clk")]
    r1 = simulate(c, sched, tstop=1e-9)
    r2 = simulate(c, sched, tstop=1e-9)
    assert r1.outputs == r2.outputs


def test_scaled_timings():
    t = scaled_timings(CellTimings(), {"jtl_delay": 2.0})
    assert t.jtl_delay == pytest.approx(6e-12)
    with pytest.raises(CircuitError):
        scaled_timings(CellTimings(), {"bogus": 1.0})


@given(st.integers(0, 2**32 - 1))
def test_readout_is_non_destructive(seed):
    """After any schedule, one extra clock re-reads the same count."""
    rng = random.Random(seed)
    symbols = random_symbols(rng, 10)
    circuit = BUILTIN_CIRCUITS[rng.choice(list(BUILTIN_CIRCUITS))]()
    events = schedule_from_symbols(symbols + ["CLK", "CLK"])
    result = simulate(circuit, events)
    t_probe1, t_probe2 = events[-2].time, events[-1].time
    count1 = sum(1 for e in result.outputs if t_probe1 <= e.time < t_probe2)
    count2 = sum(1 for e in result.outputs if e.time >= t_probe2)
    assert count1 == count2


@given(st.integers(0, 2**32 - 1))
def test_behavioral_matches_oracle_on_random_schedules(seed):
    rng = random.Random(seed)
    symbols = random_symbols(rng, 12)
    for kind, build in BUILTIN_CIRCUITS.items():
        assert oracle_matches(build(), kind, symbols)
