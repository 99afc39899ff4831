"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest output.
"""

import random
import time

import numpy as np
import pytest

from conftest import oracle_matches, random_symbols, schedule_from_symbols
from sfqsim import bench, data
from sfqsim.analog import (
    PHI0,
    pulse_area,
    run_transient,
    storage_capacity,
)
from sfqsim.cells import (
    CellTimings,
    CircuitError,
    build_mndro,
    build_ndro,
    simulate,
)
from sfqsim.margin import MarginSpec, margin_sweep, timing_spec
from sfqsim.netlist import flatten, parse_netlist
from sfqsim.oracle import check_trace, run_oracle
from sfqsim.waveio import read_schedule, write_events

PS = 1e-12


def verdict(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


def counts_per_clock(result, clock_times, period=100e-12):
    counts = []
    for t in clock_times:
        counts.append(sum(1 for e in result.outputs if t <= e.time < t + period))
    return counts


def test_criterion_1_ndro_golden_scenario():
    start = time.monotonic()
    sched = read_schedule(data.load_text("tb_fig7.sched"))
    result = simulate(build_ndro(), sched.events, tstop=1e-9)
    golden = "pulse out 207.500\npulse out 607.500\npulse out 707.500\n"
    assert write_events(result.outputs) == golden
    # loaded value appears on every clock until reset; silence after reset
    expected = [c for _, c in run_oracle("ndro", [e.port.upper() for e in sched.events])]
    assert expected == [1, 0, 1, 1]
    assert check_trace("ndro", sched.events, result.outputs).passed
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    verdict(1, "behavioral NDRO golden trace")


def test_criterion_2_mndro_reset_scenario():
    start = time.monotonic()
    sched = read_schedule(data.load_text("tb_fig8.sched"))
    # the shipped file stops at the clearing reset; probe it with a final read
    events = sched.events + [type(sched.events[0])(1100e-12, "clk")]
    result = simulate(build_mndro(True), events, tstop=2e-9)
    clocks = [e.time for e in events if e.port == "clk"]
    assert counts_per_clock(result, clocks) == [1, 0, 2, 3, 0]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    verdict(2, "M-NDRO reset configuration counts")


def test_criterion_3_mndro_decrement_scenario():
    start = time.monotonic()
    sched = read_schedule(data.load_text("tb_fig10.sched"))
    result = simulate(build_mndro(False), sched.events, tstop=2e-9)
    clocks = sched.times_on("clk")
    assert counts_per_clock(result, clocks) == [1, 2, 3, 2, 1, 0]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    verdict(3, "M-NDRO decrement 0->3->0")


def test_criterion_4_oracle_equivalence_1000_random_schedules():
    start = time.monotonic()
    configs = (
        ("ndro", build_ndro()),
        ("mndro-rst", build_mndro(True)),
        ("mndro-dec", build_mndro(False)),
    )
    rng = random.Random(20260809)
    for kind, circuit in configs:
        for _ in range(1000):
            symbols = random_symbols(rng, 20)
            assert oracle_matches(circuit, kind, symbols, period=100e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    verdict(4, "oracle equivalence on 3000 random schedules")


def test_criterion_5_ten_gigahertz_and_composition_limit():
    start = time.monotonic()
    # 100 ps clock period == 10 GHz operation for the multi-fluxon block
    rng = random.Random(77)
    circuit = build_mndro(True)
    for _ in range(100):
        symbols = random_symbols(rng, 20)
        assert oracle_matches(circuit, "mndro-rst", symbols, period=100e-12)
    # a violating replication spacing must be rejected at construction
    with pytest.raises(CircuitError, match="mcg_spacing"):
        build_mndro(True, CellTimings(mcg_spacing=8e-12))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    verdict(5, "10 GHz schedules pass; invalid composition rejected")


def test_criterion_6_feedback_timing_and_overhead():
    circuit = build_ndro()
    assert circuit.feedback_jj_count() == 12
    result = simulate(
        circuit,
        schedule_from_symbols(["SET", "CLK"]),
        tstop=1e-9,
        record_trace=True,
    )
    clk = next(r.time for r in result.trace if r.cell == "mem" and r.port == "clk")
    reload_ = next(
        r.time for r in result.trace if r.cell == "mem" and r.port == "set" and r.time > clk
    )
    assert reload_ - clk == circuit.timings.mem_delay + 10.5e-12
    verdict(6, "reload = mem_delay + 10.5 ps, 12 JJ overhead")


def test_criterion_7_flux_quantization_and_convergence():
    start = time.monotonic()
    flat = flatten(parse_netlist(data.load_text("single_jj_tb.cir")))
    wave, events = run_transient(flat, dt=0.1e-12, tstop=200e-12)
    assert len(events) >= 10
    for e0, e1 in zip(events[:-1], events[1:]):
        area = pulse_area(wave, "B1", (e0.time, e1.time))
        assert abs(area - PHI0) / PHI0 < 0.01

    ref_dt = 0.1e-12 / 8
    ref, _ = run_transient(flat, dt=ref_dt, tstop=100e-12)

    def err(dt):
        w, _ = run_transient(flat, dt=dt, tstop=100e-12)
        stride = int(round(dt / ref_dt))
        r = ref.voltages[::stride]
        n = min(len(r), len(w.voltages))
        return np.abs(w.voltages[:n] - r[:n]).max()

    ratio = err(0.1e-12) / err(0.05e-12)
    assert ratio >= 3.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    verdict(7, f"pulse area = PHI0 within 1%; halving ratio {ratio:.2f} >= 3")


def test_criterion_8_jtl_chain_conserves_pulse_trains():
    start = time.monotonic()
    for n_pulses in range(1, 6):
        flat = flatten(parse_netlist(bench.jtl_chain_tb(n_pulses=n_pulses)))
        _, events = run_transient(flat, dt=0.1e-12)
        n_in = sum(1 for e in events if e.junction == "B1")
        n_out = sum(1 for e in events if e.junction == "B5")
        assert n_in == n_pulses
        assert n_out == n_pulses
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    verdict(8, "JTL chain in/out pulse counts equal for 1..5 pulses")


def test_criterion_9_margin_engine():
    start = time.monotonic()
    rng = random.Random(99)
    for _ in range(50):
        low = rng.uniform(0.25, 0.98)
        high = rng.uniform(1.02, 2.9)

        def fn(factors, lo=low, hi=high):
            f = factors.get("p", 1.0)
            return lo <= f <= hi

        spec = MarginSpec(parameters=[("p", 1.0)], pass_fn=fn, resolution=0.005)
        report = margin_sweep(spec)
        (p,) = report.per_parameter
        assert abs(p.low - low) <= 0.005
        assert abs(p.high - high) <= 0.005

    # behavioral delay sweep: every parameter margin at least +-20 percent
    sched = read_schedule(data.load_text("tb_fig7.sched"))
    report = margin_sweep(timing_spec("ndro", sched.events))
    assert [p.name for p in report.per_parameter] == [
        "jtl_delay", "spl_delay", "cbu_delay", "mem_delay"
    ]
    for p in report.per_parameter:
        assert p.low <= 0.8, f"{p.name} low margin {p.low}"
        assert p.high >= 1.2, f"{p.name} high margin {p.high}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    # analog margin percentages from the original cells (64% / 20%) are
    # documentation targets only: the exact schematic is unpublished, so the
    # suite checks engine correctness, not those figures (see README).
    verdict(9, "synthetic regions recovered at 0.5%; delay margins >= 20%")


def test_criterion_10_capacity_arithmetic():
    multi = storage_capacity(11.27e-12, 158e-6)
    single = storage_capacity(4.18e-12, 197e-6)
    assert round(multi, 3) == 0.861
    assert round(single, 3) == 0.398

    import sfqsim.cli as cli

    class Args:
        netlist = None
        loop = "B1,L2,L6,B6,B7"

    import pathlib

    args = Args()
    args.netlist = str(pathlib.Path(data.__file__).parent / "mndro_cell_tb.cir")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.cmd_capacity(args)
    assert code == 0
    out = buf.getvalue()
    assert "0.861 PHI0" in out
    assert "naive reading" in out  # the interpretation caveat must be surfaced
    verdict(10, "Ic*L arithmetic 0.861/0.398 PHI0 with caveat")
