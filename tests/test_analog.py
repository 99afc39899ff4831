import math

import numpy as np
import pytest

from sfqsim import bench, data
from sfqsim.analog import (
    NEWTON_ITOL,
    NEWTON_MAX_ITERS,
    NEWTON_VTOL,
    PHI0,
    FluxoidLoop,
    StructuralError,
    _Engine,
    count_fluxons,
    loop_fluxoid,
    pulse_area,
    run_transient,
    storage_capacity,
)
from sfqsim.netlist import CurrentSource, flatten, parse_netlist


@pytest.fixture(scope="module")
def single_jj():
    flat = flatten(parse_netlist(data.load_text("single_jj_tb.cir")))
    return run_transient(flat, dt=0.1e-12)


def test_single_junction_slips_periodically(single_jj):
    wave, events = single_jj
    assert len(events) > 50
    periods = np.diff([e.time for e in events[20:40]])
    assert periods.std() / periods.mean() < 0.01


def test_flux_quantization_between_slips(single_jj):
    wave, events = single_jj
    for e0, e1 in zip(events[:-1], events[1:]):
        area = pulse_area(wave, "B1", (e0.time, e1.time))
        assert abs(area - PHI0) / PHI0 < 0.01


def test_pulse_area_spans_k_slips(single_jj):
    wave, events = single_jj
    # oracle: the slip detector says how many quanta a window holds
    for k in (1, 2, 5):
        window = (events[10].time, events[10 + k].time)
        area = pulse_area(wave, "B1", window)
        assert abs(area - k * PHI0) / (k * PHI0) < 0.01


def test_pulse_area_window_validation(single_jj):
    wave, _ = single_jj
    with pytest.raises(ValueError):
        pulse_area(wave, "B1", (2e-10, 1e-10))
    with pytest.raises(KeyError):
        pulse_area(wave, "nope", (0.0, 1e-10))


def test_zero_source_circuit_stays_quiescent():
    src = """
B1 1 0 jm
R1 1 0 5
L1 1 2 2p
R2 2 0 1
.model jm jj(icrit=100u)
.tran 0.1p 100p
"""
    wave, events = run_transient(flatten(parse_netlist(src)))
    assert events == []
    assert np.all(wave.voltages == 0.0)
    assert np.all(wave.phases == 0.0)
    assert np.all(wave.inductor_currents == 0.0)


def test_energy_stays_at_rest_without_sources():
    # passivity at rest: the energy functional never rises above its start (0)
    src = """
B1 1 0 jm
R1 1 0 5
L1 1 0 4p
.model jm jj(icrit=200u, cap=100f)
.tran 0.1p 50p
"""
    wave, _ = run_transient(flatten(parse_netlist(src)))
    c = 100e-15
    l = 4e-12
    energy = 0.5 * c * wave.junction_voltage("B1") ** 2
    energy += 0.5 * l * wave.inductor_currents[:, 0] ** 2
    assert np.all(energy <= 0.0 + 1e-30)


def test_bit_identical_reruns(single_jj):
    flat = flatten(parse_netlist(data.load_text("single_jj_tb.cir")))
    wave2, events2 = run_transient(flat, dt=0.1e-12)
    wave1, events1 = single_jj
    assert np.array_equal(wave1.voltages, wave2.voltages)
    assert np.array_equal(wave1.phases, wave2.phases)
    assert events1 == events2


def test_slip_events_are_ordered_with_consecutive_indices(single_jj):
    _, events = single_jj
    per = {}
    for e in events:
        per.setdefault(e.junction, []).append(e)
    for evs in per.values():
        times = [e.time for e in evs]
        assert times == sorted(times)
        assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
        assert [e.index for e in evs] == list(range(len(evs)))


def test_source_table_matches_per_source_interpolation():
    # overlapping ramps, a negative first time, a pulse, a dc source, a source
    # that starts late, and a stretch (50-60 ps) where no source moves: each
    # column must follow its own points
    src = """
R1 1 0 5
I1 0 1 pwl(-20p 1u 30p 5u 50p -2u)
I2 0 1 pulse(10p 500u 4p)
I3 0 1 dc 3u
I4 0 1 pwl(25p 0 40p 7u 60p 7u)
.tran 0.1p 100p
"""
    flat = flatten(parse_netlist(src))
    engine = _Engine(flat)
    points = [e.points for e in flat.elements if isinstance(e, CurrentSource)]
    rng = np.random.default_rng(3)
    times = np.concatenate(
        [
            rng.uniform(1e-15, 100e-12, 2000),
            [10e-12, 12e-12, 14e-12, 25e-12, 30e-12, 40e-12, 50e-12, 60e-12],  # breakpoints
            [60e-12 + 1e-18, 1e-9, 1.0],  # past the last breakpoint
        ]
    )
    for t in times:
        want = [np.interp(t, *zip(*pts)) for pts in points]
        np.testing.assert_allclose(engine._sources_at(float(t)), want, rtol=1e-12, atol=1e-21)
    # before I4's first time it holds its first value, after its last its last value
    assert engine._sources_at(5e-12)[3] == 0.0
    assert engine._sources_at(70e-12)[3] == 7e-6

    quiet = _Engine(flatten(parse_netlist("R1 1 0 5\n.tran 0.1p 10p")))
    for t in (1e-15, 5e-12, 1.0):
        assert quiet._sources_at(t).shape == (0,)


class _FullSpaceEngine(_Engine):
    """Reference step: Newton over all node and inductor unknowns, one n x n solve per iteration."""

    def _try_step(self, h):
        nn = self.nn
        A_h = self.base.copy()
        A_h[nn:] -= (h / (2.0 * self.l_val))[:, None] * self.Dl.T
        A_h += (self.Dj * (self.j_g + 2.0 * self.j_cap / h)) @ self.Dj.T
        t_new = self.time + h
        b_h = -(self.Ds @ self._sources_at(t_new))
        b_h[nn:] = self.x[nn:] + h / (2.0 * self.l_val) * (self.Dl.T @ self.x)

        a = math.pi * h / PHI0
        phi_hist = self.phi + a * self.jv
        i_hist = -2.0 * self.j_cap / h * self.jv - self.j_cap * self.jdvdt
        x = self.x
        for _ in range(NEWTON_MAX_ITERS):
            v = self.Dj.T @ x
            theta = phi_hist + a * v
            g_sin = self.j_ic * a * np.cos(theta)
            A = A_h + (self.Dj * g_sin) @ self.Dj.T
            b = b_h - self.Dj @ (self.j_ic * np.sin(theta) + i_hist - g_sin * v)
            x_new = np.linalg.solve(A, b)
            delta = np.abs(x_new - x)
            x = x_new
            if (delta[:nn] < NEWTON_VTOL).all() and (delta[nn:] < NEWTON_ITOL).all():
                return x, True
        return x, False


@pytest.mark.parametrize(
    "text",
    [
        data.load_text("single_jj_tb.cir"),
        data.load_text("mndro_cell_tb.cir"),
        bench.jtl_chain_tb(stages=19),
    ],
    ids=["single_jj_tb", "mndro_cell_tb", "jtl_chain_tb19"],
)
def test_junction_subspace_newton_matches_full_space_step(text):
    flat = flatten(parse_netlist(text))
    wave, events = run_transient(flat)
    ref_wave, ref_events = _FullSpaceEngine(flat).run()
    assert np.abs(wave.phases - ref_wave.phases).max() < 1e-9
    assert [(e.junction, e.index) for e in events] == [(e.junction, e.index) for e in ref_events]
    assert max(abs(e.time - r.time) for e, r in zip(events, ref_events)) < 1e-15


# --- fluxon counting ----------------------------------------------------------


def test_count_fluxons_quiescent_loop_is_zero():
    flat = flatten(parse_netlist(bench.storage_loop_tb(n_sets=1)))
    loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)
    wave, _ = run_transient(flat)
    early = wave.state_at(50e-12)  # before the first write pulse
    assert count_fluxons(early, loop) == 0


def test_count_fluxons_single_write():
    flat = flatten(parse_netlist(data.load_text("storage_loop_tb.cir")))
    loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)
    wave, events = run_transient(flat)
    assert sum(1 for e in events if e.junction == "Bin") == 1
    state = wave.state_at(wave.times[-1])
    assert count_fluxons(state, loop) == 1


def test_count_fluxons_three_writes_on_multi_loop():
    flat = flatten(parse_netlist(data.load_text("mndro_loop_tb.cir")))
    loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)
    wave, _ = run_transient(flat)
    counts = [count_fluxons(wave.state_at(t), loop) for t in (180e-12, 280e-12, 380e-12)]
    assert counts == [1, 2, 3]


def test_fluxoid_is_near_integral_when_quiescent():
    flat = flatten(parse_netlist(data.load_text("mndro_loop_tb.cir")))
    loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)
    wave, _ = run_transient(flat)
    # samples that end a run of 5 with every node voltage below 0.1 uV
    quiet = np.all(np.abs(wave.voltages) < 1e-7, axis=1)
    idx = np.flatnonzero(np.convolve(quiet, np.ones(5), "valid") == 5) + 4
    assert len(idx) > 0
    for i in idx[:: max(1, len(idx) // 20)]:
        raw = loop_fluxoid(wave.state_at(float(wave.times[i])), loop)
        assert abs(raw - round(raw)) < 0.05


def test_loop_walk_rejects_open_paths():
    flat = flatten(parse_netlist(bench.storage_loop_tb()))
    with pytest.raises(ValueError, match="not closed"):
        FluxoidLoop.from_names(flat, ["Ls", "Bq"])
    with pytest.raises(ValueError, match="not closed"):
        FluxoidLoop.from_names(flat, ["Ls", "Bin", "Bq"])


# --- storage capacity -----------------------------------------------------------


def test_storage_capacity_boundary_and_errors():
    l = 3 * PHI0 / 100e-6
    assert storage_capacity(l, 100e-6) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        storage_capacity(0.0, 1e-6)
    with pytest.raises(ValueError):
        storage_capacity(1e-12, -1e-6)


# --- shipped reconstructions ------------------------------------------------------


def test_mcg_emits_three_output_slips():
    # calibration target: one input excitation -> three slips on the output junction
    flat = flatten(parse_netlist(data.load_text("mcg_tb.cir")))
    _, events = run_transient(flat)
    n_out = sum(1 for e in events if e.junction == bench.MCG_OUTPUT_JUNCTION)
    assert n_out == 3


def test_singular_structure_raises():
    floating = """
I1 0 1 dc 1u
I2 1 0 dc 1u
R9 5 0 1
R8 5 0 1
.tran 1p 10p
"""
    # a junction with cap=0 and no rn/r0 leaves its node without a linear path
    unshunted = """
B1 1 0 jm
I1 0 1 pwl(0 0 50p 50u)
.model jm jj(icrit=100u, cap=0)
.tran 0.1p 100p
"""
    for src in (floating, unshunted):
        with pytest.raises(StructuralError, match=r"at node\(s\) 1:"):
            run_transient(flatten(parse_netlist(src)))


def test_missing_tran_requires_override():
    src = "R1 1 0 5\nI1 0 1 pwl(0 0 10p 1u)"
    with pytest.raises(StructuralError):
        run_transient(flatten(parse_netlist(src)))
    wave, _ = run_transient(
        flatten(parse_netlist(src)), dt=1e-12, tstop=20e-12
    )
    assert wave.times[-1] == pytest.approx(20e-12)


def test_floating_junction_orientation_only_flips_its_phase():
    # B1 has neither terminal on ground; swapping its pos/neg must leave the
    # circuit unchanged and negate the junction's phase exactly
    src = """
.model jm jj(icrit=100u, rn=5)
I1 0 1 pwl(0 0 20p 250u)
{junction}
L1 2 3 2p
R1 3 0 1
R2 1 0 20
.tran 0.1p 100p
"""
    runs = [
        run_transient(flatten(parse_netlist(src.format(junction=j))))
        for j in ("B1 1 2 jm", "B1 2 1 jm")
    ]
    (wave, _), (swapped, _) = runs
    assert wave.phase("B1").max() > 4 * np.pi  # the junction is in its running state
    assert np.allclose(wave.voltages, swapped.voltages, rtol=0.0, atol=1e-15)
    assert np.allclose(wave.inductor_currents, swapped.inductor_currents, rtol=0.0, atol=1e-15)
    assert np.abs(wave.phase("B1") + swapped.phase("B1")).max() < 1e-12
    assert np.allclose(wave.junction_voltage("B1"), -swapped.junction_voltage("B1"), atol=1e-15)
