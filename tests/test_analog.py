import math
import warnings
from importlib import resources

import numpy as np
import pytest

from sfqsim import analog, bench, data
from sfqsim.analog import (
    NEWTON_ITOL,
    NEWTON_MAX_ITERS,
    NEWTON_VTOL,
    PHI0,
    FluxoidLoop,
    Circuit,
    SimulationError,
    StructuralError,
    _Engine,
    _solve1,
    count_fluxons,
    loop_capacity,
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
    with pytest.raises(ValueError, match="'nope' matches nothing"):
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
    engine = _Engine(Circuit.from_netlist(flat))
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

    quiet = _Engine(Circuit.from_netlist(flatten(parse_netlist("R1 1 0 5\n.tran 0.1p 10p"))))
    for t in (1e-15, 5e-12, 1.0):
        assert quiet._sources_at(t).shape == (0,)


# --- compiled circuits and scaled variants -------------------------------------------


def test_scaled_run_is_bit_identical_to_rewritten_text():
    # scaling a junction scales its Ic alone, as editing icrit in its model card does
    # (the card's cap and rn stay); scaling a source scales all of its values
    text = bench.storage_loop_tb(n_sets=1)
    base = Circuit.from_netlist(flatten(parse_netlist(text)))
    wave, events = run_transient(base.scaled({"Bq": 1.37, "Iset1": 0.91}))

    ic = float(base.ic[base.junction_names.index("Bq")]) * 1.37
    amp = float(base.src_v[:, base.source_names.index("Iset1")].max()) * 0.91
    assert text.count("icrit=300u") == 1 and text.count(" 480u ") == 1
    edited = text.replace("icrit=300u", f"icrit={ic!r}").replace(" 480u ", f" {amp!r} ")
    ref_wave, ref_events = run_transient(flatten(parse_netlist(edited)))
    for field in ("voltages", "phases", "inductor_currents"):
        assert np.array_equal(getattr(wave, field), getattr(ref_wave, field))
    assert events == ref_events
    assert not np.array_equal(wave.phases, run_transient(base)[0].phases)


def test_scaled_changes_only_the_named_values():
    base = Circuit.from_netlist(flatten(parse_netlist(data.load_text("mcg_tb.cir"))))
    before = {k: getattr(base, k).copy() for k in ("ic", "cap", "g", "l", "src_v")}
    variant = base.scaled({"b2": 1.5, "Ib1": 0.5})  # names match case-insensitively
    for k, values in before.items():
        assert np.array_equal(getattr(base, k), values)  # the original is untouched
    want_ic = before["ic"].copy()
    want_ic[base.junction_names.index("B2")] *= 1.5
    want_src = before["src_v"].copy()
    want_src[:, base.source_names.index("Ib1")] *= 0.5
    assert np.array_equal(variant.ic, want_ic)
    assert np.array_equal(variant.src_v, want_src)
    for k in ("cap", "g", "l"):
        assert np.array_equal(getattr(variant, k), before[k])
    assert variant.Dj is base.Dj and variant.src_t is base.src_t  # topology is shared
    with pytest.raises(ValueError, match="read-only"):  # so no copy can change another
        variant.ic[0] = 0.0


@pytest.mark.parametrize("name", ["B9", "R1", "L1"])
def test_scaled_rejects_unknown_names_and_other_kinds(name):
    base = Circuit.from_netlist(flatten(parse_netlist(data.load_text("mcg_tb.cir"))))
    with pytest.raises(ValueError, match=f"'{name}'"):
        base.scaled({name: 2.0})


def test_scaled_short_name_is_the_cell_element():
    base = Circuit.from_netlist(flatten(parse_netlist(data.load_text("ndro_cell_tb.cir"))))
    short, full = base.scaled({"B1": 1.3}), base.scaled({"X1.B1": 1.3})
    for k in ("ic", "src_v"):
        assert getattr(short, k).tobytes() == getattr(full, k).tobytes()
    assert short.ic.tobytes() != base.ic.tobytes()


def test_waveform_short_name_is_the_cell_junction():
    flat = flatten(parse_netlist(data.load_text("ndro_cell_tb.cir")))
    wave, _ = run_transient(flat, tstop=20e-12)
    assert wave.phase("B1").tobytes() == wave.phase("X1.B1").tobytes()
    assert wave.junction_voltage("b1").tobytes() == wave.junction_voltage("X1.B1").tobytes()
    window = (0.0, 10e-12)
    assert pulse_area(wave, "B1", window) == pulse_area(wave, "X1.B1", window)


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["Bq", "Iset1"])
def test_scaled_rejects_non_finite_factors(name, factor):
    # a NaN or infinite value would only surface later as a Newton failure at t = 0
    base = Circuit.from_netlist(flatten(parse_netlist(bench.storage_loop_tb(n_sets=1))))
    with pytest.raises(ValueError, match=f"'{name}'.*finite"):
        base.scaled({name: factor})


class _EveryStepEngine(_Engine):
    """Reference run: the same engine with the rest skip off, so it steps every step."""

    def _at_rest(self, *earlier):
        return False


class _CountingEngine(_Engine):
    """Counts the Newton step attempts of a run."""

    tries = 0

    def _try_step(self, h):
        self.tries += 1
        return super()._try_step(h)


_SOURCE_FREE = "R1 1 0 5\nL1 1 0 1p\n.tran 0.1p 100p\n"
_LOOP = data.load_text("storage_loop_tb.cir")
_SHIPPED = sorted(p.name for p in resources.files(data).iterdir() if p.name.endswith(".cir"))
_REST_CASES = {
    **{name: data.load_text(name) for name in _SHIPPED},
    "storage_loop_multi": bench.storage_loop_tb(n_sets=1, multi=True),
    "source_free": _SOURCE_FREE,
    # the write starts between grid times, so the step that first sees it ends past it
    "write_off_grid": _LOOP.replace("pulse(100.0p ", "pulse(100.05p "),
    # recording starts inside the rest
    "recording_start": _LOOP.replace(".tran 0.1p 250p", ".tran 0.1p 250p 50p"),
    # one step more, so the period-2 rest ends on the other state of its cycle
    "stop_one_step_later": _LOOP.replace(".tran 0.1p 250p", ".tran 0.1p 250.1p"),
    # a scaled value: the period-2 rest starts one step earlier
    "scaled_icrit": _LOOP.replace("icrit=300u", "icrit=330u"),
    # the state from before the bump comes back two steps on, but across another source
    # row, so it starts no period-2 rest
    "bump_between_rests": "R1 1 0 5\nI1 0 1 pwl(0 0 10.05p 0 10.1p 1u 10.15p 0)\n.tran 0.1p 20p\n",
}


def test_rest_cases_cover_the_shipped_files_and_edits():
    assert len(_SHIPPED) == 7
    assert len({*_REST_CASES.values()}) == len(_REST_CASES)  # each edit took


@pytest.mark.parametrize("text", _REST_CASES.values(), ids=_REST_CASES.keys())
def test_rest_skip_is_bit_identical_to_stepping_every_step(text):
    circuit = Circuit.from_netlist(flatten(parse_netlist(text)))
    engine, ref = _Engine(circuit), _EveryStepEngine(circuit)
    (wave, events), (ref_wave, ref_events) = engine.run(), ref.run()
    for name in ("times", "voltages", "phases", "inductor_currents"):
        assert np.array_equal(getattr(wave, name), getattr(ref_wave, name)), name
    assert events == ref_events
    # the run also ends in the same state, down to the sign of every zero
    for name in ("x", "phi", "jv", "jdvdt", "time"):
        assert np.asarray(getattr(engine, name)).tobytes() == np.asarray(getattr(ref, name)).tobytes()


@pytest.mark.parametrize(
    "text, steps, most",
    # the storage loops rest with period 1 before their writes and with period 2 after
    # them; the MCG has two stretches of period-2 rest
    [
        (_LOOP, 2500, 427),
        (data.load_text("mndro_loop_tb.cir"), 4500, 1318),
        (data.load_text("mcg_tb.cir"), 2500, 1323),
        (_SOURCE_FREE, 1000, 1),
    ],
    ids=["storage_loop_tb", "mndro_loop_tb", "mcg_tb", "source_free"],
)
def test_rest_skip_skips_the_steps_at_rest(text, steps, most):
    engine = _CountingEngine(Circuit.from_netlist(flatten(parse_netlist(text))))
    wave, _ = engine.run()
    assert len(wave.times) == steps + 1
    assert 1 <= engine.tries <= most


def test_singular_newton_matrix_raises_without_a_warning():
    flat = flatten(parse_netlist(data.load_text("single_jj_tb.cir")))
    engine = _Engine(Circuit.from_netlist(flat))
    P, M, Q, S = engine._system(engine.dt)
    engine.eye_j = np.zeros_like(engine.eye_j)
    engine.systems[engine.dt] = (P, np.zeros_like(M), Q, S)  # I + M diag(g) is now all zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match="singular system matrix"):
            engine.run()


def test_newton_that_never_converges_halves_to_the_floor(monkeypatch):
    monkeypatch.setattr(analog, "NEWTON_MAX_ITERS", 0)
    with pytest.raises(SimulationError) as info:
        run_transient(Circuit.from_netlist(flatten(parse_netlist(_LOOP))))
    assert info.value.time == 0.0


@pytest.mark.parametrize("nj", range(1, 13))
def test_solve_gufunc_matches_numpy_solve_bit_for_bit(nj):
    # the Newton loop calls the gufunc inside np.linalg.solve, which numpy does not export
    rng = np.random.default_rng(nj)
    for _ in range(20):
        a = np.eye(nj) + 0.3 * rng.standard_normal((nj, nj)) / math.sqrt(nj)
        b = rng.standard_normal(nj)
        assert _solve1(a, b).tobytes() == np.linalg.solve(a, b).tobytes()


class _FullSpaceEngine(_Engine):
    """Reference step: Newton over all node and inductor unknowns, one n x n solve per iteration."""

    def _try_step(self, h):
        c, nn = self.circuit, self.nn
        A_h = c.base.copy()
        A_h[nn:] -= (h / (2.0 * c.l))[:, None] * c.Dl.T
        A_h += (c.Dj * (c.g + 2.0 * c.cap / h)) @ c.Dj.T
        t_new = self.time + h
        b_h = -(c.Ds @ self._sources_at(t_new))
        b_h[nn:] = self.x[nn:] + h / (2.0 * c.l) * (c.Dl.T @ self.x)

        a = math.pi * h / PHI0
        phi_hist = self.phi + a * self.jv
        i_hist = -2.0 * c.cap / h * self.jv - c.cap * self.jdvdt
        x = self.x
        for _ in range(NEWTON_MAX_ITERS):
            v = c.Dj.T @ x
            theta = phi_hist + a * v
            g_sin = c.ic * a * np.cos(theta)
            A = A_h + (c.Dj * g_sin) @ c.Dj.T
            b = b_h - c.Dj @ (c.ic * np.sin(theta) + i_hist - g_sin * v)
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
    ref_wave, ref_events = _FullSpaceEngine(Circuit.from_netlist(flat)).run()
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


_CELL_LOOP = ["L2", "L6", "B6", "B7", "B1"]  # the paper's B1-L2-L6-B6-B7, in walk order
_TWO_CELLS = (
    ".subckt cell a\nB1 a 0 jj1\nL1 a 0 2p\n.ends\n"
    "X1 n1 cell\nX2 n2 cell\n.model jj1 jj(icrit=100u)\n"
)


@pytest.mark.parametrize("check", [FluxoidLoop.from_names, loop_capacity], ids=["walk", "capacity"])
@pytest.mark.parametrize(
    "names, match",
    [
        ([], "empty"),
        (["Ls", "Ls"], "'Ls' names Ls a second time"),  # once walked "closed" and counted 0
        (["Ls", "Bq", "bin", "BIN"], "'BIN' names Bin a second time"),
        (["Ls", "Iset1"], "'Iset1' is not a junction or inductor"),
        (["Ls", "nope"], "'nope' matches nothing"),  # a ValueError, not a KeyError
    ],
    ids=["empty", "twice", "twice-by-case", "source", "unknown"],
)
def test_loop_element_check_is_shared(check, names, match):
    flat = flatten(parse_netlist(bench.storage_loop_tb()))
    with pytest.raises(ValueError, match=match):
        check(flat, names)


@pytest.mark.parametrize("name", ["ndro_cell_tb.cir", "mndro_cell_tb.cir"])
def test_loop_short_names_mean_the_cell_elements(name):
    flat = flatten(parse_netlist(data.load_text(name)))
    prefixed = ["X1." + n for n in _CELL_LOOP]
    assert FluxoidLoop.from_names(flat, _CELL_LOOP) == FluxoidLoop.from_names(flat, prefixed)
    assert loop_capacity(flat, _CELL_LOOP) == loop_capacity(flat, prefixed)


def test_ambiguous_short_name_raises_in_every_caller():
    flat = flatten(parse_netlist(_TWO_CELLS))
    circuit = Circuit.from_netlist(flat)
    calls = [
        lambda: FluxoidLoop.from_names(flat, ["B1", "X1.L1"]),
        lambda: loop_capacity(flat, ["B1", "X1.L1"]),
        lambda: circuit.scaled({"B1": 2.0}),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"'B1' is ambiguous: X1\.B1, X2\.B1"):
            call()


def test_state_at_rejects_times_outside_the_samples():
    flat = flatten(parse_netlist(data.load_text("storage_loop_tb.cir")))
    wave, _ = run_transient(flat, tstop=100e-12)
    assert wave.state_at(100e-12 + 5e-19).time == wave.times[-1]  # pulse_area's tolerance
    for t in (180e-12, -1e-12, math.nan):
        with pytest.raises(ValueError, match="outside the simulated range"):
            wave.state_at(t)


# --- storage capacity -----------------------------------------------------------


@pytest.mark.parametrize(
    "name, reading",
    [
        ("storage_loop_tb.cir", (1.209, 250e-6, 10e-12)),
        ("mndro_loop_tb.cir", (4.836, 250e-6, 40e-12)),
    ],
)
def test_loop_capacity_of_the_storage_loops(name, reading):
    # the smallest loop Ic is Bin's 250 uA, not Bq's 300 uA
    flat = flatten(parse_netlist(data.load_text(name)))
    phi, ic, l = loop_capacity(flat, bench.STORAGE_LOOP_NAMES)
    assert (round(phi, 3), ic, l) == reading


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


@pytest.mark.parametrize("name", ["ndro_cell_tb.cir", "mndro_cell_tb.cir"])
def test_shipped_cells_neither_store_nor_read(name):
    # the reconstructed cells are topology fixtures: the set pulse at 100 ps leaves
    # the storage loop empty and the output junction never slips (the slips fall on
    # the input buffers); a fix that makes a cell work has to flip this test
    flat = flatten(parse_netlist(data.load_text(name)))
    wave, events = run_transient(flat)
    assert count_fluxons(wave.state_at(180e-12), FluxoidLoop.from_names(flat, _CELL_LOOP)) == 0
    assert events and not any(e.junction == "X1.B11" for e in events)


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
