"""The four benchmark workloads, their seeded inputs and their correctness checks.

Each workload is a closed loop: one caller in one process, each op issued
when the previous one returns. Constructing a workload generates and loads
its inputs (the set-up that `setup_s` times); `run_pass` then runs one full
pass and records op latencies, counters, failures and output digests in a
`PassLog`. The checks test invariants of the physics and of the oracle, not
golden files, so fixes that change outputs in legitimate ways (for example
signed phase slips) keep the benchmark passing while the digest shows the
change.

Only public sfqsim API is called, through an `Api` whose functions are the
raw library functions when tracing is off and span-recording wrappers when
it is on.
"""

from __future__ import annotations

import hashlib
import random
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

from sfqsim import analog, bench, cells, data, margin, netlist, oracle, waveio
from sfqsim.cells import CellTimings, CircuitError, PulseEvent
from sfqsim.margin import MarginSpec

PS = 1e-12
FS = 1e-15


class CheckFailed(Exception):
    """A correctness check or a workload-shape guard did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Api:
    """The library calls a workload makes, each tagged with its layer span name."""

    def __init__(self, tracer):
        w = tracer.wrap
        self.tracer = tracer
        self.parse_netlist = w("netlist.parse", netlist.parse_netlist)
        self.lint = w("netlist.lint", netlist.lint)
        self.flatten = w("netlist.flatten", netlist.flatten)
        self.jtl_chain_tb = w("bench.build", bench.jtl_chain_tb)
        self.storage_loop_tb = w("bench.build", bench.storage_loop_tb)
        self.run_transient = w("analog.run", analog.run_transient)
        self.state_at = w("analog.measure", analog.Waveform.state_at)
        self.loop_from_names = w("analog.measure", analog.FluxoidLoop.from_names)
        self.count_fluxons = w("analog.measure", analog.count_fluxons)
        self.pulse_area = w("analog.measure", analog.pulse_area)
        self.write_waveform_csv = w("waveio.write", waveio.write_waveform_csv)
        self.write_vcd_waveform = w("waveio.write", waveio.write_vcd_waveform)
        self.write_events = w("waveio.write", waveio.write_events)
        self.write_vcd_events = w("waveio.write", waveio.write_vcd_events)
        self.read_events = w("waveio.read", waveio.read_events)
        self.scaled_timings = w("cells.build", cells.scaled_timings)
        self.simulate = w("cells.simulate", cells.simulate)
        self.run_oracle = w("oracle.run", oracle.run_oracle)
        self.compare_trace = w("oracle.compare", oracle.compare_trace)
        self.margin_sweep = w("margin.sweep", margin.margin_sweep)
        self.builders = {
            "ndro": w("cells.build", cells.build_ndro),
            "mndro-rst": w("cells.build", lambda t=None: cells.build_mndro(True, t)),
            "mndro-dec": w("cells.build", lambda t=None: cells.build_mndro(False, t)),
        }


class PassLog:
    """What one pass did: op latencies, failures, simulated time and counters."""

    def __init__(self):
        self.op_s = array("d")  # compact, so that memory barely grows with passes
        self.failures: list[str] = []
        self.sim_ps = 0.0
        self.counts: Counter = Counter()
        self.steps_by_tb: Counter = Counter()
        self.unknowns: dict[str, int] = {}
        self.area_errs: list[float] = []
        self.outputs: list[str] = []  # digest material, hashed by seal()
        self.digest = ""
        self.checks = 0  # checks made outside any op; attempted alongside the ops

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def verify(self, condition: bool, message: str) -> None:
        """A check that is not part of one op, such as a whole sweep or a shape guard."""
        self.checks += 1
        if not condition:
            self.fail(message)

    def op(self, tracer, fn, *args) -> None:
        """Run one op; an exception or a failed check counts as a failed op."""
        tracer.begin_op()
        start = time.perf_counter()
        try:
            fn(*args)
        except Exception as exc:  # every failure is counted and reported, not fatal
            self.fail(f"{type(exc).__name__}: {exc}")
        finally:
            self.op_s.append(time.perf_counter() - start)

    def seal(self) -> None:
        """Hash the digest material and drop it, so that memory does not grow with passes."""
        h = hashlib.sha256()
        for part in self.outputs:
            h.update(part.encode())
            h.update(b"\n")
        self.digest = h.hexdigest()[:16]
        self.outputs = []


def _slips(events) -> str:
    return " ".join(f"{e.junction}@{round(e.time / FS)}" for e in events)


def _pulses(events) -> str:
    return " ".join(f"{e.port}@{round(e.time / FS)}" for e in events)


def _net_slips(events, junction: str) -> int:
    # counts antifluxon slips as -1 once the engine reports a direction
    return sum(getattr(e, "direction", 1) for e in events if e.junction == junction)


class Workload:
    name = ""
    # every run makes at least this many passes; the tail percentile is chosen
    # from the op count these passes guarantee, so it does not depend on speed
    min_passes = 3

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")

    def warmup(self, api: Api) -> PassLog:
        """A short untimed run that lets lazy set-up finish before timing."""
        raise NotImplementedError

    def run_pass(self, api: Api, log: PassLog) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------- tran-cells


@dataclass(frozen=True)
class _TranCase:
    tb: str
    text: str
    expect: tuple


# stage-count strata of the seed-drawn JTL chains (35 to 83 unknowns); they
# are narrow so that the work in a pass, and with it wall time, op latency and
# peak memory, barely depends on the seed, and every chain costs more than the
# median shipped testbench, so op_ms_p50 does not hinge on a drawn size
CHAIN_STRATA = [(8, 9), (12, 13), (16, 17), (19, 20)]
CHAIN_PULSES = 3

# the shipped testbenches and the invariant each must hold; the two cell
# testbenches are topology fixtures with no functional invariant, so they
# only have to run
SHIPPED_EXPECT = {
    "single_jj_tb": ("area",),
    "jtl_chain_tb": ("chain", 3, 5),  # bench.jtl_chain_tb() defaults
    "mcg_tb": ("slips", bench.MCG_OUTPUT_JUNCTION, 3),
    "storage_loop_tb": ("fluxons", 1),
    "mndro_loop_tb": ("fluxons", 3),
    "ndro_cell_tb": ("runs",),
    "mndro_cell_tb": ("runs",),
}
LOOP_VARIANTS = ("storage_loop_single_var", "storage_loop_multi_var")
TESTBENCHES = (
    *SHIPPED_EXPECT,
    *(f"jtl_chain_s{k}" for k in range(1, len(CHAIN_STRATA) + 1)),
    *LOOP_VARIANTS,
)


class TranCells(Workload):
    """`tran` on every shipped netlist and four seed-drawn JTL chains.

    Each op formats the CSV, VCD and event text as `sfqsim tran --out --vcd
    --events` does, but does not write it to disk (see README.md).
    """

    name = "tran-cells"
    min_passes = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.cases = [
            _TranCase(tb, data.load_text(f"{tb}.cir"), expect)
            for tb, expect in SHIPPED_EXPECT.items()
        ]
        for k, (lo, hi) in enumerate(CHAIN_STRATA, start=1):
            stages = rng.randint(lo, hi)
            amp = round(rng.uniform(380.0, 420.0), 1)
            text = bench.jtl_chain_tb(n_pulses=CHAIN_PULSES, stages=stages, amp_ua=amp)
            self.cases.append(
                _TranCase(f"jtl_chain_s{k}", text, ("chain", CHAIN_PULSES, stages))
            )
        rng.shuffle(self.cases)

    def warmup(self, api: Api) -> PassLog:
        log = PassLog()
        case = min(self.cases, key=lambda c: len(c.text))
        log.op(api.tracer, self._tran, api, log, case)
        return log

    def run_pass(self, api: Api, log: PassLog) -> None:
        for case in self.cases:
            api.tracer.label(case.tb)
            log.op(api.tracer, self._tran, api, log, case)

    def _tran(self, api: Api, log: PassLog, case: _TranCase) -> None:
        net = api.parse_netlist(case.text)
        errors = [d for d in api.lint(net) if d.severity == "error"]
        log.counts["netlist.calls"] += 3
        check(not errors, f"{case.tb}: lint errors {errors}")
        flat = api.flatten(net)
        try:
            wave, events = api.run_transient(flat)
        except Exception:
            log.counts["analog.errors"] += 1
            raise
        trace = [PulseEvent(e.time, e.junction) for e in events]
        texts = {
            "csv": api.write_waveform_csv(wave),
            "vcd": api.write_vcd_waveform(wave),
            "events": api.write_events(trace),
        }
        steps = len(wave.times) - 1
        log.counts["analog.runs"] += 1
        log.counts["analog.steps"] += steps
        log.counts["waveio.bytes_out"] += sum(len(t) for t in texts.values())
        log.steps_by_tb[case.tb] += steps
        log.unknowns[case.tb] = len(wave.node_names) + len(wave.inductor_names)
        log.sim_ps += float(wave.times[-1] - wave.times[0]) / PS
        log.outputs.append(f"{case.tb} {_slips(events)}")
        self._check(api, log, case, flat, wave, events)

    def _check(self, api, log, case, flat, wave, events) -> None:
        check(bool(np.isfinite(wave.phases).all()), f"{case.tb}: non-finite phases")
        kind = case.expect[0]
        if kind == "chain":
            _, n, stages = case.expect
            first = _net_slips(events, "B1")
            last = _net_slips(events, f"B{stages}")
            check(first == last == n, f"{case.tb}: B1 {first}, B{stages} {last}, {n} pulses in")
        elif kind == "slips":
            _, junction, n = case.expect
            got = _net_slips(events, junction)
            check(got == n, f"{case.tb}: {got} slips on {junction}, want {n}")
        elif kind == "fluxons":
            loop = api.loop_from_names(flat, bench.STORAGE_LOOP_NAMES)
            n = api.count_fluxons(api.state_at(wave, float(wave.times[-1])), loop)
            log.outputs.append(f"{case.tb} fluxons {n}")
            check(n == case.expect[1], f"{case.tb}: {n} fluxons stored, want {case.expect[1]}")
        elif kind == "area":
            slips = [e for e in events if e.junction == "B1"]
            check(len(slips) >= 2, f"{case.tb}: fewer than two slips")
            for e0, e1 in zip(slips, slips[1:]):
                area = api.pulse_area(wave, "B1", (e0.time, e1.time))
                err = abs(area - analog.PHI0) / analog.PHI0
                check(err < 0.01, f"{case.tb}: pulse area off by {err:.2%} at {e0.time:.4e} s")
                log.area_errs.append(err)


# ------------------------------------------------------------ analog-margins


class AnalogMargins(Workload):
    """`margin_sweep` over storage-loop variants; every point is a full transient."""

    name = "analog-margins"
    min_passes = 3
    min_transients = 40

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        # (multi, nominal write amplitude uA, nominal quantizer Ic uA); the
        # amplitude windows sit inside each loop's measured pass interval
        self.variants = [
            (False, round(rng.uniform(450.0, 520.0), 1), round(rng.uniform(285.0, 315.0), 1)),
            (True, round(rng.uniform(420.0, 510.0), 1), round(rng.uniform(285.0, 315.0), 1)),
        ]
        for multi in (False, True):
            text = bench.storage_loop_tb(n_sets=1, multi=multi)
            check(
                "icrit=300u" in text and f" {self._base_amp(multi)}u " in text,
                "storage-loop template no longer carries the swept values",
            )

    @staticmethod
    def _base_amp(multi: bool) -> int:
        return bench.LOOP_WRITE_MULTI_UA if multi else bench.LOOP_WRITE_SINGLE_UA

    def _point(self, api: Api, log: PassLog, multi: bool, amp: float, ic: float):
        base_amp = self._base_amp(multi)
        tb = LOOP_VARIANTS[multi]

        def body(factors: dict[str, float]) -> bool:
            text = api.storage_loop_tb(n_sets=1, multi=multi)
            text = text.replace("icrit=300u", f"icrit={ic * factors.get('quantizer_ic', 1.0):.1f}u")
            text = text.replace(f" {base_amp}u ", f" {amp * factors.get('write_amp', 1.0):.1f}u ")
            flat = api.flatten(api.parse_netlist(text))
            log.counts["netlist.calls"] += 2
            try:
                wave, _ = api.run_transient(flat)
            except Exception:
                log.counts["analog.errors"] += 1
                raise
            loop = api.loop_from_names(flat, bench.STORAGE_LOOP_NAMES)
            n = api.count_fluxons(api.state_at(wave, float(wave.times[-1])), loop)
            steps = len(wave.times) - 1
            log.counts["analog.runs"] += 1
            log.counts["analog.steps"] += steps
            log.steps_by_tb[tb] += steps
            log.unknowns[tb] = len(wave.node_names) + len(wave.inductor_names)
            log.sim_ps += float(wave.times[-1] - wave.times[0]) / PS
            log.outputs.append(f"{tb} {sorted(factors.items())} {n}")
            return n == 1

        return tb, body

    def warmup(self, api: Api) -> PassLog:
        log = PassLog()
        _, body = self._point(api, log, *self.variants[0])
        log.op(api.tracer, body, {})
        return log

    def run_pass(self, api: Api, log: PassLog) -> None:
        for multi, amp, ic in self.variants:
            tb, body = self._point(api, log, multi, amp, ic)
            api.tracer.label(tb)
            spec = MarginSpec(
                parameters=[("write_amp", amp * 1e-6), ("quantizer_ic", ic * 1e-6)],
                pass_fn=_margin_pass(api, log, body),
                search_bounds=(0.5, 2.0),
                resolution=0.01,
            )
            _sweep(api, log, spec, tb)
        transients = log.counts["analog.runs"]
        log.verify(
            transients >= self.min_transients,
            f"shape: {transients} transients in a pass, want >= {self.min_transients}",
        )


# ------------------------------------------------- behavioral schedule inputs

# Each motif starts and ends with the memory empty, so the motif mix fixes the
# number of clocks and output pulses; the seed only orders the motifs and draws
# the gaps. On `mndro-dec` a reset removes one fluxon, so motifs clear with one
# reset per stored fluxon.
MOTIFS = {
    "ndro": [
        ("set", "clk", "rst"),
        ("set", "clk", "clk", "rst"),
        ("set", "set", "clk", "rst"),
        ("clk",),
        ("rst",),
    ],
    "mndro-rst": [
        ("set", "clk", "rst"),
        ("set", "set", "clk", "rst"),
        ("set", "set", "set", "clk", "clk", "rst"),
        ("set", "set", "set", "set", "clk", "rst"),
        ("clk",),
    ],
    "mndro-dec": [
        ("set", "clk", "rst"),
        ("set", "set", "clk", "rst", "clk", "rst"),
        ("set", "set", "set", "clk", "rst", "clk", "rst", "clk", "rst"),
        ("set", "set", "set", "set", "clk", "rst", "rst", "rst"),
        ("clk",),
    ],
}
KINDS = tuple(MOTIFS)
# a read whose reset follows the 15.5 ps reload closely, then a read that
# must come out empty (see make_schedule)
TIGHT = ("set", "clk", "tight-rst", "clk")
CLOCK_GAP_PS = 55.0  # above the 50 ps grouping window of compare_trace


def make_schedule(kind: str, n_symbols: int, rng: random.Random) -> list[PulseEvent]:
    """About n_symbols input pulses that pass the oracle at nominal timing.

    The schedule repeats each motif of the circuit equally often, in seeded
    order, with seeded gaps (ps) that keep every reload and replicated pulse
    clear of the next input at nominal timing. `ndro` schedules also hold one
    read in ten rounds (at least one) whose reset arrives 18 to 19.5 ps after
    the clock, just after the reload returns: scaling any delay on the reload
    path then moves the reset ahead of the reload, the next read finds the
    memory set again, and that parameter gets a finite upper margin edge. On
    the M-NDRO circuits `mcg_spacing` has finite edges of its own.
    """
    motifs = MOTIFS[kind]
    rounds = max(1, round(n_symbols / sum(len(m) for m in motifs)))
    order = [m for m in motifs for _ in range(rounds)]
    if kind == "ndro":
        order += [TIGHT] * max(1, rounds // 10)
    rng.shuffle(order)
    t = 100.0
    last_clk = -1e9
    prev = None
    events = []
    for sym in (sym for motif in order for sym in motif):
        if sym == "tight-rst":
            sym, gap = "rst", rng.uniform(18.0, 19.5)
        elif prev is None:
            gap = 0.0
        elif prev == "clk":
            gap = rng.uniform(55.0, 90.0) if sym == "clk" else rng.uniform(40.0, 70.0)
        elif prev == sym:
            gap = rng.uniform(22.0, 40.0)  # same port: outside the settling window
        else:
            gap = rng.uniform(16.0, 40.0)
        if sym == "clk":
            gap = max(gap, last_clk + CLOCK_GAP_PS - t)
            last_clk = t + gap
        t += gap
        events.append(PulseEvent(round(t, 3) * PS, sym))
        prev = sym
    return events


def load_schedule(events: list[PulseEvent]) -> waveio.PulseSchedule:
    """Round-trip generated events through the schedule text format."""
    text = waveio.write_schedule(waveio.PulseSchedule(["set", "rst", "clk"], events))
    return waveio.read_schedule(text)


def _margin_pass(api: Api, log: PassLog, body):
    """The pass function handed to margin_sweep; each call is one timed op."""
    calls = []

    def pass_fn(factors: dict[str, float]) -> bool:
        api.tracer.begin_op()
        calls.append(next(iter(factors.items()), None))
        start = time.perf_counter()
        try:
            return body(factors)
        except Exception as exc:
            log.fail(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            log.op_s.append(time.perf_counter() - start)

    wrapped = api.tracer.wrap("margin.pass", pass_fn)
    wrapped.calls = calls
    return wrapped


def _scan_points(calls, spec: MarginSpec) -> int:
    """Island-scan calls: points on the scan grid other than each parameter's bracket checks."""
    lo, hi = spec.search_bounds
    n = margin.ISLAND_SCAN_POINTS
    grid = {lo + (hi - lo) * i / (n - 1) for i in range(n)}
    brackets = set()
    scans = 0
    for call in calls:
        if call is None or call[1] not in grid:
            continue
        if call[1] in (lo, hi) and call not in brackets:
            brackets.add(call)
        else:
            scans += 1
    return scans


def _sweep(api: Api, log: PassLog, spec: MarginSpec, label: str):
    """Run one sweep; the sweep as a whole is one check: it must return a sane report."""
    try:
        report = api.margin_sweep(spec)
    except Exception as exc:  # MarginError, or whatever the nominal point raised
        log.verify(False, f"{label}: {type(exc).__name__}: {exc}")
        return None
    calls = spec.pass_fn.calls
    log.counts["margin.points"] += len(calls)
    log.counts["margin.scan_points"] += _scan_points(calls, spec)
    log.counts["margin.saturated_sides"] += sum(
        p.saturated_low + p.saturated_high for p in report.per_parameter
    )
    outside = [p.name for p in report.per_parameter if not p.low <= 1.0 <= p.high]
    log.verify(not outside, f"{label}: the intervals of {outside} exclude nominal")
    log.outputs.append(f"{label}\n{margin.report_csv(report)}")
    return report


# -------------------------------------------------------------- bsim-margins


NOMINAL_TIMINGS = CellTimings()


class BsimMargins(Workload):
    """Behavioral `margin_sweep` on all three built-in circuits, as `sfqsim margins` runs it."""

    name = "bsim-margins"
    min_passes = 3
    schedule_symbols = 160
    min_edges = 6
    params = ("jtl_delay", "spl_delay", "cbu_delay", "mem_delay", "mcg_spacing")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.schedules = {
            kind: load_schedule(make_schedule(kind, self.schedule_symbols, self.rng))
            for kind in KINDS
        }

    def warmup(self, api: Api) -> PassLog:
        log = PassLog()
        self.run_pass(api, log)
        return log

    def _point(self, api: Api, log: PassLog, kind: str):
        """The pass function body for one circuit, wired as `sfqsim margins` wires it."""
        sched = self.schedules[kind]
        expected = [c for _, c in api.run_oracle(kind, [e.port.upper() for e in sched.events])]
        clocks = sched.times_on("clk")
        tstop = max(e.time for e in sched.events) + 200e-12
        build = api.builders[kind]

        def body(factors: dict[str, float]) -> bool:
            try:
                circuit = build(api.scaled_timings(NOMINAL_TIMINGS, factors))
            except CircuitError:
                return False
            result = api.simulate(circuit, sched.events, tstop)
            verdict = api.compare_trace(expected, result.outputs, clocks)
            log.counts["cells.simulate_calls"] += 1
            log.counts["cells.pulses_in"] += len(sched.events)
            log.counts["cells.pulses_out"] += len(result.outputs)
            log.counts["oracle.compare_calls"] += 1
            log.counts["oracle.clocks"] += len(clocks)
            log.sim_ps += tstop / PS
            if not factors:
                log.outputs.append(f"{kind} nominal {_pulses(result.outputs)}")
            return verdict.passed

        return body

    def run_pass(self, api: Api, log: PassLog) -> None:
        finite = set()
        edges = 0
        for kind in KINDS:
            api.tracer.label(kind)
            names = [p for p in self.params if p != "mcg_spacing" or kind != "ndro"]
            spec = MarginSpec(
                parameters=[(p, getattr(NOMINAL_TIMINGS, p)) for p in names],
                pass_fn=_margin_pass(api, log, self._point(api, log, kind)),
            )
            report = _sweep(api, log, spec, kind)
            if report is not None:
                for p in report.per_parameter:
                    sides = (not p.saturated_low) + (not p.saturated_high)
                    edges += sides
                    if sides:
                        finite.add(p.name)
        log.verify(
            edges >= self.min_edges and finite == set(self.params),
            f"shape: {edges} finite margin edges (want >= {self.min_edges}), "
            f"parameters without one: {sorted(set(self.params) - finite)}",
        )


# --------------------------------------------------------------- bsim-replay


class BsimReplay(Workload):
    """bsim -> events text -> oracle over one long schedule per circuit."""

    name = "bsim-replay"
    min_passes = 14
    schedule_symbols = 12000
    min_clocks = 10000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.schedules = {
            kind: load_schedule(make_schedule(kind, self.schedule_symbols, self.rng))
            for kind in KINDS
        }

    def warmup(self, api: Api) -> PassLog:
        log = PassLog()
        log.op(api.tracer, self._replay, api, log, "ndro")
        return log

    def run_pass(self, api: Api, log: PassLog) -> None:
        for kind in KINDS:
            api.tracer.label(kind)
            log.op(api.tracer, self._replay, api, log, kind)
        clocks = log.counts["oracle.clocks"]
        log.verify(clocks >= self.min_clocks, f"shape: {clocks} clocks, want >= {self.min_clocks}")

    def _replay(self, api: Api, log: PassLog, kind: str) -> None:
        sched = self.schedules[kind]
        tstop = max(e.time for e in sched.events) + 200e-12
        result = api.simulate(api.builders[kind](), sched.events, tstop)
        text = api.write_events(result.outputs)
        vcd = api.write_vcd_events(result.outputs)
        observed = api.read_events(text)
        check(
            _pulses(observed) == _pulses(result.outputs),
            f"{kind}: events read back differ from the events written",
        )
        expected = [c for _, c in api.run_oracle(kind, [e.port.upper() for e in sched.events])]
        clocks = sched.times_on("clk")
        verdict = api.compare_trace(expected, observed, clocks)
        log.counts["cells.simulate_calls"] += 1
        log.counts["cells.pulses_in"] += len(sched.events)
        log.counts["cells.pulses_out"] += len(result.outputs)
        log.counts["waveio.bytes_out"] += len(text) + len(vcd)
        log.counts["waveio.bytes_in"] += len(text)
        log.counts["oracle.compare_calls"] += 1
        log.counts["oracle.clocks"] += len(clocks)
        log.sim_ps += tstop / PS
        log.outputs.append(f"{kind}\n{text}")
        check(verdict.passed, f"{kind}: oracle comparison {verdict}")


WORKLOADS = {w.name: w for w in (TranCells, AnalogMargins, BsimMargins, BsimReplay)}
