"""Transient simulation of Josephson junction netlists.

Modified nodal analysis with junction phases and inductor currents as
companion states. Junctions follow the RCSJ law

    I = Ic*sin(phi) + G*V + C*dV/dt,      V = (PHI0 / 2 pi) * dphi/dt

and integration is trapezoidal with per-step Newton iteration on the sine
nonlinearity. The unknowns x are the node voltages followed by the inductor
currents. Each element kind has an incidence matrix with one column per
element (+1 at its pos node, -1 at its neg node, ground dropped). The linear
step matrix A_h holds the resistors, the inductor KCL columns and
trapezoidal inductor rows (unit diagonal, -h/2L) and the junction G + 2C/h.

Only the nj junction currents are nonlinear, so Newton runs on the junction
voltages v = Dj^T x. Once per distinct step h (h only takes the values
dt/2^k) the engine inverts A_h and caches P = A_h^-1 Dj, M = Dj^T P, the
inductor-history map Q and the source map S. Each step forms the linear
response x_lin = Q x + S s(t) and u = Dj^T x_lin; each Newton iteration then
solves the nj x nj system

    (I + M diag(g)) v = u - M w0,    g = Ic*a*cos(theta),
                                     w0 = Ic*sin(theta) + i_hist - g*v

and recovers x = x_lin - P (w0 + g v). By the Woodbury identity this is the
iterate of the full n x n Newton step A_h + Dj diag(g) Dj^T, so A_h must be
nonsingular: every node needs a resistive, capacitive or inductive path, and
a junction with cap=0 needs an rn or r0 shunt. Newton stops when no node
voltage moves by NEWTON_VTOL and no inductor current by NEWTON_ITOL; a step
still moving after NEWTON_MAX_ITERS iterations is halved, down to dt/64.

A current source is its PWL points. At setup the engine tabulates all
sources on the sorted union of their times and 0, so s(t) at a step is one
bisect and at most one row interpolation.

SFQ pulses are detected as upward crossings of phi through pi + 2*pi*k,
timestamped by linear interpolation between samples.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .netlist import (
    GROUND,
    CurrentSource,
    Inductor,
    Junction,
    Netlist,
    NetlistError,
    Resistor,
)

PHI0 = 2.067833848e-15  # flux quantum h/2e, webers
PHI0_OVER_2PI = PHI0 / (2.0 * math.pi)

# default junction capacitance when the model card omits it: 0.7 fF per uA of
# critical current (100 uA/um^2 density, 70 fF/um^2 specific capacitance)
CAP_PER_AMP = 0.7e-15 / 1e-6

NEWTON_VTOL = 1e-6  # volts
NEWTON_ITOL = 1e-9  # amperes
NEWTON_MAX_ITERS = 50
SLIP_PHASE = math.pi  # slips are upward crossings of SLIP_PHASE + 2*pi*k


class SimulationError(RuntimeError):
    """Newton failed to converge even after step halving."""

    def __init__(self, message: str, time: float):
        super().__init__(f"{message} (t={time:.4e} s)")
        self.time = time


class StructuralError(RuntimeError):
    """The netlist produces a singular system (or is otherwise unsolvable)."""


@dataclass(frozen=True)
class PhaseSlipEvent:
    junction: str
    time: float
    index: int  # count of prior slips on this junction


@dataclass(frozen=True)
class CircuitState:
    time: float
    node_voltages: dict[str, float]
    junction_phases: dict[str, float]
    inductor_currents: dict[str, float]


@dataclass
class Waveform:
    """Sampled transient results on the fixed dt grid."""

    times: np.ndarray
    node_names: list[str]
    junction_names: list[str]
    inductor_names: list[str]
    voltages: np.ndarray            # shape (nsamples, nnodes)
    phases: np.ndarray              # shape (nsamples, njunctions)
    inductor_currents: np.ndarray   # shape (nsamples, ninductors)
    junction_nodes: dict[str, tuple[int, int]] = field(default_factory=dict)

    def phase(self, junction: str) -> np.ndarray:
        return self.phases[:, self.junction_names.index(junction)]

    def junction_voltage(self, junction: str) -> np.ndarray:
        p, n = self.junction_nodes[junction]
        vp = self.voltages[:, p] if p >= 0 else 0.0
        vn = self.voltages[:, n] if n >= 0 else 0.0
        return vp - vn

    def state_at(self, time: float) -> CircuitState:
        i = int(np.argmin(np.abs(self.times - time)))
        return CircuitState(
            time=float(self.times[i]),
            node_voltages={n: float(self.voltages[i, j]) for j, n in enumerate(self.node_names)},
            junction_phases={n: float(self.phases[i, j]) for j, n in enumerate(self.junction_names)},
            inductor_currents={
                n: float(self.inductor_currents[i, j]) for j, n in enumerate(self.inductor_names)
            },
        )


class _Engine:
    """One transient run over a flat netlist; owns all mutable state."""

    def __init__(self, flat: Netlist, dt: float | None = None, tstop: float | None = None):
        if not flat.is_flat():
            raise StructuralError("netlist must be flattened before simulation")
        tran = flat.tran
        self.dt = dt if dt is not None else (tran.step if tran else 0.1e-12)
        if tstop is None:
            if tran is None:
                raise StructuralError("no .tran directive and no tstop override")
            tstop = tran.stop
        self.tstop = tstop
        self.tstart = tran.start if tran else 0.0  # recording start
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.tstart < tstop:
            raise StructuralError(
                f"stop time {tstop:g} s must be after the start time {self.tstart:g} s"
            )

        self.node_names = flat.nodes()
        self.nn = nn = len(self.node_names)
        node_index = {n: i for i, n in enumerate(self.node_names)}

        def of_type(cls):
            return [e for e in flat.elements if isinstance(e, cls)]

        self.junctions = of_type(Junction)
        self.inductors = of_type(Inductor)
        resistors = of_type(Resistor)
        sources = of_type(CurrentSource)
        n = nn + len(self.inductors)

        def incidence(elements) -> np.ndarray:
            D = np.zeros((n, len(elements)))
            for k, e in enumerate(elements):
                if e.pos != GROUND:
                    D[node_index[e.pos], k] += 1.0
                if e.neg != GROUND:
                    D[node_index[e.neg], k] -= 1.0
            return D

        self.Dj = incidence(self.junctions)
        self.Dl = incidence(self.inductors)
        self.Ds = incidence(sources)
        Dr = incidence(resistors)
        self.junction_nodes = {
            j.name: tuple(-1 if p == GROUND else node_index[p] for p in (j.pos, j.neg))
            for j in self.junctions
        }

        self.j_ic = np.empty(len(self.junctions))
        self.j_cap = np.empty(len(self.junctions))
        self.j_g = np.empty(len(self.junctions))
        for k, j in enumerate(self.junctions):
            model = flat.models.get(j.model.lower())
            if model is None:
                raise NetlistError(f"unknown model reference {j.model!r} in {j.name}")
            self.j_ic[k] = model.icrit * j.area
            cap = model.cap if model.cap is not None else CAP_PER_AMP * model.icrit
            self.j_cap[k] = cap * j.area
            self.j_g[k] = sum(1.0 / r for r in (model.rn, model.r0) if r is not None)
        self.l_val = np.array([l.value for l in self.inductors])
        self.eye_j = np.eye(len(self.junctions))

        # h-independent part: resistors, inductor currents entering KCL, and the
        # unit diagonal of the inductor rows
        self.base = (Dr / np.array([r.value for r in resistors])) @ Dr.T
        self.base[:, nn:] += self.Dl
        self.base[nn:, nn:] += np.eye(len(self.inductors))
        # Newton tolerance per unknown: volts on node rows, amperes on inductor rows
        self.tol = np.full(n, NEWTON_VTOL)
        self.tol[nn:] = NEWTON_ITOL
        self.systems: dict[float, tuple[np.ndarray, ...]] = {}  # step h -> _system(h)

        # source table: one row per breakpoint, one column per source
        self.src_t = sorted({0.0, *(t for s in sources for t, _ in s.points)})
        grid = np.array(self.src_t)
        self.src_v = np.zeros((len(grid), len(sources)))
        for k, s in enumerate(sources):
            self.src_v[:, k] = np.interp(grid, *zip(*s.points))
        self.src_dv = np.diff(self.src_v, axis=0)
        self.src_dt = np.diff(grid).tolist()
        # rows to return as they are: no source moves before the next row, or it is the last
        self.src_hold = [*(~self.src_dv.any(axis=1)).tolist(), True]

        # state
        self.x = np.zeros(n)
        self.phi = np.zeros(len(self.junctions))
        self.jv = np.zeros(len(self.junctions))       # junction voltage
        self.jdvdt = np.zeros(len(self.junctions))
        self.slip_count = np.zeros(len(self.junctions), dtype=int)
        self.next_level = np.full(len(self.junctions), SLIP_PHASE)
        self.events: list[PhaseSlipEvent] = []
        self.time = 0.0

    def _sources_at(self, t: float) -> np.ndarray:
        """The source currents at t > 0; a hold row is returned as a view, not to be written."""
        k = bisect_right(self.src_t, t) - 1
        if self.src_hold[k]:
            return self.src_v[k]
        return self.src_v[k] + self.src_dv[k] * (t - self.src_t[k]) / self.src_dt[k]

    def _system(self, h: float) -> tuple[np.ndarray, ...]:
        """The maps of the step-h linear system: (P, M, Q, S), see the module docstring."""
        maps = self.systems.get(h)
        if maps is None:
            nn = self.nn
            hl = h / (2.0 * self.l_val)
            A = self.base.copy()
            A[nn:] -= hl[:, None] * self.Dl.T
            A += (self.Dj * (self.j_g + 2.0 * self.j_cap / h)) @ self.Dj.T
            try:
                A_inv = np.linalg.inv(A)
            except np.linalg.LinAlgError:
                bare = [self.node_names[i] for i in np.flatnonzero(~A[:nn].any(axis=1))]
                where = f" at node(s) {', '.join(bare)}" if bare else ""
                raise StructuralError(
                    f"singular system matrix{where}: every node needs a resistive, capacitive"
                    " or inductive path (a junction with cap=0 needs rn or r0)"
                ) from None
            P = A_inv @ self.Dj
            # inductor rows of the right-hand side: x_L + h/2L * Dl^T x
            hist = hl[:, None] * self.Dl.T
            hist[:, nn:] += np.eye(len(self.inductors))
            maps = (P, self.Dj.T @ P, A_inv[:, nn:] @ hist, -A_inv @ self.Ds)
            self.systems[h] = maps
        return maps

    def _step(self, h: float) -> None:
        """Advance by h, splitting the step on Newton failure."""
        x_new, ok = self._try_step(h)
        if ok:
            self._accept(h, x_new)
            return
        if h / 2.0 < self.dt / 64.0:
            raise SimulationError("Newton failed to converge", self.time)
        self._step(h / 2.0)
        self._step(h / 2.0)

    def _try_step(self, h: float) -> tuple[np.ndarray, bool]:
        P, M, Q, S = self._system(h)
        t_new = self.time + h
        x_lin = Q @ self.x + S @ self._sources_at(t_new)
        u = self.Dj.T @ x_lin

        a = math.pi * h / PHI0  # phase gain per volt: (2*pi/PHI0)*(h/2)
        phi_hist = self.phi + a * self.jv
        i_hist = -self.j_cap * (2.0 / h * self.jv + self.jdvdt)
        ic_a = self.j_ic * a

        x, v = self.x, self.jv
        for _ in range(NEWTON_MAX_ITERS):
            theta = phi_hist + a * v
            g_sin = ic_a * np.cos(theta)
            w0 = self.j_ic * np.sin(theta) + i_hist - g_sin * v
            try:
                v = np.linalg.solve(self.eye_j + M * g_sin, u - M @ w0)
            except np.linalg.LinAlgError as exc:
                raise StructuralError(f"singular system matrix: {exc}") from exc
            x_new = x_lin - P @ (w0 + g_sin * v)
            converged = (np.abs(x_new - x) < self.tol).all()
            x = x_new
            if converged:
                return x, True
        return x, False

    def _accept(self, h: float, x_new: np.ndarray) -> None:
        a = math.pi * h / PHI0
        jv_new = self.Dj.T @ x_new
        phi_new = self.phi + a * (self.jv + jv_new)

        crossed = phi_new >= self.next_level
        if crossed.any():
            for k in np.flatnonzero(crossed):
                level = self.next_level[k]
                while phi_new[k] >= level and self.phi[k] < level:
                    frac = (level - self.phi[k]) / (phi_new[k] - self.phi[k])
                    self.events.append(
                        PhaseSlipEvent(
                            self.junctions[k].name, self.time + frac * h, int(self.slip_count[k])
                        )
                    )
                    self.slip_count[k] += 1
                    level += 2.0 * math.pi
            self.next_level = SLIP_PHASE + 2.0 * math.pi * self.slip_count

        self.jdvdt = (jv_new - self.jv) * (2.0 / h) - self.jdvdt
        self.jv = jv_new
        self.phi = phi_new
        self.x = x_new
        self.time += h

    def run(self) -> tuple[Waveform, list[PhaseSlipEvent]]:
        # the last sample reaches tstop; the 1e-9 keeps float noise in the ratio
        # of a whole number of steps from adding one
        nsteps = math.ceil(self.tstop / self.dt - 1e-9)
        nn = self.nn
        try:
            times = np.empty(nsteps + 1)
            volts = np.empty((nsteps + 1, nn))
            phases = np.empty((nsteps + 1, len(self.junctions)))
            il = np.empty((nsteps + 1, len(self.inductors)))
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's size limit
            raise StructuralError(f"cannot allocate samples for {nsteps} time steps") from exc

        def record(i: int) -> None:
            times[i] = self.time
            volts[i] = self.x[:nn]
            phases[i] = self.phi
            il[i] = self.x[nn:]

        record(0)
        for i in range(1, nsteps + 1):
            self._step(self.dt)
            # keep the grid exact despite accumulated float addition
            self.time = i * self.dt
            record(i)

        keep = times >= self.tstart - 1e-18
        wave = Waveform(
            times=times[keep],
            node_names=list(self.node_names),
            junction_names=[j.name for j in self.junctions],
            inductor_names=[l.name for l in self.inductors],
            voltages=volts[keep],
            phases=phases[keep],
            inductor_currents=il[keep],
            junction_nodes=self.junction_nodes,
        )
        events = [e for e in self.events if e.time >= self.tstart]
        return wave, events


def run_transient(
    flat: Netlist, dt: float | None = None, tstop: float | None = None
) -> tuple[Waveform, list[PhaseSlipEvent]]:
    """Simulate a flattened netlist; returns sampled waveforms and slip events.

    dt defaults to the .tran step, else 0.1 ps; tstop to the .tran stop.
    """
    return _Engine(flat, dt, tstop).run()


def pulse_area(waveform: Waveform, junction: str, window: tuple[float, float]) -> float:
    """Trapezoidal integral of a junction's voltage over [t1, t2], in webers."""
    t1, t2 = window
    if t1 >= t2:
        raise ValueError("window must satisfy t1 < t2")
    times = waveform.times
    if t1 < times[0] - 1e-18 or t2 > times[-1] + 1e-18:
        raise ValueError("window outside the simulated range")
    if junction not in waveform.junction_nodes:
        raise KeyError(junction)
    v = waveform.junction_voltage(junction)
    # interpolate the waveform onto the exact window edges
    grid = np.concatenate(([t1], times[(times > t1) & (times < t2)], [t2]))
    vals = np.interp(grid, times, v)
    return float(np.trapezoid(vals, grid))


@dataclass(frozen=True)
class FluxoidLoop:
    """A closed cycle of junctions/inductors with traversal orientations."""

    entries: tuple[tuple[str, str, int], ...]  # (kind, name, orientation)
    inductances: tuple[float, ...]             # per inductor entry, traversal order

    @classmethod
    def from_names(cls, flat: Netlist, names: list[str]) -> "FluxoidLoop":
        """Build a loop from element names, deriving orientations by walking the cycle.

        The first element is traversed pos->neg; each subsequent element must
        continue from the previous endpoint. The walk must return to its start.
        """
        elems = []
        for name in names:
            e = flat.element(name)
            if not isinstance(e, (Junction, Inductor)):
                raise ValueError(f"{name} is not a junction or inductor")
            elems.append(e)
        if not elems:
            raise ValueError("empty loop")
        entries: list[tuple[str, str, int]] = []
        inductances: list[float] = []
        start = elems[0].pos
        at = elems[0].pos
        for e in elems:
            if e.pos == at:
                orient, at = 1, e.neg
            elif e.neg == at:
                orient, at = -1, e.pos
            else:
                raise ValueError(f"loop not closed: {e.name} does not touch node {at}")
            kind = "junction" if isinstance(e, Junction) else "inductor"
            entries.append((kind, e.name, orient))
            if kind == "inductor":
                inductances.append(e.value)
        if at != start:
            raise ValueError(f"loop not closed: ends at {at}, started at {start}")
        return cls(tuple(entries), tuple(inductances))


def count_fluxons(state: CircuitState, loop: FluxoidLoop) -> int:
    """Fluxoid quantization count for a closed superconducting loop."""
    return int(round(loop_fluxoid(state, loop)))


def loop_fluxoid(state: CircuitState, loop: FluxoidLoop) -> float:
    """The raw loop quantity (sum L*I + reduced-flux * sum phi) / PHI0.

    Junction phases enter reduced to (-pi, pi]: with unwrapped phases the sum
    telescopes to its initial value by KVL, so the stored-flux count lives in
    the winding numbers, which the reduction exposes as an integer.
    """
    total = 0.0
    l_iter = iter(loop.inductances)
    for kind, name, orient in loop.entries:
        if kind == "inductor":
            total += orient * next(l_iter) * state.inductor_currents[name]
        else:
            phi = state.junction_phases[name]
            phi -= 2.0 * math.pi * round(phi / (2.0 * math.pi))
            total += orient * PHI0_OVER_2PI * phi
    return total / PHI0


def storage_capacity(loop_inductance: float, ic: float) -> float:
    """Ic*L in units of PHI0; >1 suggests single-fluxon, >3 three-fluxon storage."""
    if loop_inductance <= 0 or ic <= 0:
        raise ValueError("loop inductance and critical current must be positive")
    return ic * loop_inductance / PHI0
