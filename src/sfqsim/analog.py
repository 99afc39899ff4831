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
a junction with cap=0 needs an rn or r0 shunt. The nj x nj solve calls the
LAPACK gufunc inside np.linalg.solve directly, without the wrapper's checks:
a singular system comes back as NaN, which the step reports as
StructuralError. Newton stops when no node voltage moves by NEWTON_VTOL and
no inductor current by NEWTON_ITOL; a step still moving after
NEWTON_MAX_ITERS iterations is halved, down to dt/64.

A flat netlist compiles once into a Circuit: the incidence matrices, the
h-independent part of A_h, the junction and inductor value arrays and a
source table, which holds every source on the sorted union of their PWL
times and 0, so s(t) at a step is one bisect and at most one row
interpolation. A parameter variant is Circuit.scaled, a copy with scaled
value arrays; each run builds its own step maps and table differences from
the arrays it is given.

A circuit at rest is not stepped through. When a whole dt step, whose one
source lookup lands on a table row that holds (no source moves before the
next breakpoint), brings back bit for bit the state (x, phi, jv, jdvdt) of
one or two whole steps back on that same row, with no slip since, the state
repeats with period 1 or 2 until the next breakpoint. Period 2 is the
trapezoidal rest after a storage-loop write: jdvdt flips its sign on every
step. The run fills every later sample whose step still looks up that row,
alternately with the state before the step and the state after it, leaves
the engine in the state of the last filled sample, and resumes stepping at
the first step that reaches the next breakpoint. This is exact: a step is a
deterministic function of the state, h and the source values, so each
skipped step would map the same states under the same sources onto each
other again. A slip needs a phase to pass the next slip level, which lies
above every phase of the cycle once it has come round.

SFQ pulses are detected as upward crossings of phi through pi + 2*pi*k,
timestamped by linear interpolation between samples.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1  # np.linalg.solve without its wrapper

from .netlist import (
    GROUND,
    CurrentSource,
    Inductor,
    Junction,
    Netlist,
    NetlistError,
    Resistor,
    Tran,
    match_name,
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
        """A junction's phase; names resolve by the rule of netlist.match_name (B1 -> X1.B1)."""
        return self.phases[:, match_name(junction, self.junction_names, "junction")]

    def junction_voltage(self, junction: str) -> np.ndarray:
        """A junction's voltage; names resolve as in phase."""
        name = self.junction_names[match_name(junction, self.junction_names, "junction")]
        p, n = self.junction_nodes[name]
        vp = self.voltages[:, p] if p >= 0 else 0.0
        vn = self.voltages[:, n] if n >= 0 else 0.0
        return vp - vn

    def state_at(self, time: float) -> CircuitState:
        """The state at the sample nearest time; a time outside the samples raises ValueError."""
        if not self.times[0] - 1e-18 <= time <= self.times[-1] + 1e-18:
            raise ValueError(f"time {time:g} s is outside the simulated range")
        i = int(np.argmin(np.abs(self.times - time)))
        return CircuitState(
            time=float(self.times[i]),
            node_voltages={n: float(self.voltages[i, j]) for j, n in enumerate(self.node_names)},
            junction_phases={n: float(self.phases[i, j]) for j, n in enumerate(self.junction_names)},
            inductor_currents={
                n: float(self.inductor_currents[i, j]) for j, n in enumerate(self.inductor_names)
            },
        )


@dataclass(frozen=True, eq=False)
class Circuit:
    """A flat netlist compiled once: its topology, and its element values as read-only arrays.

    Dj, Dl and Ds are the junction, inductor and source incidence matrices and
    base the h-independent part of A_h; ic, cap, g and l are the values that
    enter A_h and the step. A run derives everything else from these arrays,
    so a scaled copy carries no stale data.
    """

    node_names: list[str]
    junction_names: list[str]
    inductor_names: list[str]
    source_names: list[str]
    junction_nodes: dict[str, tuple[int, int]]
    Dj: np.ndarray
    Dl: np.ndarray
    Ds: np.ndarray
    base: np.ndarray
    ic: np.ndarray
    cap: np.ndarray
    g: np.ndarray
    l: np.ndarray
    src_t: list[float]  # breakpoints: the sorted union of all source times and 0
    src_v: np.ndarray   # one row per breakpoint, one column per source
    tran: Tran | None

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @classmethod
    def from_netlist(cls, flat: Netlist) -> "Circuit":
        if not flat.is_flat():
            raise StructuralError("netlist must be flattened before simulation")
        node_names = flat.nodes()
        nn = len(node_names)
        node_index = {n: i for i, n in enumerate(node_names)}

        def of_type(kind):
            return [e for e in flat.elements if isinstance(e, kind)]

        junctions = of_type(Junction)
        inductors = of_type(Inductor)
        resistors = of_type(Resistor)
        sources = of_type(CurrentSource)
        n = nn + len(inductors)

        def incidence(elements) -> np.ndarray:
            D = np.zeros((n, len(elements)))
            for k, e in enumerate(elements):
                if e.pos != GROUND:
                    D[node_index[e.pos], k] += 1.0
                if e.neg != GROUND:
                    D[node_index[e.neg], k] -= 1.0
            return D

        Dl = incidence(inductors)
        Dr = incidence(resistors)
        # resistors, inductor currents entering KCL, and the unit diagonal of the inductor rows
        base = (Dr / np.array([r.value for r in resistors])) @ Dr.T
        base[:, nn:] += Dl
        base[nn:, nn:] += np.eye(len(inductors))

        cards = [flat.models.get(j.model.lower()) for j in junctions]
        for j, card in zip(junctions, cards):
            if card is None:
                raise NetlistError(f"unknown model reference {j.model!r} in {j.name}")
        area = np.array([j.area for j in junctions])

        src_t = sorted({0.0, *(t for s in sources for t, _ in s.points)})
        src_v = np.zeros((len(src_t), len(sources)))
        for k, s in enumerate(sources):
            src_v[:, k] = np.interp(src_t, *zip(*s.points))

        return cls(
            node_names=node_names,
            junction_names=[j.name for j in junctions],
            inductor_names=[l.name for l in inductors],
            source_names=[s.name for s in sources],
            junction_nodes={
                j.name: tuple(-1 if p == GROUND else node_index[p] for p in (j.pos, j.neg))
                for j in junctions
            },
            Dj=incidence(junctions),
            Dl=Dl,
            Ds=incidence(sources),
            base=base,
            ic=np.array([m.icrit for m in cards]) * area,
            cap=np.array([CAP_PER_AMP * m.icrit if m.cap is None else m.cap for m in cards]) * area,
            g=np.array([sum(1.0 / r for r in (m.rn, m.r0) if r is not None) for m in cards]),
            l=np.array([l.value for l in inductors]),
            src_t=src_t,
            src_v=src_v,
            tran=flat.tran,
        )

    def scaled(self, factors: dict[str, float]) -> "Circuit":
        """A copy with a junction's Ic, or all of a source's values, scaled per element name.

        Scaling Ic leaves the junction's cap and shunt as they are (a
        critical-current spread). A name means a junction or source by the rule
        of netlist.match_name (B1 -> X1.B1); a name that means none, or a factor
        that is not finite, raises ValueError.
        """
        ic, src_v = self.ic.copy(), self.src_v.copy()
        nj = len(self.junction_names)
        for name, factor in factors.items():
            if not math.isfinite(factor):
                raise ValueError(f"cannot scale {name!r} by {factor!r}: the factor must be finite")
            k = match_name(name, self.junction_names + self.source_names, "junction or source")
            if k < nj:
                ic[k] *= factor
            else:
                src_v[:, k - nj] *= factor
        return replace(self, ic=ic, src_v=src_v)


class _Engine:
    """One transient run of a compiled circuit; owns all mutable state."""

    def __init__(self, circuit: Circuit, dt: float | None = None, tstop: float | None = None):
        tran = circuit.tran
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

        # the arrays the step reads, bound once
        self.circuit = c = circuit
        self.nn = nn = len(c.node_names)
        self.Dj, self.ic, self.cap = c.Dj, c.ic, c.cap
        nj = len(c.junction_names)
        self.eye_j = np.eye(nj)
        # Newton tolerance per unknown: volts on node rows, amperes on inductor rows
        self.tol = np.full(len(c.base), NEWTON_VTOL)
        self.tol[nn:] = NEWTON_ITOL
        self.systems: dict[float, tuple[np.ndarray, ...]] = {}  # step h -> _system(h)

        self.src_t, self.src_v = c.src_t, c.src_v
        self.src_dv = np.diff(c.src_v, axis=0)
        self.src_dt = np.diff(c.src_t).tolist()
        # rows to return as they are: no source moves before the next row, or it is the last
        self.src_hold = [*(~self.src_dv.any(axis=1)).tolist(), True]

        # state
        self.x = np.zeros(len(c.base))
        self.phi = np.zeros(nj)
        self.jv = np.zeros(nj)       # junction voltage
        self.jdvdt = np.zeros(nj)
        self.slip_count = np.zeros(nj, dtype=int)
        self.next_level = np.full(nj, SLIP_PHASE)
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
            c, nn = self.circuit, self.nn
            hl = h / (2.0 * c.l)
            A = c.base.copy()
            A[nn:] -= hl[:, None] * c.Dl.T
            A += (c.Dj * (c.g + 2.0 * c.cap / h)) @ c.Dj.T
            try:
                A_inv = np.linalg.inv(A)
            except np.linalg.LinAlgError:
                bare = [c.node_names[i] for i in np.flatnonzero(~A[:nn].any(axis=1))]
                where = f" at node(s) {', '.join(bare)}" if bare else ""
                raise StructuralError(
                    f"singular system matrix{where}: every node needs a resistive, capacitive"
                    " or inductive path (a junction with cap=0 needs rn or r0)"
                ) from None
            P = A_inv @ self.Dj
            # inductor rows of the right-hand side: x_L + h/2L * Dl^T x
            hist = hl[:, None] * c.Dl.T
            hist[:, nn:] += np.eye(len(c.l))
            maps = (P, c.Dj.T @ P, A_inv[:, nn:] @ hist, -A_inv @ c.Ds)
            self.systems[h] = maps
        return maps

    def _step(self, h: float) -> bool:
        """Advance by h, splitting the step on Newton failure; True if it was taken whole."""
        x_new, ok = self._try_step(h)
        if ok:
            self._accept(h, x_new)
            return True
        if h / 2.0 < self.dt / 64.0:
            raise SimulationError("Newton failed to converge", self.time)
        self._step(h / 2.0)
        self._step(h / 2.0)
        return False

    def _try_step(self, h: float) -> tuple[np.ndarray, bool]:
        P, M, Q, S = self._system(h)
        t_new = self.time + h
        x_lin = Q @ self.x + S @ self._sources_at(t_new)
        u = self.Dj.T @ x_lin

        a = math.pi * h / PHI0  # phase gain per volt: (2*pi/PHI0)*(h/2)
        phi_hist = self.phi + a * self.jv
        i_hist = -self.cap * (2.0 / h * self.jv + self.jdvdt)
        ic_a = self.ic * a

        x, v = self.x, self.jv
        for _ in range(NEWTON_MAX_ITERS):
            theta = phi_hist + a * v
            g_sin = ic_a * np.cos(theta)
            w0 = self.ic * np.sin(theta) + i_hist - g_sin * v
            v = _solve1(self.eye_j + M * g_sin, u - M @ w0)
            x_new = x_lin - P @ (w0 + g_sin * v)
            converged = (np.abs(x_new - x) < self.tol).all()
            x = x_new
            if converged:
                return x, True
        # a singular solve returns NaN, and NaN never converges
        if np.isnan(v).any():
            raise StructuralError(
                f"singular system matrix: no unique Newton step from t={self.time:.4e} s"
            )
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
                            self.circuit.junction_names[k],
                            self.time + frac * h,
                            int(self.slip_count[k]),
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

    def _at_rest(self, *earlier: tuple) -> bool:
        """Whether the state is one of the earlier (x, phi, jv, jdvdt, event count) bit for bit."""
        x = self.x.tobytes()
        return any(
            e[0].tobytes() == x
            and e[4] == len(self.events)
            and e[1].tobytes() == self.phi.tobytes()
            and e[2].tobytes() == self.jv.tobytes()
            and e[3].tobytes() == self.jdvdt.tobytes()
            for e in earlier
        )

    def run(self) -> tuple[Waveform, list[PhaseSlipEvent]]:
        # the last sample reaches tstop; the 1e-9 keeps float noise in the ratio
        # of a whole number of steps from adding one
        nsteps = math.ceil(self.tstop / self.dt - 1e-9)
        c, nn, dt = self.circuit, self.nn, self.dt
        try:
            times = np.arange(nsteps + 1) * dt  # the grid the steps keep: i * dt
            states = np.empty((nsteps + 1, len(self.x)))
            phases = np.empty((nsteps + 1, len(self.phi)))
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's size limit
            raise StructuralError(f"cannot allocate samples for {nsteps} time steps") from exc

        states[0], phases[0] = self.x, self.phi
        i = 1
        back, back_row = None, None  # the state before the last step, and the row it looked up
        with np.errstate(invalid="ignore"):  # a singular solve's NaN raises in _try_step instead
            while i <= nsteps:
                before = self.x, self.phi, self.jv, self.jdvdt, len(self.events)
                last = i  # the last sample this step fills
                # a whole step looked the sources up once, at self.time
                row = bisect_right(self.src_t, self.time) - 1 if self._step(dt) else None
                states[i], phases[i] = self.x, self.phi
                # at rest with period 1 or 2: the state of one or two whole steps back on a held row
                cycle = (before, back) if back_row == row else (before,)
                if row is not None and self.src_hold[row] and self._at_rest(*cycle):
                    # step j + 1 looks up j * dt + dt; count those before the next breakpoint
                    nxt = self.src_t[row + 1] if row + 1 < len(self.src_t) else math.inf
                    last += bisect_left(range(i, nsteps), nxt, key=lambda j: j * dt + dt)
                    # samples i+1, i+3, ... repeat the state before the step; i+2, i+4, ... this one
                    states[i + 1 : last + 1 : 2], phases[i + 1 : last + 1 : 2] = before[:2]
                    states[i + 2 : last + 1 : 2], phases[i + 2 : last + 1 : 2] = self.x, self.phi
                    if (last - i) % 2:  # the engine ends in the state of the last sample
                        self.x, self.phi, self.jv, self.jdvdt = before[:4]
                back, back_row = before, row
                # keep the grid exact despite accumulated float addition
                self.time = last * dt
                i = last + 1

        keep = times >= self.tstart - 1e-18
        wave = Waveform(
            times=times[keep],
            node_names=list(c.node_names),
            junction_names=list(c.junction_names),
            inductor_names=list(c.inductor_names),
            voltages=states[keep, :nn],
            phases=phases[keep],
            inductor_currents=states[keep, nn:],
            junction_nodes=c.junction_nodes,
        )
        events = [e for e in self.events if e.time >= self.tstart]
        return wave, events


def run_transient(
    circuit: Circuit | Netlist, dt: float | None = None, tstop: float | None = None
) -> tuple[Waveform, list[PhaseSlipEvent]]:
    """Simulate a compiled circuit or a flat netlist; returns sampled waveforms and slip events.

    dt defaults to the .tran step, else 0.1 ps; tstop to the .tran stop.
    """
    if isinstance(circuit, Netlist):
        circuit = Circuit.from_netlist(circuit)
    return _Engine(circuit, dt, tstop).run()


def pulse_area(waveform: Waveform, junction: str, window: tuple[float, float]) -> float:
    """Trapezoidal integral of a junction's voltage over [t1, t2], in webers.

    The junction name resolves as in Waveform.phase.
    """
    t1, t2 = window
    if t1 >= t2:
        raise ValueError("window must satisfy t1 < t2")
    times = waveform.times
    if t1 < times[0] - 1e-18 or t2 > times[-1] + 1e-18:
        raise ValueError("window outside the simulated range")
    v = waveform.junction_voltage(junction)
    # interpolate the waveform onto the exact window edges
    grid = np.concatenate(([t1], times[(times > t1) & (times < t2)], [t2]))
    vals = np.interp(grid, times, v)
    return float(np.trapezoid(vals, grid))


def _loop_elements(flat: Netlist, names: list[str]) -> list[Junction | Inductor]:
    """A loop's elements by Netlist.element: distinct junctions and inductors, else NetlistError."""
    if not names:
        raise NetlistError("empty loop element list")
    elems = []
    for name in names:
        e = flat.element(name)
        if not isinstance(e, (Junction, Inductor)):
            raise NetlistError(f"loop element {name!r} is not a junction or inductor")
        if e in elems:
            raise NetlistError(f"loop element {name!r} names {e.name} a second time")
        elems.append(e)
    return elems


@dataclass(frozen=True)
class FluxoidLoop:
    """A closed cycle of junctions and inductors, in walk order."""

    entries: tuple[tuple[str, int, float | None], ...]  # (name, orientation, L or None)

    @classmethod
    def from_names(cls, flat: Netlist, names: list[str]) -> "FluxoidLoop":
        """Build a loop from element names, deriving orientations by walking the cycle.

        Names resolve by the rule of netlist.match_name (B1 -> X1.B1). The first
        element is traversed pos->neg; each subsequent element must continue from
        the previous endpoint. The walk must return to its start.
        """
        elems = _loop_elements(flat, names)
        entries = []
        start = at = elems[0].pos
        for e in elems:
            if at not in (e.pos, e.neg):
                raise ValueError(f"loop not closed: {e.name} does not touch node {at}")
            orient, at = (1, e.neg) if e.pos == at else (-1, e.pos)
            entries.append((e.name, orient, e.value if isinstance(e, Inductor) else None))
        if at != start:
            raise ValueError(f"loop not closed: ends at {at}, started at {start}")
        return cls(tuple(entries))


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
    for name, orient, l in loop.entries:
        if l is not None:
            total += orient * l * state.inductor_currents[name]
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


def loop_capacity(flat: Netlist, names: list[str]) -> tuple[float, float, float]:
    """The naive Ic*L reading of a loop: (Ic*L in PHI0, smallest junction Ic, series L).

    Names resolve as in FluxoidLoop.from_names (netlist.match_name), in any order.
    Junction inductances and bias contributions are left out, so the thresholds
    are indicative.
    """
    elems = _loop_elements(flat, names)
    total_l = sum(e.value for e in elems if isinstance(e, Inductor))
    ics = [flat.models[e.model.lower()].icrit * e.area for e in elems if isinstance(e, Junction)]
    if not ics or total_l <= 0.0:
        raise NetlistError("loop needs at least one inductor and one junction")
    return storage_capacity(total_l, min(ics)), min(ics), total_l
