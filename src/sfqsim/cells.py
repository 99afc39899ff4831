"""Delay-annotated behavioral cell library and discrete-event simulation.

Cells: JTL (repeater), SPL (splitter), CBU (confluence buffer), MEM
(multi-fluxon set/reset memory unit), MCG/RG (pulse replicators on the
clock/reset paths). Circuits are static graphs; all per-run state lives in
the simulator, so a circuit can be simulated concurrently from any number
of threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from functools import partial

PS = 1e-12
# time resolution of the file formats; spacing rules allow FS / 2 below a limit,
# so the float rounding of `ps * 1e-12` cannot move a spacing across it
FS = 1e-15
SETTLING_WINDOW = 20e-12  # closer input pulses on one port draw a warning
STOP_MARGIN = 200e-12  # default run length past the last input pulse

JJ_COUNTS = {"JTL": 2, "SPL": 3, "CBU": 7, "MEM": 11, "MCG": 3, "RG": 3}

# external input ports are applied in this order at equal timestamps
_PORT_PRIORITY = {"set": 0, "rst": 1, "clk": 2}


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class CellTimings:
    jtl_delay: float = 3e-12
    spl_delay: float = 2.5e-12
    cbu_delay: float = 5e-12
    mem_delay: float = 5e-12
    mcg_spacing: float = 4e-12
    cbu_dead_time: float = 2e-12

    def __post_init__(self):
        for name in (
            "jtl_delay",
            "spl_delay",
            "cbu_delay",
            "mem_delay",
            "mcg_spacing",
            "cbu_dead_time",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise CircuitError(f"{name} must be positive and finite")

    @property
    def feedback_delay(self) -> float:
        """Splitter-to-memory reload path: SPL + JTL + CBU."""
        return self.spl_delay + self.jtl_delay + self.cbu_delay

    def check_replication(self, replicas: int) -> None:
        """Replicated clocks must all land before the first reload returns."""
        spread = (replicas - 1) * self.mcg_spacing
        limit = self.mem_delay + self.feedback_delay
        if spread >= limit:
            raise CircuitError(
                f"(n-1)*mcg_spacing must stay below mem_delay+spl+jtl+cbu: "
                f"{spread / PS:.3f} ps >= {limit / PS:.3f} ps"
            )


@dataclass(frozen=True)
class CellInstance:
    name: str
    kind: str
    capacity: int = 0  # MEM
    replicas: int = 0  # MCG/RG

    def __post_init__(self):
        if self.kind not in JJ_COUNTS:
            raise CircuitError(f"unknown cell kind {self.kind!r}")
        if self.kind == "MEM" and self.capacity < 1:
            raise CircuitError(f"{self.name}: storage cells need capacity >= 1")
        if self.kind in ("MCG", "RG") and self.replicas < 1:
            raise CircuitError(f"{self.name}: replicators need replicas >= 1")

    @property
    def jj_count(self) -> int:
        return JJ_COUNTS[self.kind]


@dataclass(frozen=True)
class PulseEvent:
    time: float
    port: str


@dataclass
class BehavioralCircuit:
    name: str
    timings: CellTimings
    cells: dict[str, CellInstance] = field(default_factory=dict)
    # (cell, output port) -> (cell, input port); "" as cell names an external port
    nets: dict[tuple[str, str], tuple[str, str]] = field(default_factory=dict)
    inputs: dict[str, tuple[str, str]] = field(default_factory=dict)
    outputs: dict[tuple[str, str], str] = field(default_factory=dict)
    feedback_cells: tuple[str, ...] = ()

    def add_cell(self, cell: CellInstance) -> None:
        if cell.name in self.cells:
            raise CircuitError(f"duplicate cell {cell.name}")
        self.cells[cell.name] = cell

    def connect(self, src: tuple[str, str], dst: tuple[str, str]) -> None:
        if src in self.nets:
            raise CircuitError(f"output {src} already drives a net (fan-out is 1)")
        self.nets[src] = dst

    def expose_input(self, name: str, dst: tuple[str, str]) -> None:
        self.inputs[name] = dst

    def expose_output(self, src: tuple[str, str], name: str) -> None:
        if src in self.nets:
            raise CircuitError(f"output {src} already drives a net (fan-out is 1)")
        self.outputs[src] = name

    def feedback_jj_count(self) -> int:
        return sum(self.cells[c].jj_count for c in self.feedback_cells)

    def validate(self) -> None:
        """Reject cycles made purely of zero-delay replicator hops."""
        zero_delay = {n for n, c in self.cells.items() if c.kind in ("MCG", "RG")}
        edges: dict[str, set[str]] = {n: set() for n in zero_delay}
        for (src, _), (dst, _) in self.nets.items():
            if src in zero_delay and dst in zero_delay:
                edges[src].add(dst)
        visiting: set[str] = set()
        done: set[str] = set()

        def dfs(node: str) -> None:
            visiting.add(node)
            for nxt in edges[node]:
                if nxt in visiting:
                    raise CircuitError("zero-delay replicator cycle detected")
                if nxt not in done:
                    dfs(nxt)
            visiting.discard(node)
            done.add(node)

        for n in zero_delay:
            if n not in done:
                dfs(n)


def behavioral_jj_count(circuit: BehavioralCircuit) -> int:
    return sum(cell.jj_count for cell in circuit.cells.values())


def _memory_block(
    name: str, capacity: int, t: CellTimings, clk_mcg: bool, rst_rg: bool
) -> BehavioralCircuit:
    """mem -> SPL -> {out, JTL -> CBU -> set}, with MCG(3)/RG(3) in front of clk/rst if asked."""
    c = BehavioralCircuit(name=name, timings=t)
    c.add_cell(CellInstance("mem", "MEM", capacity=capacity))
    c.add_cell(CellInstance("cbu", "CBU"))
    c.add_cell(CellInstance("spl", "SPL"))
    c.add_cell(CellInstance("jtl", "JTL"))
    c.feedback_cells = ("spl", "jtl", "cbu")

    c.expose_input("set", ("cbu", "in0"))
    for port, gen, kind, wanted in (("clk", "mcg", "MCG", clk_mcg), ("rst", "rg", "RG", rst_rg)):
        if wanted:
            c.add_cell(CellInstance(gen, kind, replicas=3))
            c.expose_input(port, (gen, "in"))
            c.connect((gen, "out"), ("mem", port))
        else:
            c.expose_input(port, ("mem", port))
    c.connect(("cbu", "out"), ("mem", "set"))
    c.connect(("mem", "out"), ("spl", "in"))
    c.expose_output(("spl", "out0"), "out")
    c.connect(("spl", "out1"), ("jtl", "in"))
    c.connect(("jtl", "out"), ("cbu", "in1"))
    return c


def build_ndro(timings: CellTimings | None = None) -> BehavioralCircuit:
    """Single-fluxon memory with reload feedback; clk and rst drive the memory directly."""
    return _memory_block("ndro", 1, timings or CellTimings(), clk_mcg=False, rst_rg=False)


def build_mndro(with_rg: bool = True, timings: CellTimings | None = None) -> BehavioralCircuit:
    """Three-fluxon memory: clock through MCG(3); reset through RG(3) or direct."""
    t = timings or CellTimings()
    t.check_replication(3)
    name = "mndro-rst" if with_rg else "mndro-dec"
    return _memory_block(name, 3, t, clk_mcg=True, rst_rg=with_rg)


BUILTIN_CIRCUITS = {
    "ndro": build_ndro,
    "mndro-rst": partial(build_mndro, True),
    "mndro-dec": partial(build_mndro, False),
}


@dataclass(frozen=True)
class TraceRecord:
    time: float
    cell: str
    port: str
    state_before: int
    state_after: int


@dataclass
class SimResult:
    outputs: list[PulseEvent]
    trace: list[TraceRecord]
    warnings: list[str]


def simulate(
    circuit: BehavioralCircuit,
    schedule: list[PulseEvent],
    tstop: float | None = None,
    record_trace: bool = False,
) -> SimResult:
    """Run the deterministic event queue over external input pulses.

    Returns output pulses on the external ports sorted by time; `tstop`
    defaults to the last input plus STOP_MARGIN. Input pulses closer than
    SETTLING_WINDOW on one port produce a warning, not an error. Simultaneous
    external events apply in set, rst, clk order.
    """
    if tstop is None:
        tstop = max((e.time for e in schedule), default=0.0) + STOP_MARGIN
    circuit.validate()
    warnings: list[str] = []
    last_on_port: dict[str, float] = {}
    settling = SETTLING_WINDOW - FS / 2
    for ev in sorted(schedule, key=lambda e: e.time):
        if ev.port not in circuit.inputs:
            raise CircuitError(f"unknown input port {ev.port!r}")
        if ev.time < 0:
            raise CircuitError(f"negative event time on {ev.port}")
        if ev.time >= tstop:
            raise CircuitError(f"event at {ev.time} not before tstop {tstop}")
        prev = last_on_port.get(ev.port)
        if prev is not None and ev.time - prev < settling:
            warnings.append(
                f"pulses on {ev.port} {ev.time / PS:.3f} ps and {prev / PS:.3f} ps "
                f"are closer than the {SETTLING_WINDOW / PS:.0f} ps settling window"
            )
        last_on_port[ev.port] = ev.time

    heap: list[tuple[float, int, str, str]] = []
    seq = 0

    def push(time: float, cell: str, port: str) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, seq, cell, port))
        seq += 1

    for ev in sorted(
        schedule, key=lambda e: (e.time, _PORT_PRIORITY.get(e.port, 9), e.port)
    ):
        cell, port = circuit.inputs[ev.port]
        push(ev.time, cell, port)

    mem_state = {name: 0 for name, cell in circuit.cells.items() if cell.kind == "MEM"}
    cbu_last_arrival = {
        name: float("-inf")
        for name, cell in circuit.cells.items()
        if cell.kind == "CBU"
    }
    outputs: list[PulseEvent] = []
    trace: list[TraceRecord] = []

    def emit(time: float, cell: str, out_port: str) -> None:
        key = (cell, out_port)
        if key in circuit.outputs:
            if time < tstop:
                outputs.append(PulseEvent(time, circuit.outputs[key]))
            return
        if key in circuit.nets:
            dst_cell, dst_port = circuit.nets[key]
            push(time, dst_cell, dst_port)
        # an unconnected output silently drops the pulse

    t = circuit.timings
    while heap:
        time, _, cell_name, port = heapq.heappop(heap)
        if time >= tstop:
            break
        cell = circuit.cells[cell_name]
        before = mem_state.get(cell_name, 0)

        if cell.kind == "JTL":
            emit(time + t.jtl_delay, cell_name, "out")
        elif cell.kind == "SPL":
            emit(time + t.spl_delay, cell_name, "out0")
            emit(time + t.spl_delay, cell_name, "out1")
        elif cell.kind == "CBU":
            if time - cbu_last_arrival[cell_name] > t.cbu_dead_time:
                emit(time + t.cbu_delay, cell_name, "out")
            cbu_last_arrival[cell_name] = time
        elif cell.kind in ("MCG", "RG"):
            for k in range(cell.replicas):
                emit(time + k * t.mcg_spacing, cell_name, "out")
        elif cell.kind == "MEM":
            state = mem_state[cell_name]
            if port == "set":
                mem_state[cell_name] = min(state + 1, cell.capacity)
            elif port == "rst":
                mem_state[cell_name] = max(state - 1, 0)
            elif port == "clk":
                if state > 0:
                    mem_state[cell_name] = state - 1
                    emit(time + t.mem_delay, cell_name, "out")
            else:
                raise CircuitError(f"unknown memory port {port!r}")
        else:
            raise CircuitError(f"unknown cell kind {cell.kind!r}")

        if record_trace:
            trace.append(
                TraceRecord(time, cell_name, port, before, mem_state.get(cell_name, 0))
            )

    outputs.sort(key=lambda e: e.time)
    return SimResult(outputs=outputs, trace=trace, warnings=warnings)


def scaled_timings(base: CellTimings, factors: dict[str, float]) -> CellTimings:
    """Return timings with the named fields multiplied by the given factors."""
    changes = {}
    for name, factor in factors.items():
        if not hasattr(base, name):
            raise CircuitError(f"unknown timing parameter {name!r}")
        changes[name] = getattr(base, name) * factor
    return replace(base, **changes)
