"""Simulation and verification toolkit for SFQ non-destructive readout memory.

Two engines over one cell family: an analog transient solver for
junction-level netlists and a delay-annotated behavioral simulator for
composed memory blocks, with reference state machines, trace comparison,
and operating-margin search on top.
"""

from .analog import (
    PHI0,
    Circuit,
    CircuitState,
    FluxoidLoop,
    PhaseSlipEvent,
    Waveform,
    count_fluxons,
    pulse_area,
    run_transient,
    storage_capacity,
)
from .cells import (
    BehavioralCircuit,
    CellTimings,
    PulseEvent,
    behavioral_jj_count,
    build_mndro,
    build_ndro,
    simulate,
)
from .margin import MarginReport, MarginSpec, margin_sweep, timing_spec
from .netlist import Netlist, flatten, lint, parse_netlist
from .oracle import OracleMachine, Verdict, check_trace, compare_trace, run_oracle
from .waveio import PulseSchedule, read_schedule, write_events

__version__ = "0.1.0"
