"""Run the three shipped memory scenarios on both engines and print traces.

Behavioral runs replay the shipped schedules against the reference machines;
the analog section exercises the shipped testbench netlists (pulse
multiplier, storage loops, JTL chain) and prints slip/fluxon summaries.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sfqsim import bench, data
from sfqsim.analog import FluxoidLoop, count_fluxons, run_transient
from sfqsim.cells import BUILTIN_CIRCUITS, simulate
from sfqsim.netlist import flatten, parse_netlist
from sfqsim.oracle import check_trace
from sfqsim.waveio import read_schedule, write_events


def behavioral():
    for kind, fname in data.SCHEDULES.items():
        sched = read_schedule(data.load_text(fname))
        result = simulate(BUILTIN_CIRCUITS[kind](), sched.events)
        verdict = check_trace(kind, sched.events, result.outputs)
        print(f"== {kind} ({fname}): {verdict}")
        print(write_events(result.outputs), end="")


def analog():
    print("== pulse multiplier (one input excitation)")
    flat = flatten(parse_netlist(data.load_text("mcg_tb.cir")))
    _, events = run_transient(flat)
    outs = [e for e in events if e.junction == bench.MCG_OUTPUT_JUNCTION]
    print(f"   {len(outs)} output slips at " + " ".join(f"{e.time*1e12:.1f}ps" for e in outs))

    print("== storage loops")
    for fname in ("storage_loop_tb.cir", "mndro_loop_tb.cir"):
        flat = flatten(parse_netlist(data.load_text(fname)))
        wave, _ = run_transient(flat)
        loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)
        n = count_fluxons(wave.state_at(float(wave.times[-1])), loop)
        print(f"   {fname}: {n} fluxons stored at end of run")

    print("== JTL chain")
    flat = flatten(parse_netlist(data.load_text("jtl_chain_tb.cir")))
    _, events = run_transient(flat)
    n_in = sum(1 for e in events if e.junction == "B1")
    n_out = sum(1 for e in events if e.junction == "B5")
    print(f"   {n_in} pulses in, {n_out} pulses out")


if __name__ == "__main__":
    behavioral()
    analog()
