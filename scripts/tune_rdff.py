"""Bias/drive tuning for the reconstructed set/reset flip-flop cell.

Storage loop is B1-L2-L6-B6-B7; set/clock/reset enter through buffered
branches with series coupling junctions. The scan checks, per candidate
bias set: set stores a fluxon, clock reads it out (output junction slips,
loop defluxes), clock on an empty loop stays quiet, reset defluxes without
an output.
"""

import pathlib
import sys
from itertools import product

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sfqsim import bench
from sfqsim.analog import FluxoidLoop, loop_fluxoid, run_transient
from sfqsim.netlist import flatten, parse_netlist


def rdff_netlist(p, biases, events, tstop_ps=600):
    """The bare cell, flat, with a load, trial biases and input pulses."""
    lines = ["* RDFF tuning testbench"] + bench.rdff_models(p) + bench.rdff_elements(p)
    lines.append("Rload out 0 2")
    for i, (node, ua) in enumerate(biases.items()):
        if ua:
            lines.append(f"LB{i} {node} nb{i} 2p")
            lines.append(f"IB{i} 0 nb{i} pwl(0 0 50p {ua}u)")
    for i, (port, t_ps, amp, width) in enumerate(events):
        lines.append(f"Iin{i} 0 {port} pulse({t_ps}p {amp}u {width}p)")
    lines.append(f".tran 0.1p {tstop_ps}p")
    return "\n".join(lines)


def run(p, biases, events, tstop_ps=600):
    net = rdff_netlist(p, biases, events, tstop_ps)
    flat = flatten(parse_netlist(net))
    wave, ev = run_transient(flat, dt=0.2e-12)
    loop = FluxoidLoop.from_names(flat, ["L2", "L6", "B6", "B7", "B1"])
    return flat, wave, ev, loop


def slips(ev, name, t0=0.0, t1=1.0):
    return sum(1 for e in ev if e.junction == name and t0 <= e.time <= t1)


def main():
    set_drive = (500, 8)
    clk_drive = (400, 8)
    for b2, b4, b5 in product((0, 80, 160), (0, 60, 120), (0, 60, 120)):
        biases = {"2": b2, "4": b4, "o1": b5}
        try:
            flat, wave, ev, loop = run(
                bench.MNDRO_PARAMS,
                biases,
                [("set", 100, *set_drive), ("clk", 200, *clk_drive), ("clk", 300, *clk_drive)],
                tstop_ps=400,
            )
        except Exception as exc:
            print(f"b={b2},{b4},{b5}: failed ({exc})")
            continue
        n_after_set = round(loop_fluxoid(wave.state_at(180e-12), loop), 2)
        n_after_clk = round(loop_fluxoid(wave.state_at(280e-12), loop), 2)
        out1 = slips(ev, "B11", 200e-12, 280e-12)
        out2 = slips(ev, "B11", 300e-12, 380e-12)
        ok = n_after_set == 1 and n_after_clk == 0 and out1 >= 1 and out2 == 0
        print(
            f"b={b2},{b4},{b5}: store={n_after_set} after_clk={n_after_clk} "
            f"out(read)={out1} out(empty)={out2}{'  ***' if ok else ''}"
        )


if __name__ == "__main__":
    main()
