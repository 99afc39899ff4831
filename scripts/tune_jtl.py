"""Scan drive amplitude/width for the 5-stage JTL chain testbench.

Looks for a region where every input pulse produces exactly one slip on the
first junction and one on the last (clean pulse propagation, no drops or
doubles), then prints the chosen stimulus parameters.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sfqsim import bench
from sfqsim.analog import Circuit, run_transient
from sfqsim.netlist import flatten, parse_netlist


def count_slips(events, junction):
    return sum(1 for e in events if e.junction == junction)


def main():
    # one compiled chain per pulse width; the amplitude scales its drive pulses Ip1, Ip2, ...
    texts = {w: bench.jtl_chain_tb(width_ps=w) for w in (4, 6, 8)}
    chains = {w: Circuit.from_netlist(flatten(parse_netlist(t))) for w, t in texts.items()}
    for amp_ua in (300, 400, 500, 600):
        scale = amp_ua / bench.JTL_DRIVE_UA
        for width_ps, chain in chains.items():
            drive = {n: scale for n in chain.source_names if n.startswith("Ip")}
            _, events = run_transient(chain.scaled(drive), dt=0.1e-12)
            first = count_slips(events, "B1")
            last = count_slips(events, "B5")
            print(f"amp={amp_ua}u width={width_ps}p: B1={first} B5={last}")


if __name__ == "__main__":
    main()
