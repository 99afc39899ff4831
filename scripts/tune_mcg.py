"""Drive-window scan for the pulse-multiplier testbench.

Sweeps the input pulse amplitude at the shipped width and reports the output
slip count per point; the shipped netlist sits at the center of the
three-pulse window this prints.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sfqsim import bench
from sfqsim.analog import Circuit, run_transient
from sfqsim.netlist import flatten, parse_netlist


def main():
    print(f"width = {bench.MCG_DRIVE_WIDTH_PS} ps, shipped amplitude = {bench.MCG_DRIVE_UA} uA")
    base = Circuit.from_netlist(flatten(parse_netlist(bench.mcg_tb())))
    for amp in range(400, 621, 20):
        _, events = run_transient(base.scaled({"Iin": amp / bench.MCG_DRIVE_UA}))
        times = [e.time * 1e12 for e in events if e.junction == bench.MCG_OUTPUT_JUNCTION]
        spacing = (
            " ".join(f"{t1 - t0:.1f}" for t0, t1 in zip(times, times[1:])) or "-"
        )
        print(f"amp={amp:4d}u: {len(times)} output pulses (spacing ps: {spacing})")


if __name__ == "__main__":
    main()
