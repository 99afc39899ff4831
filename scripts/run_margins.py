"""Margin experiments on both engines.

Behavioral: sweep the wiring-cell delays (and the replication spacing for the
multi-fluxon block) with oracle equivalence as the pass criterion. Analog:
sweep the storage-loop write amplitude and quantizer critical current with
"first write stores exactly one fluxon" as the pass criterion. Prints the
aligned report tables; pass --csv to also dump CSV files.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sfqsim import bench, data
from sfqsim.analog import FluxoidLoop, count_fluxons, run_transient
from sfqsim.margin import MarginSpec, margin_sweep, render_report, report_csv, timing_spec
from sfqsim.netlist import flatten, parse_netlist
from sfqsim.waveio import read_schedule


def analog_storage_report():
    base_amp = bench.LOOP_WRITE_SINGLE_UA

    def write_stores_one(factors):
        amp = base_amp * factors.get("write_amp", 1.0)
        text = bench.storage_loop_tb(n_sets=1)
        if "quantizer_ic" in factors:
            scale = factors["quantizer_ic"]
            text = text.replace("icrit=300u", f"icrit={300 * scale:.1f}u")
        text = text.replace(f" {base_amp}u ", f" {amp:.1f}u ")
        flat = flatten(parse_netlist(text))
        wave, _ = run_transient(flat)
        loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)
        return count_fluxons(wave.state_at(float(wave.times[-1])), loop) == 1

    return margin_sweep(
        MarginSpec(
            parameters=[("write_amp", base_amp * 1e-6), ("quantizer_ic", 300e-6)],
            pass_fn=write_stores_one,
            search_bounds=(0.5, 2.0),
            resolution=0.01,
        )
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", action="store_true", help="write report CSVs here")
    parser.add_argument("--skip-analog", action="store_true")
    args = parser.parse_args()

    for kind, fname in data.SCHEDULES.items():
        sched = read_schedule(data.load_text(fname))
        report = margin_sweep(timing_spec(kind, sched.events))
        print(f"== behavioral {kind}")
        print(render_report(report))
        if args.csv:
            pathlib.Path(f"margins_{kind}.csv").write_text(report_csv(report))

    if not args.skip_analog:
        print("== analog storage-loop write margins")
        report = analog_storage_report()
        print(render_report(report))
        if args.csv:
            pathlib.Path("margins_storage_loop.csv").write_text(report_csv(report))


if __name__ == "__main__":
    main()
