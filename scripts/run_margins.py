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
from sfqsim.analog import Circuit, FluxoidLoop, count_fluxons, run_transient
from sfqsim.margin import MarginSpec, margin_sweep, render_report, report_csv, timing_spec
from sfqsim.netlist import flatten, parse_netlist
from sfqsim.waveio import read_schedule


ANALOG_ELEMENTS = {"write_amp": "Iset1", "quantizer_ic": "Bq"}  # margin parameter -> element


def analog_storage_report():
    flat = flatten(parse_netlist(bench.storage_loop_tb(n_sets=1)))
    base = Circuit.from_netlist(flat)
    loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)

    def write_stores_one(factors):
        wave, _ = run_transient(base.scaled({ANALOG_ELEMENTS[p]: f for p, f in factors.items()}))
        return count_fluxons(wave.state_at(float(wave.times[-1])), loop) == 1

    return margin_sweep(
        MarginSpec(
            parameters=[("write_amp", bench.LOOP_WRITE_SINGLE_UA * 1e-6), ("quantizer_ic", 300e-6)],
            pass_fn=write_stores_one,
            search_bounds=(0.5, 2.0),
            resolution=0.01,
        )
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--csv", action="store_true", help="write report CSVs here")
    args = parser.parse_args()

    for kind, fname in data.SCHEDULES.items():
        sched = read_schedule(data.load_text(fname))
        report = margin_sweep(timing_spec(kind, sched.events))
        print(f"== behavioral {kind}")
        print(render_report(report))
        if args.csv:
            pathlib.Path(f"margins_{kind}.csv").write_text(report_csv(report))

    print("== analog storage-loop write margins")
    report = analog_storage_report()
    print(render_report(report))
    if args.csv:
        pathlib.Path("margins_storage_loop.csv").write_text(report_csv(report))


if __name__ == "__main__":
    main()
