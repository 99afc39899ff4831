"""The paper's claims against this repo: one ledger row per claim, then the evidence.

A row gives a claim of the PAPER.md abstract, the paper's figure, the engine, the repo's
figure and a status: MATCHES, DIFFERS or NOT REPRODUCED. The evidence follows: scenario
verdicts and traces, analog summaries and margin tables. Behavioral margins are timing
tolerances of a model with asserted cell delays, so no row quotes them. Run with no flags.
"""

import io
import pathlib
import sys
from contextlib import redirect_stdout

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from sfqsim import bench, data
from sfqsim.analog import Circuit, FluxoidLoop, count_fluxons, loop_capacity, run_transient
from sfqsim.cells import BUILTIN_CIRCUITS, FS, PS, simulate
from sfqsim.margin import MarginSpec, format_margin, margin_sweep, render_report, timing_spec
from sfqsim.netlist import flatten, parse_netlist
from sfqsim.oracle import check_trace
from sfqsim.waveio import read_schedule, write_events

CELL_LOOP = ["L2", "L6", "B6", "B7", "B1"]  # B1-L2-L6-B6-B7, in walk order
AFTER_SET = 180e-12  # the cells' set pulse is at 100 ps, their first clock at 200 ps


def scenarios():
    """Behavioral runs of the shipped schedules: (scenarios passed, shortest clock spacing)."""
    passed, spacing = 0, float("inf")
    for kind, fname in data.SCHEDULES.items():
        sched = read_schedule(data.load_text(fname))
        result = simulate(BUILTIN_CIRCUITS[kind](), sched.events)
        verdict = check_trace(kind, sched.events, result.outputs)
        print(f"== {kind} ({fname}): {verdict}")
        print(write_events(result.outputs), end="")
        passed += verdict.passed
        clocks = [e.time for e in sched.events if e.port == "clk"]
        spacing = min([spacing, *(b - a for a, b in zip(clocks, clocks[1:]))])
    return passed, spacing


def analog_summaries():
    print("== pulse multiplier (one input excitation)")
    _, events = run_transient(flatten(parse_netlist(data.load_text("mcg_tb.cir"))))
    outs = [e for e in events if e.junction == bench.MCG_OUTPUT_JUNCTION]
    print(f"   {len(outs)} output slips at " + " ".join(f"{e.time*1e12:.1f}ps" for e in outs))
    print("== storage loops")
    for fname in ("storage_loop_tb.cir", "mndro_loop_tb.cir"):
        flat = flatten(parse_netlist(data.load_text(fname)))
        wave, _ = run_transient(flat)
        loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)
        n = count_fluxons(wave.state_at(float(wave.times[-1])), loop)
        print(f"   {fname}: {n} fluxons stored at end of run")
    _, events = run_transient(flatten(parse_netlist(data.load_text("jtl_chain_tb.cir"))))
    n_in, n_out = (sum(e.junction == j for e in events) for j in ("B1", "B5"))
    print(f"== JTL chain\n   {n_in} pulses in, {n_out} pulses out")


def analog_margins(title, flat, params, judge):
    """Print the margins of one testbench; return the critical margin.

    `params` maps a margin name to (the element it scales, its nominal value). A point
    runs one transient of the scaled circuit and passes when judge(wave, events) holds.
    """
    base = Circuit.from_netlist(flat)

    def passes(factors):
        return judge(*run_transient(base.scaled({params[p][0]: f for p, f in factors.items()})))

    nominals = [(name, nominal) for name, (_, nominal) in params.items()]
    report = margin_sweep(MarginSpec(nominals, passes, (0.5, 2.0), resolution=0.01))
    print(f"== analog {title} margins\n{render_report(report)}")
    return report.critical


def margins():
    """Print the margin tables; return the critical margin of the analog storage loop."""
    for kind, fname in data.SCHEDULES.items():
        report = margin_sweep(timing_spec(kind, read_schedule(data.load_text(fname)).events))
        print(f"== behavioral {kind}\n{render_report(report)}")
    flat = flatten(parse_netlist(bench.storage_loop_tb(n_sets=1)))
    loop = FluxoidLoop.from_names(flat, bench.STORAGE_LOOP_NAMES)
    write = {"write_amp": ("Iset1", bench.LOOP_WRITE_SINGLE_UA * 1e-6),
             "quantizer_ic": ("Bq", 300e-6)}
    single = analog_margins(
        "storage-loop write", flat, write,
        lambda wave, _: count_fluxons(wave.state_at(float(wave.times[-1])), loop) == 1,
    )
    drive = {"mcg_drive": ("Iin", bench.MCG_DRIVE_UA * 1e-6)}
    analog_margins(
        "pulse-multiplier drive", flatten(parse_netlist(bench.mcg_tb())), drive,
        lambda _, events: sum(e.junction == bench.MCG_OUTPUT_JUNCTION for e in events) == 3,
    )
    return single


def cell(fname):
    """A shipped analog cell: (fluxons stored after set, output slips, naive Ic*L in PHI0)."""
    flat = flatten(parse_netlist(data.load_text(fname)))
    wave, events = run_transient(flat)
    stored = count_fluxons(wave.state_at(AFTER_SET), FluxoidLoop.from_names(flat, CELL_LOOP))
    return stored, sum(e.junction == "X1.B11" for e in events), loop_capacity(flat, CELL_LOOP)[0]


def main():
    with redirect_stdout(io.StringIO()) as evidence:
        passed, spacing = scenarios()
        analog_summaries()
        single = margins()
    (s1, r1, cap1), (s3, r3, cap3) = (cell(f"{k}_cell_tb.cir") for k in ("ndro", "mndro"))
    n, both = len(data.SCHEDULES), "single + multi"
    margin = f"loop {single.name} {format_margin(single)}"
    rows = [
        ("claim", "paper", "engine", "repo", "status"),
        ("NDRO read-out", both, "bsim", f"{passed}/{n} scenarios PASS",
         "MATCHES" if passed == n else "DIFFERS"),
        ("NDRO read-out", both, "analog", f"ndro/mndro store {s1}/{s3}, read {r1}/{r3}",
         "MATCHES" if min(s1, s3, r1, r3) > 0 else "NOT REPRODUCED"),
        ("single-fluxon critical margin", "> 20%", "analog", margin,
         "MATCHES" if single.margin_percent > 20 else "DIFFERS"),
        ("multi-fluxon critical margin", "64%", "analog", "no sweep", "NOT REPRODUCED"),
        ("clock", "10 GHz", "bsim", f"PASS at {spacing / PS:.0f} ps clock spacing",
         "MATCHES" if passed == n and spacing < 100 * PS + FS / 2 else "DIFFERS"),  # whole fs
        ("capacity", "x2", "Ic*L", f"x{cap3 / cap1:.2f} ({cap1:.3f} -> {cap3:.3f} PHI0, naive)",
         "MATCHES" if cap3 >= 2 * cap1 else "DIFFERS"),
    ]
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    print("== paper claims (PAPER.md abstract; bsim runs asserted cell delays)")
    print("\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows))
    print("\n" + evidence.getvalue(), end="")


if __name__ == "__main__":
    main()
