"""Parameterized analog testbench builders.

These generate the netlist text behind the shipped .cir data files
(scripts/make_testbenches.py freezes them) and let tests and experiments vary
stimulus counts. A value variant is not new text: compile the testbench once
with analog.Circuit.from_netlist and vary it with Circuit.scaled, as the
drive scans in scripts/tune_jtl.py and scripts/tune_mcg.py and the analog
margins in scripts/claims.py do. The set/reset cell topologies are
reconstructions, since only element values and the storage-loop membership
are published for the originals; they neither store nor read.
"""

from __future__ import annotations

import math

from .analog import PHI0

# NDRO / M-NDRO cell element values (pH, uA, ohm columns of the cell tables)
NDRO_PARAMS = dict(
    L1=2.09, L2=2.28, L3=2.84, L4=1.85, L5=2.55, L6=1.9,
    L7=1.94, L8=1.79, L9=1.90, L10=0.58, L11=2.20,
    J1=290, J2=208, J3=248, J4=361, J5=245, J6=197, J7=249,
    J8=247, J9=261, J10=381, J11=209,
    R1=10.89, R2=10.17, R3=11.47, R4=7.99, R5=10.33,
)
MNDRO_PARAMS = dict(
    L1=1.89, L2=7.36, L3=2.14, L4=2.33, L5=4.10, L6=3.91,
    L7=1.73, L8=0.66, L9=1.71, L10=0.45, L11=1.84,
    J1=382, J2=311, J3=365, J4=341, J5=274, J6=158, J7=256,
    J8=230, J9=263, J10=372, J11=270,
    R1=5.42, R2=7.59, R3=10.34, R4=8.67, R5=9.17,
)

# storage-loop write drive (see scripts/tune_jtl.py and the loop scans)
LOOP_WRITE_SINGLE_UA = 480
LOOP_WRITE_MULTI_UA = 515
LOOP_WRITE_WIDTH_PS = 8
MCG_DRIVE_UA = 520
MCG_DRIVE_WIDTH_PS = 20
JTL_DRIVE_UA = 400
JTL_DRIVE_WIDTH_PS = 6


def _jj_model(name: str, ic_ua: float) -> str:
    """Model card with the default-density capacitance and an rn for beta_c = 1."""
    cap_f = ic_ua * 0.7
    rn = math.sqrt(PHI0 / (2 * math.pi * ic_ua * 1e-6 * cap_f * 1e-15))
    return f".model {name} jj(icrit={ic_ua}u, cap={cap_f:.1f}f, rn={rn:.3f})"


def _pulse_sources(node: str, times_ps, amp_ua: float, width_ps: float, tag: str = "p"):
    return [
        f"I{tag}{k} 0 {node} pulse({t}p {amp_ua}u {width_ps}p)"
        for k, t in enumerate(times_ps, start=1)
    ]


def single_junction_tb() -> str:
    """100 uA junction with a 5 ohm shunt, DC-driven at 1.5 Ic after a ramp."""
    return "\n".join(
        [
            "* single junction benchmark: periodic phase slips, pulse area = PHI0",
            "B1 1 0 jj1",
            "R1 1 0 5",
            "Ib 0 1 pwl(0 0 50p 150u)",
            ".model jj1 jj(icrit=100u)",
            ".tran 0.1p 500p",
            ".print phase(B1) v(1)",
        ]
    ) + "\n"


def jtl_chain_tb(
    n_pulses: int = 3,
    stages: int = 5,
    amp_ua: float = JTL_DRIVE_UA,
    width_ps: float = JTL_DRIVE_WIDTH_PS,
) -> str:
    """Josephson transmission line chain; every input pulse crosses all stages."""
    lines = [
        f"* {stages}-stage JTL chain testbench",
        _jj_model("jjtl", 250),
    ]
    times = [100.0 * k for k in range(1, n_pulses + 1)]
    lines += _pulse_sources("drv", times, amp_ua, width_ps)
    lines.append("Lin drv n1 2p")
    for k in range(1, stages + 1):
        lines.append(f"B{k} n{k} 0 jjtl")
        lines.append(f"Lb{k} n{k} nb{k} 2p")
        lines.append(f"Ib{k} 0 nb{k} pwl(0 0 50p 175u)")
        if k < stages:
            lines.append(f"L{k} n{k} n{k+1} 4p")
    lines.append(f"Lout n{stages} nout 2p")
    lines.append("Rload nout 0 2")
    tstop = int(times[-1] + 100)
    lines.append(f".tran 0.1p {tstop}p")
    lines.append(f".print phase(B1) phase(B{stages})")
    return "\n".join(lines) + "\n"


def storage_loop_tb(n_sets: int = 1, multi: bool = False) -> str:
    """Write-only storage loop: each set pulse adds one fluxon.

    Read as analog.loop_capacity does (Bin's 250 uA, the smallest loop Ic,
    times Ls), the single-fluxon variant holds Ic*L = 1.209 PHI0; the multi
    variant is scaled to 4.836 PHI0 so three fluxons fit (the cell-table
    values top out near one PHI0 once junction inductances are counted, so
    multi-fluxon demonstrations need the scaled loop).
    """
    l_store = 40 if multi else 10
    amp = LOOP_WRITE_MULTI_UA if multi else LOOP_WRITE_SINGLE_UA
    label = "multi-fluxon (scaled)" if multi else "single-fluxon"
    lines = [
        f"* {label} storage loop testbench; loop is Ls-Bq-Bin via ground",
        _jj_model("jin", 250),
        _jj_model("jq", 300),
        "Bin a 0 jin",
        f"Ls a b {l_store}p",
        "Bq b 0 jq",
    ]
    times = [100.0 * k for k in range(1, n_sets + 1)]
    lines += _pulse_sources("a", times, amp, LOOP_WRITE_WIDTH_PS, tag="set")
    tstop = int(times[-1] + 150)
    lines.append(f".tran 0.1p {tstop}p")
    lines.append(".print phase(Bin) phase(Bq) i(Ls)")
    return "\n".join(lines) + "\n"


STORAGE_LOOP_NAMES = ["Ls", "Bq", "Bin"]  # traversal order for fluxoid counting


def mcg_tb() -> str:
    """Threshold-gate pulse multiplier tuned to emit 3 output slips on B3.

    The drive window for exactly three pulses spans roughly 480..580 uA at
    this width; the output count tracks the time the input stays above the
    threshold set by the B1/B2 critical currents.
    """
    lines = [
        "* multiple-pulse generator testbench (DC-to-SFQ style threshold gate)",
        _jj_model("jj1", 170),
        _jj_model("jj2", 150),
        _jj_model("jj3", 230),
        f"Iin 0 m0 pulse(100p {MCG_DRIVE_UA}u {MCG_DRIVE_WIDTH_PS}p)",
        "L1 m0 m1 0.6p",
        "B1 m1 0 jj1",
        "L2 m1 m2 7p",
        "B2 m2 0 jj2",
        "L3 m2 m3 2.28p",
        "B3 m3 0 jj3",
        "L4 m3 m4 0.43p",
        "R1 m4 0 7.2",
        "Ib1 0 nb1 pwl(0 0 50p 130u)",
        "L5 nb1 m1 2.86p",
        "Ib2 0 nb2 pwl(0 0 50p 160u)",
        "L6 nb2 m3 4.05p",
        ".tran 0.1p 250p",
        ".print phase(B3)",
    ]
    return "\n".join(lines) + "\n"


MCG_OUTPUT_JUNCTION = "B3"


def rdff_cell_tb(params: dict, label: str) -> str:
    """Set/reset flip-flop cell testbench: set, two clocks, reset, one more clock.

    The cell is a biased subcircuit. Storage loop is B1-L2-L6-B6-B7; set,
    clock, and reset branches enter through buffered junctions with series
    couplers; output leaves from the comparator midpoint. The wiring is
    canonical rather than extracted, and the cell neither stores nor reads:
    it is a topology fixture.
    """
    p = params
    lines = [f"* {label} memory cell testbench (reconstructed topology, see README)"]
    lines += [_jj_model(f"mj{k}", p[f"J{k}"]) for k in range(1, 12)]
    lines += [
        ".subckt rdff set clk rst out",
        "L1 set s1 %(L1)sp" % p,
        "B2 s1 0 mj2",
        "L3 s1 s2 %(L3)sp" % p,
        "B3 s2 2 mj3",
        "B1 2 0 mj1",
        "L2 2 3 %(L2)sp" % p,
        "L6 3 4 %(L6)sp" % p,
        "B6 4 5 mj6",
        "B7 5 0 mj7",
        "L4 clk c1 %(L4)sp" % p,
        "B10 c1 0 mj10",
        "L5 c1 c2 %(L5)sp" % p,
        "B4 c2 4 mj4",
        "L9 rst r1 %(L9)sp" % p,
        "B9 r1 0 mj9",
        "L10 r1 r2 %(L10)sp" % p,
        "B5 r2 3 mj5",
        "L7 5 o1 %(L7)sp" % p,
        "B8 o1 0 mj8",
        "L8 o1 o2 %(L8)sp" % p,
        "B11 o2 0 mj11",
        "L11 o2 out %(L11)sp" % p,
        "R1 2 0 %(R1)s" % p,
        "R2 4 5 %(R2)s" % p,
        "R3 5 0 %(R3)s" % p,
        "R4 o1 0 %(R4)s" % p,
        "R5 c1 0 %(R5)s" % p,
    ]
    for i, (node, ic_key) in enumerate(
        [("s1", "J2"), ("c1", "J10"), ("o1", "J8"), ("o2", "J11")], start=1
    ):
        bias = round(0.7 * p[ic_key])
        lines.append(f"LB{i} {node} nb{i} 2p")
        lines.append(f"IB{i} 0 nb{i} pwl(0 0 50p {bias}u)")
    lines += [
        ".ends",
        "X1 nset nclk nrst nout rdff",
        "Iset 0 nset pulse(100p 500u 8p)",
        "Iclk1 0 nclk pulse(200p 400u 8p)",
        "Iclk2 0 nclk pulse(300p 400u 8p)",
        "Irst 0 nrst pulse(400p 500u 8p)",
        "Iclk3 0 nclk pulse(500p 400u 8p)",
        "Rload nout 0 2",
        ".tran 0.2p 600p",
        ".print phase(X1.B7) phase(X1.B1) v(nout)",
    ]
    return "\n".join(lines) + "\n"
