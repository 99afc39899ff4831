import pathlib

import pytest

import sfqsim.data
from sfqsim.cli import main

DATA = pathlib.Path(sfqsim.data.__file__).parent


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_bsim_then_oracle_passes(tmp_path, capsys):
    events = tmp_path / "ndro.events"
    code, _, _ = run(
        [
            "bsim",
            "--circuit",
            "ndro",
            "--schedule",
            str(DATA / "tb_fig7.sched"),
            "--events",
            str(events),
        ],
        capsys,
    )
    assert code == 0
    assert events.read_text().splitlines()[0] == "pulse out 207.500"

    code, out, _ = run(
        [
            "oracle",
            "--kind",
            "ndro",
            "--schedule",
            str(DATA / "tb_fig7.sched"),
            "--events",
            str(events),
        ],
        capsys,
    )
    assert code == 0
    assert out.strip() == "PASS"


def test_oracle_detects_mismatch(tmp_path, capsys):
    events = tmp_path / "bad.events"
    events.write_text("pulse out 207.500\npulse out 407.500\n")
    code, out, _ = run(
        [
            "oracle",
            "--kind",
            "ndro",
            "--schedule",
            str(DATA / "tb_fig7.sched"),
            "--events",
            str(events),
        ],
        capsys,
    )
    assert code == 1
    assert out.startswith("FAIL clk=")


def test_missing_netlist_is_input_error(capsys):
    code, _, err = run(["tran", "missing.cir"], capsys)
    assert code == 2
    assert "file not found" in err


def test_lint_clean_and_dirty(tmp_path, capsys):
    code, out, _ = run(["lint", str(DATA / "mcg_tb.cir")], capsys)
    assert code == 0 and out.strip() == "clean"

    bad = tmp_path / "bad.cir"
    bad.write_text("L1 1 2 2p\nR1 1 0 5\n.tran 1p 10p\n")
    code, out, _ = run(["lint", str(bad)], capsys)
    assert code == 1
    assert "dangling-node" in out


def test_capacity_reports_phi0_multiple(capsys):
    code, out, _ = run(
        [
            "capacity",
            "--netlist",
            str(DATA / "mndro_cell_tb.cir"),
            "--loop",
            "B1,L2,L6,B6,B7",
        ],
        capsys,
    )
    assert code == 0
    assert "0.861 PHI0" in out
    assert "naive reading" in out  # interpretation caveat is part of the contract


def test_capacity_ndro_loop(capsys):
    code, out, _ = run(
        [
            "capacity",
            "--netlist",
            str(DATA / "ndro_cell_tb.cir"),
            "--loop",
            "B1,L2,L6,B6,B7",
        ],
        capsys,
    )
    assert code == 0
    assert "0.398 PHI0" in out


def test_tran_writes_outputs(tmp_path, capsys):
    out_csv = tmp_path / "wave.csv"
    out_events = tmp_path / "pulses.txt"
    code, _, _ = run(
        [
            "tran",
            str(DATA / "single_jj_tb.cir"),
            "--tstop",
            "200p",
            "--out",
            str(out_csv),
            "--events",
            str(out_events),
        ],
        capsys,
    )
    assert code == 0
    assert out_csv.read_text().startswith("time_ps,")
    assert out_events.read_text().startswith("pulse B1 ")


@pytest.mark.parametrize(
    "options, stop, samples",
    [(["--tstop", "0.04p"], 0.04, 2), (["--dt", "0.3p", "--tstop", "1p"], 1.0, 5)],
)
def test_tran_covers_its_stop_time(options, stop, samples, tmp_path, capsys):
    out_csv = tmp_path / "wave.csv"
    argv = ["tran", str(DATA / "single_jj_tb.cir"), *options, "--out", str(out_csv)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    times = [float(row.split(",")[0]) for row in out_csv.read_text().splitlines()[1:]]
    assert len(times) == samples
    assert times[-1] >= stop


def test_bsim_rejects_invalid_timing_composition(capsys):
    code, _, err = run(
        [
            "bsim",
            "--circuit",
            "mndro-rst",
            "--schedule",
            str(DATA / "tb_fig8.sched"),
            "--timings",
            "mcg_spacing=8",
        ],
        capsys,
    )
    assert code == 1
    assert "mcg_spacing" in err


def test_margins_subcommand(tmp_path, capsys):
    out = tmp_path / "margins.csv"
    code, text, _ = run(
        [
            "margins",
            "ndro",
            "--schedule",
            str(DATA / "tb_fig7.sched"),
            "--resolution",
            "0.05",
            "--param",
            "mem_delay",
            "--out",
            str(out),
        ],
        capsys,
    )
    assert code == 0
    assert "critical:" in text
    assert out.read_text().startswith("param,low,high,margin_pct")


def test_shipped_schedule_names_resolve_without_paths(capsys):
    code, out, _ = run(
        ["bsim", "--circuit", "mndro-dec", "--schedule", "tb_fig10.sched"], capsys
    )
    assert code == 0
    assert out.count("pulse out") == 9  # counts 1+2+3+2+1+0 across the six reads


BAD_FILES = {
    "bad_events": "pulse out 207.5x\n",
    "inf_events": "pulse out inf\n",
    "good_events": "pulse out 207.500\n",
    "foo_sched": "port set\nport foo\nport clk\npulse set 100\npulse foo 150\npulse clk 200\n",
    "upper_sched": "port SET\nport clk\npulse SET 100\npulse clk 200\n",
    "nan_sched": "port clk\npulse clk nan\n",
    "big_sched": "port clk\npulse clk 1e400\n",
    "big_cir": "R1 1 0 5\nB1 1 0 jj1\n.model jj1 jj(icrit=100u)\n.tran 0.1p 1e400\n",
    # node 1 has only a cap=0, unshunted junction: the step matrix is singular
    "cap0_cir": "B1 1 0 jm\nI1 0 1 pwl(0 0 50p 50u)\n.model jm jj(icrit=100u, cap=0)\n"
    ".tran 0.1p 100p\n",
    "two_tran_cir": "R1 1 0 5\nB1 1 0 jj1\n.model jj1 jj(icrit=100u)\n.tran 0.1p 10p\n"
    ".tran 0.1p 20p\n",
    # the pulse end t0 + width overflows to inf
    "inf_pulse_cir": "R1 1 0 5\nB1 1 0 jj1\nI1 0 1 pulse(1e308 1u 1e308)\n"
    ".model jj1 jj(icrit=100u)\n.tran 0.1p 10p\n",
    "bad_print_cir": "R1 1 0 5\nB1 1 0 jj1\n.model jj1 jj(icrit=100u)\n.tran 0.1p 10p\n.print x\n",
    # clocks 40 ps apart, under the 50 ps minimum clock spacing
    "close_sched": "port set\nport clk\npulse set 100\npulse clk 200\npulse clk 240\n",
    # two instances of one subcircuit: B1 and L1 match X1.* and X2.*
    "two_inst_cir": ".subckt cell a\nB1 a 0 jj1\nL1 a 0 2p\n.ends\nX1 n1 cell\nX2 n2 cell\n"
    ".model jj1 jj(icrit=100u)\n",
    # a Latin-1 "µ" (byte 0xb5) is not UTF-8
    "latin1_cir": "R1 1 0 5\nI1 0 1 dc 1\xb5\n.tran 0.1p 10p\n".encode("latin-1"),
}
# a path whose directory does not exist
NO_DIR_OUT = str(DATA / "no-such-dir" / "out.csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["tran", str(DATA / "single_jj_tb.cir"), "--dt", "0"],
        ["tran", str(DATA / "single_jj_tb.cir"), "--tstop=-1p"],
        ["margins", "ndro", "--schedule", "tb_fig7.sched", "--resolution", "0"],
        ["oracle", "--kind", "ndro", "--schedule", "tb_fig7.sched", "--events", "{bad_events}"],
        ["bsim", "--circuit", "ndro", "--schedule", "tb_fig7.sched", "--timings", "mem_delay=nan"],
        ["tran", str(DATA / "single_jj_tb.cir"), "--tstop", "1e400"],
        ["tran", "{big_cir}"],
        ["margins", "ndro", "--schedule", "tb_fig7.sched", "--resolution", "nan"],
        ["margins", "ndro", "--schedule", "{close_sched}"],
        ["margins", "foo", "--schedule", "tb_fig7.sched"],
        ["margins", "ndro", "--schedule", "{foo_sched}"],
        ["margins", "ndro", "--schedule", "{upper_sched}"],
        ["oracle", "--kind", "ndro", "--schedule", "tb_fig7.sched", "--events", "{inf_events}"],
        ["oracle", "--kind", "ndro", "--schedule", "{foo_sched}", "--events", "{good_events}"],
        ["oracle", "--kind", "foo", "--schedule", "tb_fig7.sched", "--events", "{good_events}"],
        ["oracle", "--kind", "ndro", "--schedule", "{close_sched}", "--events", "{good_events}"],
        ["bsim", "--circuit", "ndro", "--schedule", "{nan_sched}"],
        ["bsim", "--circuit", "ndro", "--schedule", "{big_sched}"],
        ["tran", str(DATA / "single_jj_tb.cir"), "--tstop", "0"],
        ["tran", "{cap0_cir}"],
        ["tran", "{two_tran_cir}"],
        ["tran", "{inf_pulse_cir}"],
        ["tran", "{bad_print_cir}"],
        # 1e13 steps of 0.1 ps: the sample arrays cannot be allocated
        ["tran", str(DATA / "single_jj_tb.cir"), "--tstop", "1"],
        ["tran", str(DATA / "single_jj_tb.cir"), "--dt", "1e-30"],
        ["capacity", "--netlist", str(DATA / "mndro_cell_tb.cir"), "--loop", "B99"],
        ["capacity", "--netlist", str(DATA / "mndro_cell_tb.cir"), "--loop", "R1"],
        ["capacity", "--netlist", str(DATA / "mndro_cell_tb.cir"), "--loop", ","],
        ["capacity", "--netlist", str(DATA / "mndro_cell_tb.cir"), "--loop", "L2"],
        ["capacity", "--netlist", "{two_inst_cir}", "--loop", "B1,L1"],
        # unreadable or unwritable paths
        ["tran", str(DATA)],
        ["lint", "{latin1_cir}"],
        ["oracle", "--kind", "ndro", "--schedule", "tb_fig7.sched", "--events", str(DATA)],
        ["bsim", "--circuit", "ndro", "--schedule", str(DATA)],
        ["bsim", "--circuit", "ndro", "--schedule", ""],  # resolves to the shipped-data directory
        ["tran", str(DATA / "single_jj_tb.cir"), "--tstop", "1p", "--out", NO_DIR_OUT],
        ["margins", "ndro", "--schedule", "tb_fig7.sched", "--param", "mem_delay",
         "--resolution", "0.05", "--out", NO_DIR_OUT],
        ["bsim", "--circuit", "ndro", "--schedule", "tb_fig7.sched", "--vcd", NO_DIR_OUT],
    ],
)
def test_bad_inputs_exit_2_with_one_error_line(argv, tmp_path, capsys):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = run([a.format_map({n: tmp_path / n for n in BAD_FILES}) for a in argv], capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_margins_with_failing_nominal_exits_1(capsys):
    code, out, err = run(
        ["margins", "mndro-rst", "--schedule", "tb_fig8.sched", "--timings", "mcg_spacing=8"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == "margin sweep failed: nominal fails\n"
