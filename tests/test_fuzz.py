"""Fuzz tests: the readers raise only their own errors, and the CLI only exits 0-3.

Inputs come from small grammars that mix valid tokens with the values that
have broken input paths before: 0, -1, nan, 1e400 and malformed text.
"""

import io
import itertools
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfqsim import data
from sfqsim.cli import main
from sfqsim.netlist import NetlistError, parse_netlist
from sfqsim.waveio import ScheduleError, read_events, read_schedule

DATA = pathlib.Path(data.__file__).parent
NUMBERS = ["0", "-1", "nan", "1e400"]  # the invalid or edge values every number draws from
VALUES = st.sampled_from(["5", "2p", "100u", ".5meg", "1e-400", "abc", "1e", *NUMBERS])
NODES = st.sampled_from(["0", "1", "2", "a"])
SUBCKTS = st.sampled_from(["sub", "nope"])

# ------------------------------------------------------------------ netlists


def _join(*parts):
    return " ".join(parts)


SOURCES = st.one_of(
    st.builds(_join, st.just("dc"), VALUES),
    st.builds(lambda vs: f"pwl({' '.join(vs)})", st.lists(VALUES, max_size=5)),
    st.builds(lambda vs: f"pulse({' '.join(vs)})", st.lists(VALUES, max_size=4)),
    st.text(max_size=8),
)
NETLIST_LINES = st.one_of(
    st.builds(_join, st.sampled_from(["R1", "L1", "L2"]), NODES, NODES, VALUES),
    st.builds(_join, st.sampled_from(["B1", "B2"]), NODES, NODES, st.sampled_from(["jj", "nope"])),
    st.builds(lambda a, b, v: f"B3 {a} {b} jj area={v}", NODES, NODES, VALUES),
    st.builds(_join, st.sampled_from(["I1", "I2"]), NODES, NODES, SOURCES),
    st.builds(lambda ns, s: f"X1 {' '.join(ns)} {s}", st.lists(NODES, max_size=3), SUBCKTS),
    st.builds(lambda a, b: f".model jj jj(icrit={a}, cap={b})", VALUES, VALUES),
    st.builds(lambda ps: f".subckt sub {' '.join(ps)}", st.lists(NODES, max_size=3)),
    st.builds(lambda vs: f".tran {' '.join(vs)}", st.lists(VALUES, max_size=4)),
    st.sampled_from([".ends", ".end", ".print phase(B1) v(1)", ".print x", ".option", "* c"]),
    st.text(max_size=12),
)
NETLISTS = st.lists(NETLIST_LINES, max_size=10).map("\n".join)


@given(NETLISTS)
def test_parse_netlist_raises_only_netlist_error(text):
    try:
        parse_netlist(text)
    except NetlistError:
        pass


# ------------------------------------------------------- schedules and events

TIMES = st.sampled_from(["100", "250.5", "1e300", "-5", "x", "inf", *NUMBERS])
PORTS = st.sampled_from(["set", "rst", "clk", "foo", "SET"])
SCHEDULE_LINES = st.one_of(
    st.builds(_join, st.just("port"), PORTS),
    st.builds(_join, st.just("pulse"), PORTS, TIMES),
    st.builds(lambda p, t: f"pulse {p} {t} extra", PORTS, TIMES),
    st.sampled_from(["port", "pulse clk", "# c", "bogus 1"]),
    st.text(max_size=12),
)
SCHEDULES = st.lists(SCHEDULE_LINES, max_size=10).map("\n".join)


@given(SCHEDULES)
def test_schedule_and_event_readers_raise_only_schedule_error(text):
    for reader in (read_schedule, read_events):
        try:
            reader(text)
        except ScheduleError:
            pass


# ----------------------------------------------------------------------- CLI

# valid schedules over the three ports, small enough for a margin sweep per example
VALID_SCHEDULES = st.lists(
    st.tuples(st.sampled_from(["set", "rst", "clk"]), st.integers(1, 40)), max_size=8
).map(
    lambda evs: "port set\nport rst\nport clk\n"
    + "".join(f"pulse {p} {100 * k}\n" for p, k in evs)
)
# the shipped .tran lines run at most 600 ps; fuzzed ones stay as short
SMALL_NETLISTS = st.lists(
    st.sampled_from(
        [
            "R1 1 0 5",
            "B1 1 0 jj",
            "L1 1 2 2p",
            "B2 2 0 jj",
            "I1 0 1 pwl(0 0 10p 150u)",
            ".model jj jj(icrit=100u)",
            ".tran 0.1p 20p",
            ".tran 0.1p 1e400",
            ".tran 0 20p",
        ]
    ),
    max_size=7,
).map("\n".join)

KINDS = st.sampled_from(["ndro", "mndro-rst", "mndro-dec", "foo"])
SHIPPED_NETLISTS = [str(DATA / name) for name in ("single_jj_tb.cir", "mndro_cell_tb.cir")]


def _number(valid):
    return st.sampled_from([valid, *NUMBERS])


def _options(*pairs):
    """Each option independently present or absent."""
    parts = [st.one_of(st.just([]), value.map(lambda v, f=flag: [f, v])) for flag, value in pairs]
    return st.tuples(*parts).map(lambda ps: list(itertools.chain.from_iterable(ps)))


def _argv(draw, files):
    cmd = draw(st.sampled_from(["lint", "tran", "bsim", "oracle", "margins", "capacity"]))
    netlist = draw(st.sampled_from([files["cir"], "missing.cir", *SHIPPED_NETLISTS]))
    schedule = draw(
        st.sampled_from([files["sched"], files["fuzz_sched"], "tb_fig7.sched", "missing.sched"])
    )
    key = draw(st.sampled_from(["mem_delay", "mcg_spacing", "bogus"]))
    timing = f"{key}={draw(_number('6'))}"
    if cmd == "lint":
        return [cmd, netlist]
    if cmd == "tran":
        # dt stays at 0.1 ps or is rejected: a tiny valid dt would allocate huge arrays
        return [cmd, netlist] + draw(
            _options(("--dt", _number("0.1p")), ("--tstop", _number("20p")))
        )
    if cmd == "bsim":
        return [cmd, "--circuit", draw(KINDS), "--schedule", schedule] + draw(
            _options(("--tstop", _number("2n")), ("--timings", st.just(timing)))
        )
    if cmd == "oracle":
        events = files["events"]
        return [cmd, "--kind", draw(KINDS), "--schedule", schedule, "--events", events]
    if cmd == "margins":
        return [cmd, draw(KINDS), "--schedule", schedule] + draw(
            _options(
                ("--resolution", _number("0.05")),
                ("--param", st.sampled_from(["mem_delay", "mcg_spacing", "bogus"])),
                ("--timings", st.just(timing)),
            )
        )
    loop = draw(st.sampled_from(["B1,L2,L6,B6,B7", "B1,L1", "R1", "", "nope"]))
    return [cmd, "--netlist", netlist, "--loop", loop]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(deadline=None)  # a shipped testbench run without --tstop takes up to ~0.5 s
@given(
    st.data(),
    SMALL_NETLISTS,
    VALID_SCHEDULES,
    SCHEDULES,
    st.one_of(SCHEDULES, st.just("pulse out 207.500\npulse out 607.500\n")),
)
def test_cli_exits_0_to_3_with_one_error_line(fuzz_dir, choices, netlist, sched, fuzz_sched, events):
    files = {"cir": netlist, "sched": sched, "fuzz_sched": fuzz_sched, "events": events}
    for key, text in files.items():
        path = fuzz_dir / key
        path.write_text(text)
        files[key] = str(path)
    argv = _argv(choices.draw, files)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
