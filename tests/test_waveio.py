import pytest
from hypothesis import given
from hypothesis import strategies as st

from sfqsim import data
from sfqsim.analog import run_transient
from sfqsim.cells import PulseEvent
from sfqsim.netlist import flatten, parse_netlist
from sfqsim.waveio import (
    PulseSchedule,
    ScheduleError,
    read_events,
    read_schedule,
    write_events,
    write_schedule,
    write_vcd_events,
    write_vcd_waveform,
    write_waveform_csv,
)

PS = 1e-12


def test_minimal_schedule():
    sched = read_schedule("port clk\npulse clk 100")
    assert sched.ports == ["clk"]
    assert sched.events == [PulseEvent(100e-12, "clk")]


def test_undeclared_port_is_an_error():
    with pytest.raises(ScheduleError, match="undeclared"):
        read_schedule("port clk\npulse data 100")


def test_malformed_and_negative_times():
    with pytest.raises(ScheduleError, match="malformed time"):
        read_schedule("port clk\npulse clk ten")
    with pytest.raises(ScheduleError, match="negative"):
        read_schedule("port clk\npulse clk -5")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_times_rejected(token):
    with pytest.raises(ScheduleError, match="not finite"):
        read_schedule(f"port clk\npulse clk {token}")
    with pytest.raises(ScheduleError, match="line 2: time .* is not finite"):
        read_events(f"pulse out 100\npulse out {token}")


def test_shipped_scenario_schedule_has_ten_events():
    sched = read_schedule(data.load_text("tb_fig8.sched"))
    assert len(sched.events) == 10
    assert sched.ports == ["set", "rst", "clk"]


def test_events_are_sorted_on_read():
    sched = read_schedule("port a\npulse a 300\npulse a 100\npulse a 200")
    assert [e.time for e in sched.events] == [100e-12, 200e-12, 300e-12]


def test_write_events_format():
    text = write_events([PulseEvent(127.5e-12, "out")])
    assert text == "pulse out 127.500\n"
    assert write_events([]) == ""


_times_fs = st.lists(st.integers(0, 10**7), min_size=0, max_size=40)


@given(_times_fs)
def test_event_round_trip(times_fs):
    events = sorted(
        (PulseEvent(t * 1e-15, "out") for t in times_fs), key=lambda e: e.time
    )
    back = read_events(write_events(events))
    assert len(back) == len(events)
    for a, b in zip(back, events):
        assert a.port == b.port
        assert a.time == pytest.approx(b.time, abs=1e-16)


def test_schedule_round_trip():
    sched = PulseSchedule(
        ports=["set", "clk"],
        events=[PulseEvent(100e-12, "set"), PulseEvent(200e-12, "clk")],
    )
    again = read_schedule(write_schedule(sched))
    assert again == sched


@pytest.fixture(scope="module")
def small_waveform():
    src = """
B1 1 0 jm
R1 1 0 5
Ib 0 1 pwl(0 0 20p 150u)
.model jm jj(icrit=100u)
.tran 1p 30p
"""
    wave, events = run_transient(flatten(parse_netlist(src)))
    return wave, events


def test_waveform_csv_shape(small_waveform):
    wave, _ = small_waveform
    lines = write_waveform_csv(wave).splitlines()
    assert lines[0] == "time_ps,v(1),phase(B1)"
    assert len(lines) == 1 + len(wave.times)
    assert all(len(line.split(",")) == 2 + 1 for line in lines[1:])
    assert lines[1].startswith("0.000,")


def test_csv_times_are_monotone(small_waveform):
    wave, _ = small_waveform
    lines = write_waveform_csv(wave).splitlines()[1:]
    times = [float(line.split(",")[0]) for line in lines]
    assert times == sorted(times)


def test_vcd_event_dump():
    events = [PulseEvent(1e-12, "out"), PulseEvent(2.5e-12, "out")]
    vcd = write_vcd_events(events)
    assert "$timescale 1 fs $end" in vcd
    assert "$var wire 1" in vcd
    # each pulse toggles up then back down one femtosecond later
    assert "#1000" in vcd and "#1001" in vcd and "#2500" in vcd


def test_vcd_waveform_dump(small_waveform):
    wave, _ = small_waveform
    vcd = write_vcd_waveform(wave)
    assert "$var real 64" in vcd
    assert vcd.count("#") == len(wave.times)
