"""Pulse schedules, event traces, waveform CSV, and VCD serialization.

Times are serialized in picoseconds with 3 decimals (1 fs granularity), which
keeps golden-file comparisons free of float noise for any dt >= 0.05 ps.
All outputs are UTF-8 with LF line endings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cells import FS, PS, PulseEvent


class ScheduleError(ValueError):
    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


@dataclass
class PulseSchedule:
    ports: list[str] = field(default_factory=list)
    events: list[PulseEvent] = field(default_factory=list)

    def times_on(self, port: str) -> list[float]:
        return [e.time for e in self.events if e.port == port]


def _fmt_ps(t: float) -> str:
    return f"{t / PS:.3f}"


def _parse_ps(token: str, lineno: int) -> float:
    try:
        time_ps = float(token)
    except ValueError:
        raise ScheduleError(f"malformed time {token!r}", lineno) from None
    if not math.isfinite(time_ps):
        raise ScheduleError(f"time {token!r} is not finite", lineno)
    return time_ps


def read_schedule(text: str) -> PulseSchedule:
    """Parse `port <name>` declarations and `pulse <port> <time_ps>` events."""
    sched = PulseSchedule()
    declared: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0].lower()
        if key == "port":
            if len(tokens) != 2:
                raise ScheduleError("port line expects one name", lineno)
            if tokens[1] in declared:
                raise ScheduleError(f"duplicate port {tokens[1]!r}", lineno)
            declared.add(tokens[1])
            sched.ports.append(tokens[1])
        elif key == "pulse":
            if len(tokens) != 3:
                raise ScheduleError("pulse line expects a port and a time", lineno)
            port = tokens[1]
            if port not in declared:
                raise ScheduleError(f"undeclared port {port!r}", lineno)
            time_ps = _parse_ps(tokens[2], lineno)
            if time_ps < 0:
                raise ScheduleError("negative pulse time", lineno)
            sched.events.append(PulseEvent(time_ps * PS, port))
        else:
            raise ScheduleError(f"unknown keyword {tokens[0]!r}", lineno)
    sched.events.sort(key=lambda e: e.time)
    return sched


def read_events(text: str) -> list[PulseEvent]:
    """Lenient trace reader: ports are implicitly declared on first use."""
    events = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0].lower() == "port":
            continue
        if tokens[0].lower() != "pulse" or len(tokens) != 3:
            raise ScheduleError(f"malformed event line {raw!r}", lineno)
        events.append(PulseEvent(_parse_ps(tokens[2], lineno) * PS, tokens[1]))
    events.sort(key=lambda e: e.time)
    return events


def write_events(events: list[PulseEvent]) -> str:
    lines = [
        f"pulse {e.port} {_fmt_ps(e.time)}"
        for e in sorted(events, key=lambda e: (e.time, e.port))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_schedule(schedule: PulseSchedule) -> str:
    lines = [f"port {p}" for p in schedule.ports]
    lines += [
        f"pulse {e.port} {_fmt_ps(e.time)}"
        for e in sorted(schedule.events, key=lambda e: (e.time, e.port))
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_waveform_csv(waveform) -> str:
    """CSV with header time_ps,v(<node>)...,phase(<B>)... from an analog waveform."""
    header = (
        ["time_ps"]
        + [f"v({n})" for n in waveform.node_names]
        + [f"phase({j})" for j in waveform.junction_names]
    )
    rows = np.column_stack([waveform.times / PS, waveform.voltages, waveform.phases])
    # one %-template per sample; "%.3f"/"%.9e" format exactly as f"{x:.3f}"/f"{x:.9e}"
    row = "%.3f" + ",%.9e" * (rows.shape[1] - 1)
    lines = [",".join(header)]
    lines += [row % tuple(values) for values in rows.tolist()]
    return "\n".join(lines) + "\n"


def _vcd_ident(i: int) -> str:
    # printable VCD identifier characters ! through ~
    chars = []
    i += 1
    while i:
        i, rem = divmod(i - 1, 94)
        chars.append(chr(33 + rem))
    return "".join(reversed(chars))


def write_vcd_events(events: list[PulseEvent]) -> str:
    """Pulses as 1 fs wire toggles; timescale 1 fs."""
    ports: list[str] = []
    for e in events:
        if e.port not in ports:
            ports.append(e.port)
    idents = {p: _vcd_ident(i) for i, p in enumerate(ports)}
    lines = ["$timescale 1 fs $end", "$scope module sfqsim $end"]
    lines += [f"$var wire 1 {idents[p]} {p} $end" for p in ports]
    lines += ["$upscope $end", "$enddefinitions $end", "#0"]
    lines += [f"0{idents[p]}" for p in ports]
    changes: list[tuple[int, str]] = []
    for e in sorted(events, key=lambda e: e.time):
        tick = int(round(e.time / FS))
        changes.append((tick, f"1{idents[e.port]}"))
        changes.append((tick + 1, f"0{idents[e.port]}"))
    changes.sort(key=lambda c: c[0])
    last_tick = None
    for tick, change in changes:
        if tick != last_tick:
            lines.append(f"#{tick}")
            last_tick = tick
        lines.append(change)
    return "\n".join(lines) + "\n"


def write_vcd_waveform(waveform) -> str:
    """Node voltages and junction phases as VCD real variables; timescale 1 fs."""
    names = [f"v({n})" for n in waveform.node_names] + [
        f"phase({j})" for j in waveform.junction_names
    ]
    idents = [_vcd_ident(i) for i in range(len(names))]
    lines = ["$timescale 1 fs $end", "$scope module sfqsim $end"]
    lines += [
        f"$var real 64 {ident} {name} $end" for ident, name in zip(idents, names)
    ]
    lines += ["$upscope $end", "$enddefinitions $end"]
    # one %-template per sample: "#<tick>" then "r<value> <ident>" per variable;
    # np.round rounds half to even, as round() does
    sample = "#%d" + "".join(f"\nr%.9e {ident.replace('%', '%%')}" for ident in idents)
    rows = np.column_stack([np.round(waveform.times / FS), waveform.voltages, waveform.phases])
    lines += [sample % tuple(values) for values in rows.tolist()]
    return "\n".join(lines) + "\n"
