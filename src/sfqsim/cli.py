"""Command-line front end.

Subcommands: lint, tran, bsim, oracle, margins, capacity. Exit codes:
0 success, 1 functional failure (lint errors, oracle mismatch, failing
nominal margin), 2 input error (paths, parse), 3 numerical failure
(non-convergent transient). A command writes all of its output files or,
on failure, none of them.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from dataclasses import fields

from . import data
from .analog import SimulationError, StructuralError, loop_capacity, run_transient
from .cells import (
    BUILTIN_CIRCUITS,
    PS,
    STOP_MARGIN,
    CellTimings,
    CircuitError,
    PulseEvent,
    simulate,
)
from .margin import MarginError, margin_sweep, render_report, report_csv, timing_spec
from .netlist import NetlistError, flatten, lint, parse_netlist, parse_value
from .oracle import check_trace
from .waveio import (
    ScheduleError,
    read_events,
    read_schedule,
    write_events,
    write_vcd_events,
    write_vcd_waveform,
    write_waveform_csv,
)

EXIT_OK = 0
EXIT_FUNCTIONAL = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except FileNotFoundError:
        raise CliError(f"file not found: {path}") from None
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def _write_outputs(outputs: dict[str, str]) -> None:
    """Write each path's text, or none of them: every file is staged in a temp
    file next to its target, and the renames start once all are staged."""
    staged: list[str] = []
    try:
        for path, text in outputs.items():
            if os.path.isdir(path):  # the one target that would fail only at its rename
                raise CliError(f"cannot write {path}: Is a directory")
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sfqsim-")
            staged.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
        for tmp, path in zip(staged, outputs):
            os.replace(tmp, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _load_netlist(path: str):
    try:
        return parse_netlist(_read_file(path))
    except NetlistError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _load_schedule(path_or_name: str):
    if os.path.exists(path_or_name):
        text = _read_file(path_or_name)
    else:
        try:
            text = data.load_text(path_or_name)
        except OSError:  # no such shipped file, or a directory such as "" (the data root)
            raise CliError(f"schedule not found: {path_or_name}") from None
    try:
        return read_schedule(text)
    except ScheduleError as exc:
        raise CliError(f"{path_or_name}: {exc}") from exc


def _parse_timings(pairs: list[str]) -> CellTimings:
    """key=value pairs in picoseconds; keys are CellTimings field names."""
    valid = {f.name for f in fields(CellTimings)}
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise CliError(f"malformed timing override {pair!r} (want key=value)")
        key, value = pair.split("=", 1)
        key = key.strip()
        if key not in valid:
            raise CliError(f"unknown timing parameter {key!r} (choose from {sorted(valid)})")
        try:
            overrides[key] = float(value) * PS
        except ValueError:
            raise CliError(f"malformed timing value {value!r}") from None
    try:
        return CellTimings(**overrides)
    except CircuitError as exc:
        raise CliError(str(exc)) from exc


def cmd_lint(args) -> int:
    netlist = _load_netlist(args.netlist)
    diags = lint(netlist)
    for d in diags:
        print(d)
    if any(d.severity == "error" for d in diags):
        return EXIT_FUNCTIONAL
    if not diags:
        print("clean")
    return EXIT_OK


def cmd_tran(args) -> int:
    netlist = _load_netlist(args.netlist)
    diags = [d for d in lint(netlist) if d.severity == "error"]
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        return EXIT_FUNCTIONAL
    dt = parse_value(args.dt) if args.dt else None
    tstop = parse_value(args.tstop) if args.tstop else None
    try:
        wave, events = run_transient(flatten(netlist), dt, tstop)
    except SimulationError as exc:
        print(f"transient failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (StructuralError, ValueError) as exc:  # ValueError: dt <= 0, or a NetlistError
        raise CliError(str(exc)) from exc
    trace = [PulseEvent(e.time, e.junction) for e in events]
    outputs = {args.events: write_events(trace)} if args.events else {}
    if args.out:
        outputs[args.out] = write_waveform_csv(wave)
    if args.vcd:
        outputs[args.vcd] = write_vcd_waveform(wave)
    _write_outputs(outputs)
    if outputs:
        print(f"{len(events)} phase-slip events")
    else:
        print(write_events(trace), end="")
    return EXIT_OK


def cmd_bsim(args) -> int:
    timings = _parse_timings(args.timings)
    if args.circuit not in BUILTIN_CIRCUITS:
        raise CliError(f"unknown circuit {args.circuit!r} (choose from {sorted(BUILTIN_CIRCUITS)})")
    try:
        circuit = BUILTIN_CIRCUITS[args.circuit](timings)
    except CircuitError as exc:
        raise CliError(str(exc), EXIT_FUNCTIONAL) from exc
    schedule = _load_schedule(args.schedule)
    tstop = parse_value(args.tstop) if args.tstop else None
    try:
        result = simulate(circuit, schedule.events, tstop)
    except CircuitError as exc:
        raise CliError(str(exc)) from exc
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    text = write_events(result.outputs)
    outputs = {args.events: text} if args.events else {}
    if args.vcd:
        outputs[args.vcd] = write_vcd_events(result.outputs)
    _write_outputs(outputs)
    if not args.events:
        print(text, end="")
    return EXIT_OK


def cmd_oracle(args) -> int:
    schedule = _load_schedule(args.schedule)
    observed = read_events(_read_file(args.events))
    try:
        verdict = check_trace(args.kind, schedule.events, observed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    print(verdict)
    return EXIT_OK if verdict.passed else EXIT_FUNCTIONAL


def cmd_margins(args) -> int:
    base = _parse_timings(args.timings)
    schedule = _load_schedule(args.schedule)
    try:
        spec = timing_spec(
            args.target, schedule.events, base, args.param or None, resolution=args.resolution
        )
    except (ValueError, MarginError) as exc:
        raise CliError(str(exc)) from exc
    try:
        report = margin_sweep(spec)
    except CircuitError as exc:  # the nominal run rejects the schedule
        raise CliError(str(exc)) from exc
    except MarginError as exc:
        print(f"margin sweep failed: {exc}", file=sys.stderr)
        return EXIT_FUNCTIONAL
    if args.out:
        _write_outputs({args.out: report_csv(report)})
    print(render_report(report), end="")
    return EXIT_OK


def cmd_capacity(args) -> int:
    flat = flatten(_load_netlist(args.netlist))
    names = [n.strip() for n in args.loop.split(",") if n.strip()]
    phi, min_ic, total_l = loop_capacity(flat, names)  # a NetlistError exits 2
    print(f"Ic*L = {phi:.3f} PHI0  (min Ic = {min_ic * 1e6:.1f} uA, L = {total_l * 1e12:.2f} pH)")
    print(
        "note: min-Ic times series-L is the naive reading; junction inductances "
        "and bias contributions are not included, so treat thresholds (>1 single, "
        ">3 triple) as indicative."
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfqsim",
        description="Simulate and verify SFQ non-destructive readout memory circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lint", help="static checks on a netlist")
    p.add_argument("netlist")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("tran", help="analog transient simulation")
    p.add_argument("netlist")
    p.add_argument("--dt", help="time step (suffixes allowed, e.g. 0.1p)")
    p.add_argument("--tstop", help="stop time override")
    p.add_argument("--out", help="waveform CSV path")
    p.add_argument("--events", help="phase-slip event file path")
    p.add_argument("--vcd", help="VCD dump path")
    p.set_defaults(func=cmd_tran)

    p = sub.add_parser("bsim", help="behavioral simulation of a built-in circuit")
    p.add_argument("--circuit", required=True, help="ndro | mndro-rst | mndro-dec")
    p.add_argument("--schedule", required=True, help="pulse schedule file (or shipped name)")
    p.add_argument("--tstop", help=f"stop time (default: last event + {STOP_MARGIN / PS:g} ps)")
    p.add_argument("--events", help="output event file (default: stdout)")
    p.add_argument("--vcd", help="VCD dump path")
    p.add_argument("--timings", nargs="*", metavar="KEY=PS", help="timing overrides in ps")
    p.set_defaults(func=cmd_bsim)

    p = sub.add_parser("oracle", help="compare an event trace against the reference machine")
    p.add_argument("--kind", required=True, help="ndro | mndro-rst | mndro-dec")
    p.add_argument("--schedule", required=True)
    p.add_argument("--events", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("margins", help="behavioral timing-margin sweep")
    p.add_argument("target", help="ndro | mndro-rst | mndro-dec")
    p.add_argument("--schedule", required=True)
    p.add_argument("--resolution", type=float, default=0.005)
    p.add_argument("--param", nargs="*", help="subset of timing parameters to sweep")
    p.add_argument("--timings", nargs="*", metavar="KEY=PS")
    p.add_argument("--out", help="CSV report path")
    p.set_defaults(func=cmd_margins)

    p = sub.add_parser("capacity", help="Ic*L storage criterion for a loop")
    p.add_argument("--netlist", required=True)
    p.add_argument("--loop", required=True, help="comma-separated loop element names")
    p.set_defaults(func=cmd_capacity)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NetlistError, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
