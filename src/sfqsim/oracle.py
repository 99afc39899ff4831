"""Reference state machines for the memory cells, plus trace comparison.

NDRO is a two-state set/reset machine whose clock reads without destroying
the state. The multi-fluxon machines count S0..S3: set increments
(saturating), reset either clears (reset configuration) or decrements by one
(decrement configuration), and a clock emits as many pulses as the state
index without changing it.

Trace comparison counts each output pulse for the clock period it lands in.
The clocks must be at least MIN_CLOCK_SPACING apart; that is a fixed rule of
the 10 GHz cells, not a setting.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

from .cells import FS, PS, PulseEvent

NDRO = "ndro"
MNDRO_RESET = "mndro-rst"
MNDRO_DECREMENT = "mndro-dec"

KINDS = (NDRO, MNDRO_RESET, MNDRO_DECREMENT)
SYMBOLS = ("SET", "RST", "CLK")

MIN_CLOCK_SPACING = 50e-12  # half the 100 ps period of the 10 GHz clock


class OracleMachine:
    """Executable reference machine; `step` advances it one input symbol
    and returns the number of output pulses it emits."""

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown oracle kind {kind!r} (choose from {list(KINDS)})")
        self.kind = kind
        self.state = 0

    @property
    def capacity(self) -> int:
        return 1 if self.kind == NDRO else 3

    def step(self, symbol: str) -> int:
        if symbol not in SYMBOLS:
            raise ValueError(f"unknown input symbol {symbol!r}")
        pulses = 0
        if symbol == "SET":
            self.state = min(self.state + 1, self.capacity)
        elif symbol == "RST":
            if self.kind == MNDRO_DECREMENT:
                self.state = max(self.state - 1, 0)
            else:
                self.state = 0
        else:  # CLK reads without changing state
            pulses = self.state
        return pulses


def run_oracle(kind: str, symbols: list[str]) -> list[tuple[int, int]]:
    """Fold the machine over a symbol sequence; returns (symbol index, count) per CLK."""
    machine = OracleMachine(kind)
    out = []
    for i, sym in enumerate(symbols):
        pulses = machine.step(sym)
        if sym == "CLK":
            out.append((i, pulses))
    return out


@dataclass(frozen=True)
class Verdict:
    passed: bool
    clk_index: int = -1
    expected: int = -1
    observed: int = -1

    def __str__(self) -> str:
        if self.passed:
            return "PASS"
        return f"FAIL clk={self.clk_index} expected={self.expected} observed={self.observed}"


def _check_clocks(clock_times: list[float]) -> None:
    least = MIN_CLOCK_SPACING - FS / 2  # spacings count in whole femtoseconds
    if not all(t1 - t0 >= least for t0, t1 in zip(clock_times, clock_times[1:])):
        spacing = MIN_CLOCK_SPACING / PS
        raise ValueError(f"clocks must be at least the window ({spacing:g} ps) apart")


def compare_trace(
    expected_counts: list[int], observed: list[PulseEvent], clock_times: list[float]
) -> Verdict:
    """Attribute each observed output pulse to its clock period and check the counts.

    A pulse belongs to the latest clock at or before it, however long after
    that clock it lands, so spurious outputs fail the comparison; a pulse
    before the first clock, or any pulse when there are no clocks, is
    reported against clock 0 as a negative count. The clocks must be at
    least MIN_CLOCK_SPACING apart.
    """
    if len(expected_counts) != len(clock_times):
        raise ValueError("one expected count per clock time is required")
    _check_clocks(clock_times)
    counts = [0] * len(clock_times)
    stray_before_first = 0
    for ev in observed:
        idx = bisect_right(clock_times, ev.time) - 1
        if idx < 0:
            stray_before_first += 1
        else:
            counts[idx] += 1
    if stray_before_first:
        expected = expected_counts[0] if clock_times else 0
        return Verdict(False, 0, expected, -stray_before_first)
    for i, (want, got) in enumerate(zip(expected_counts, counts)):
        if want != got:
            return Verdict(False, i, want, got)
    return Verdict(True)


def trace_checker(kind: str, schedule: list[PulseEvent]) -> Callable[[list[PulseEvent]], Verdict]:
    """Run the reference machine over an input schedule once; return its judge.

    The machine reads the pulses in time order, as `simulate` runs them;
    pulses at equal times keep their list order. Each input port names its
    symbol (set -> SET, ...) and the clock times are those of the CLK pulses.
    Raises ValueError for an unknown kind or symbol, or for clocks closer than
    MIN_CLOCK_SPACING, before anything is compared. The returned function
    checks the output pulses of one run of the schedule.
    """
    schedule = sorted(schedule, key=lambda e: e.time)
    symbols = [e.port.upper() for e in schedule]
    expected = [count for _, count in run_oracle(kind, symbols)]
    clocks = [e.time for e, sym in zip(schedule, symbols) if sym == "CLK"]
    _check_clocks(clocks)
    return lambda observed: compare_trace(expected, observed, clocks)


def check_trace(kind: str, schedule: list[PulseEvent], observed: list[PulseEvent]) -> Verdict:
    """Judge the output pulses of one run of `schedule` against the reference machine."""
    return trace_checker(kind, schedule)(observed)
