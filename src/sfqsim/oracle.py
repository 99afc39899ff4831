"""Reference state machines for the memory cells, plus trace comparison.

NDRO is a two-state set/reset machine whose clock reads without destroying
the state. The multi-fluxon machines count S0..S3: set increments
(saturating), reset either clears (reset configuration) or decrements by one
(decrement configuration), and a clock emits as many pulses as the state
index without changing it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import PulseEvent

NDRO = "ndro"
MNDRO_RESET = "mndro-rst"
MNDRO_DECREMENT = "mndro-dec"

KINDS = (NDRO, MNDRO_RESET, MNDRO_DECREMENT)
SYMBOLS = ("SET", "RST", "CLK")


@dataclass(frozen=True)
class OracleEventOutcome:
    new_state: int
    output_pulse_count: int


class OracleMachine:
    """Executable reference machine; `step` advances it one input symbol."""

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown oracle kind {kind!r}")
        self.kind = kind
        self.state = 0

    @property
    def capacity(self) -> int:
        return 1 if self.kind == NDRO else 3

    def step(self, symbol: str) -> OracleEventOutcome:
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
        return OracleEventOutcome(self.state, pulses)


def run_oracle(kind: str, symbols: list[str]) -> list[tuple[int, int]]:
    """Fold the machine over a symbol sequence; returns (symbol index, count) per CLK."""
    machine = OracleMachine(kind)
    out = []
    for i, sym in enumerate(symbols):
        outcome = machine.step(sym)
        if sym == "CLK":
            out.append((i, outcome.output_pulse_count))
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


def compare_trace(
    expected_counts: list[int],
    observed: list[PulseEvent],
    clock_times: list[float],
    window: float = 50e-12,
) -> Verdict:
    """Group observed output pulses into per-clock windows and check the counts.

    A pulse is attributed to the latest clock at or before it; pulses landing
    outside every [clk, clk+window) interval still count against the clock
    they follow, so spurious outputs fail the comparison.
    """
    if len(expected_counts) != len(clock_times):
        raise ValueError("one expected count per clock time is required")
    if any(t1 - t0 < window for t0, t1 in zip(clock_times, clock_times[1:])):
        raise ValueError("clock period shorter than the grouping window")
    counts = [0] * len(clock_times)
    stray_before_first = 0
    for ev in sorted(observed, key=lambda e: e.time):
        idx = -1
        for i, tc in enumerate(clock_times):
            if ev.time >= tc:
                idx = i
            else:
                break
        if idx < 0:
            stray_before_first += 1
        else:
            counts[idx] += 1
    if stray_before_first and clock_times:
        return Verdict(False, 0, expected_counts[0], -stray_before_first)
    for i, (want, got) in enumerate(zip(expected_counts, counts)):
        if want != got:
            return Verdict(False, i, want, got)
    return Verdict(True)
