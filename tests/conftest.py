import random

import hypothesis

from sfqsim.cells import PulseEvent, simulate
from sfqsim.oracle import check_trace

hypothesis.settings.register_profile("fast", max_examples=25)
hypothesis.settings.register_profile("ci", max_examples=100)
hypothesis.settings.load_profile("fast")


def random_symbols(rng: random.Random, n: int) -> list[str]:
    return [rng.choice(("SET", "RST", "CLK")) for _ in range(n)]


def schedule_from_symbols(symbols, period=100e-12, offset=100e-12):
    """One pulse per symbol on the matching external port, one period apart."""
    port = {"SET": "set", "RST": "rst", "CLK": "clk"}
    return [PulseEvent(offset + period * i, port[s]) for i, s in enumerate(symbols)]


def oracle_matches(circuit, kind, symbols, period=100e-12, window=50e-12) -> bool:
    events = schedule_from_symbols(symbols, period)
    return check_trace(kind, events, simulate(circuit, events).outputs, window).passed
