"""Operating-margin search: per-parameter pass intervals around nominal.

Each parameter is scaled independently (all others at nominal) and the
largest failure-free factor interval containing 1.0 is bisected to the
requested resolution. A coarse 16-point scan flags non-monotone pass
regions (islands) instead of silently reporting the inner interval.
`timing_spec` builds the behavioral sweep: cell delays scaled one at a time,
with agreement with the reference machine as the pass criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .cells import (
    BUILTIN_CIRCUITS,
    CellTimings,
    CircuitError,
    PulseEvent,
    scaled_timings,
    simulate,
)
from .oracle import trace_checker

ISLAND_SCAN_POINTS = 16
TIMING_PARAMS = ("jtl_delay", "spl_delay", "cbu_delay", "mem_delay")


class MarginError(RuntimeError):
    pass


@dataclass(frozen=True)
class MarginSpec:
    parameters: list[tuple[str, float]]
    pass_fn: Callable[[dict[str, float]], bool]  # maps {param: factor} to pass/fail
    search_bounds: tuple[float, float] = (0.2, 3.0)
    resolution: float = 0.005

    def __post_init__(self):
        lo, hi = self.search_bounds
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < 1.0 < hi):
            raise MarginError("search bounds must be finite and contain 1.0")
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise MarginError("resolution must be positive and finite")


@dataclass(frozen=True)
class ParameterMargin:
    name: str
    nominal: float
    low: float
    high: float
    saturated_low: bool = False
    saturated_high: bool = False
    islands: bool = False

    @property
    def margin_percent(self) -> float:
        return min(1.0 - self.low, self.high - 1.0) * 100.0

    @property
    def saturated(self) -> bool:
        # the reported margin is a lower bound when its binding side hit the search bound
        low_side = 1.0 - self.low
        high_side = self.high - 1.0
        if low_side <= high_side:
            return self.saturated_low
        return self.saturated_high


@dataclass
class MarginReport:
    per_parameter: list[ParameterMargin] = field(default_factory=list)

    @property
    def critical(self) -> ParameterMargin:
        if not self.per_parameter:
            raise MarginError("empty report")
        return min(self.per_parameter, key=lambda p: p.margin_percent)

    @property
    def critical_parameter(self) -> str:
        return self.critical.name

    @property
    def critical_margin_percent(self) -> float:
        return self.critical.margin_percent

    @property
    def critical_unbounded(self) -> bool:
        return self.critical.saturated


def _bisect_edge(
    check: Callable[[float], bool], passing: float, failing: float, resolution: float
) -> float:
    while abs(failing - passing) > resolution:
        mid = 0.5 * (passing + failing)
        if check(mid):
            passing = mid
        else:
            failing = mid
    return passing


def margin_sweep(spec: MarginSpec) -> MarginReport:
    """Sweep every parameter independently and report pass intervals."""
    if not spec.pass_fn({}):
        raise MarginError("nominal fails")
    lo_bound, hi_bound = spec.search_bounds
    report = MarginReport()

    for name, nominal in spec.parameters:

        def check(factor: float, _name: str = name) -> bool:
            try:
                return bool(spec.pass_fn({_name: factor}))
            except MarginError:
                raise
            except Exception as exc:
                raise MarginError(f"pass function raised for {_name} at {factor}: {exc}")

        if check(hi_bound):
            high, sat_high = hi_bound, True
        else:
            high = _bisect_edge(check, 1.0, hi_bound, spec.resolution)
            sat_high = False
        if check(lo_bound):
            low, sat_low = lo_bound, True
        else:
            low = _bisect_edge(check, 1.0, lo_bound, spec.resolution)
            sat_low = False

        # non-monotone pass regions: a pass beyond the interval or a hole inside it
        scan_points = [
            lo_bound + (hi_bound - lo_bound) * i / (ISLAND_SCAN_POINTS - 1)
            for i in range(ISLAND_SCAN_POINTS)
        ]
        outside = [
            f for f in scan_points if f < low - spec.resolution or f > high + spec.resolution
        ]
        inside = [
            f for f in scan_points if low + spec.resolution < f < high - spec.resolution
        ]
        outside_res = [check(f) for f in outside]
        inside_res = [check(f) for f in inside]
        islands = any(outside_res) or not all(inside_res)

        report.per_parameter.append(
            ParameterMargin(name, nominal, low, high, sat_low, sat_high, islands)
        )
    return report


def timing_spec(
    kind: str,
    schedule: list[PulseEvent],
    base: CellTimings | None = None,
    params: list[str] | None = None,
    window: float = 50e-12,
    resolution: float = 0.005,
) -> MarginSpec:
    """Timing margins of a built-in circuit: a point passes when a run of
    `schedule` matches the reference machine of `kind`.

    `params` defaults to the wiring and memory delays, plus `mcg_spacing` on
    the multi-fluxon circuits. The kind, the parameters, the resolution and
    the oracle side of the check are all settled here, so a bad input raises
    (ValueError or MarginError) before any point is simulated.
    """
    if kind not in BUILTIN_CIRCUITS:
        raise ValueError(f"unknown circuit {kind!r} (choose from {sorted(BUILTIN_CIRCUITS)})")
    build = BUILTIN_CIRCUITS[kind]
    base = base or CellTimings()
    known = TIMING_PARAMS + (("mcg_spacing",) if kind.startswith("mndro") else ())
    params = known if params is None else params
    unknown = set(params) - set(known)
    if unknown:
        raise ValueError(f"unknown sweep parameter(s): {sorted(unknown)}")
    judge = trace_checker(kind, schedule, window)

    def passes(factors: dict[str, float]) -> bool:
        try:
            circuit = build(scaled_timings(base, factors))
        except CircuitError:
            return False
        return judge(simulate(circuit, schedule).outputs).passed

    return MarginSpec([(p, getattr(base, p)) for p in params], passes, resolution=resolution)


def render_report(report: MarginReport) -> str:
    rows = [("parameter", "low", "high", "margin")]
    for p in report.per_parameter:
        margin = f"{p.margin_percent:.1f}%"
        if p.saturated:
            margin = ">= " + margin
        if p.islands:
            margin += " (non-monotone)"
        rows.append((p.name, f"{p.low:.3f}", f"{p.high:.3f}", margin))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip() for row in rows]
    crit = report.critical
    prefix = ">= " if report.critical_unbounded else ""
    lines.append(
        f"critical: {crit.name} at {prefix}{report.critical_margin_percent:.1f}%"
    )
    return "\n".join(lines) + "\n"


def report_csv(report: MarginReport) -> str:
    lines = ["param,low,high,margin_pct"]
    for p in report.per_parameter:
        lines.append(f"{p.name},{p.low:.4f},{p.high:.4f},{p.margin_percent:.2f}")
    return "\n".join(lines) + "\n"
