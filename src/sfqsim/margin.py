"""Operating-margin search: per-parameter pass intervals around nominal.

Each parameter is scaled independently (all others at nominal) and the
largest failure-free factor interval containing 1.0 is bisected to the
requested resolution. A coarse 16-point scan flags non-monotone pass
regions (islands) instead of silently reporting the inner interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

ISLAND_SCAN_POINTS = 16


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
        if not (lo < 1.0 < hi):
            raise MarginError("search bounds must contain 1.0")
        if self.resolution <= 0:
            raise MarginError("resolution must be positive")


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
