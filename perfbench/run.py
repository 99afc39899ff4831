"""sfqsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tran-cells --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the run times whole passes of the workload and
prints the end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes and prints the per-layer metrics. Either way the last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it is a JSON record of the run
(versions, seed, output digest, tail percentile), and both are also written
to `.bench_out/results/`. The exit code is 0 only when every op and every
correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one caller and matrices of at most a few hundred unknowns: one BLAS thread
BLAS_THREADS = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas() -> int:
    threads = min(BLAS_THREADS, nproc())
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def tail_percentile(guaranteed_ops: int) -> float:
    """Highest ladder percentile with at least ten of the guaranteed samples beyond it."""
    fits = [p for p in TAIL_LADDER if guaranteed_ops * (1.0 - p / 100.0) >= 10.0]
    return max(fits, default=TAIL_LADDER[0])


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'none' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_sha() -> str:
    """Hash of the package sources and data files, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sfqsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cir", ".sched"):
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Host seconds for interpreter start, `import sfqsim` and input set-up, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms intervals and
        # rounds every probe up to that grid
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def one_pass(wl, api):
    from workloads import PassLog

    log = PassLog()
    start = time.perf_counter()
    wl.run_pass(api, log)
    wall = time.perf_counter() - start
    log.seal()
    return log, wall


def end_to_end(wl, logs, walls, setup_times, peak_rss_kb) -> tuple[dict, dict]:
    import numpy as np

    ops = np.concatenate([np.frombuffer(log.op_s) for log in logs])
    guaranteed = wl.min_passes * len(logs[0].op_s)
    pct = tail_percentile(guaranteed)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "sim_ps_per_s": (statistics.median(l.sim_ps / w for l, w in zip(logs, walls)), "ps/s"),
        "op_ms_p50": (float(np.percentile(ops, 50.0)) * 1e3, "ms"),
        "op_ms_tail": (float(np.percentile(ops, pct)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    extra = {
        "tail_percentile": pct,
        "op_samples": len(ops),
        "samples_beyond_tail": int((ops * 1e3 > metrics["op_ms_tail"][0]).sum()),
        "passes": len(walls),
        "walls_s": walls,
        "setup_probes_s": setup_times,
    }
    return metrics, extra


def per_layer(traced, traced_walls, plain_walls) -> dict:
    """Layer self times per pass (means over traced passes) and the pass counters."""
    from spans import self_times
    from workloads import TESTBENCHES

    n = len(traced)
    own_sum: dict[str, float] = {}
    by_label: dict[tuple[str, str], float] = {}
    driver = 0.0
    for (log, spans), wall in zip(traced, traced_walls):
        own, inclusive, root = self_times(spans)
        for k, v in own.items():
            own_sum[k] = own_sum.get(k, 0.0) + v
        for k, v in inclusive.items():
            by_label[k] = by_label.get(k, 0.0) + v
        driver += wall - root
    own = {k: v / n for k, v in own_sum.items()}
    by_label = {k: v / n for k, v in by_label.items()}
    log = traced[0][0]
    counts = log.counts
    sweep_s = sum(v for (name, _), v in by_label.items() if name == "margin.sweep")
    run_s = own.get("analog.run", 0.0)
    simulate_s = own.get("cells.simulate", 0.0)
    m = {
        "netlist.parse_s": (own.get("netlist.parse", 0.0), "s"),
        "netlist.lint_s": (own.get("netlist.lint", 0.0), "s"),
        "netlist.flatten_s": (own.get("netlist.flatten", 0.0), "s"),
        "netlist.calls": (counts["netlist.calls"], "count"),
        "bench.build_s": (own.get("bench.build", 0.0), "s"),
        "analog.run_s": (run_s, "s"),
        "analog.runs": (counts["analog.runs"], "count"),
        "analog.steps": (counts["analog.steps"], "count"),
        "analog.us_per_step": (1e6 * run_s / counts["analog.steps"] if counts["analog.steps"] else 0.0, "us"),
        "analog.errors": (counts["analog.errors"], "count"),
        "analog.measure_s": (own.get("analog.measure", 0.0), "s"),
        "analog.area_err_ppm": (1e6 * statistics.fmean(log.area_errs) if log.area_errs else 0.0, "ppm"),
        "waveio.write_s": (own.get("waveio.write", 0.0), "s"),
        "waveio.bytes_out": (counts["waveio.bytes_out"], "B"),
        "waveio.read_s": (own.get("waveio.read", 0.0), "s"),
        "waveio.bytes_in": (counts["waveio.bytes_in"], "B"),
        "cells.build_s": (own.get("cells.build", 0.0), "s"),
        "cells.simulate_s": (simulate_s, "s"),
        "cells.simulate_calls": (counts["cells.simulate_calls"], "count"),
        "cells.pulses_in": (counts["cells.pulses_in"], "count"),
        "cells.pulses_out": (counts["cells.pulses_out"], "count"),
        "cells.us_per_pulse": (1e6 * simulate_s / counts["cells.pulses_in"] if counts["cells.pulses_in"] else 0.0, "us"),
        "oracle.run_s": (own.get("oracle.run", 0.0), "s"),
        "oracle.compare_s": (own.get("oracle.compare", 0.0), "s"),
        "oracle.compare_calls": (counts["oracle.compare_calls"], "count"),
        "oracle.clocks": (counts["oracle.clocks"], "count"),
        "margin.sweep_s": (sweep_s, "s"),
        "margin.self_s": (own.get("margin.sweep", 0.0), "s"),
        "margin.pass_self_s": (own.get("margin.pass", 0.0), "s"),
        "margin.points": (counts["margin.points"], "count"),
        "margin.scan_points": (counts["margin.scan_points"], "count"),
        "margin.scan_share": (counts["margin.scan_points"] / counts["margin.points"] if counts["margin.points"] else 0.0, "ratio"),
        "margin.saturated_sides": (counts["margin.saturated_sides"], "count"),
        "driver.self_s": (driver / n, "s"),
        "trace.wall_s": (statistics.fmean(traced_walls), "s"),
        "trace.overhead_s": (statistics.fmean(traced_walls) - statistics.fmean(plain_walls), "s"),
    }
    for tb in TESTBENCHES:
        steps = log.steps_by_tb.get(tb, 0)
        run = by_label.get(("analog.run", tb), 0.0)
        m[f"analog.us_per_step.{tb}"] = (1e6 * run / steps if steps else 0.0, "us")
        m[f"analog.unknowns.{tb}"] = (log.unknowns.get(tb, 0), "count")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sfqsim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sfqsim" / "__init__.py").is_file():
        print(f"error: no sfqsim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    blas_threads = pin_blas()
    sys.path.insert(0, str(SRC))
    import numpy
    import sfqsim
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS, Api

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if Path(sfqsim.__file__).resolve().parent != SRC / "sfqsim":
        print(f"error: imported sfqsim from {sfqsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    plain = Api(NullTracer())
    warm = wl.warmup(plain)

    logs: list = []
    walls: list[float] = []
    start = time.perf_counter()
    if args.trace:
        # alternate untraced and traced passes so that drift hits both alike
        tracer = Tracer()
        traced_api = Api(tracer)
        traced: list = []
        traced_walls: list[float] = []
        while len(traced) < 2 or time.perf_counter() - start < args.seconds:
            log, wall = one_pass(wl, plain)
            logs.append(log)
            walls.append(wall)
            tracer.reset()
            log, wall = one_pass(wl, traced_api)
            traced.append((log, list(tracer.spans)))
            traced_walls.append(wall)
        metrics = per_layer(traced, traced_walls, walls)
        logs += [log for log, _ in traced]
        extra = {"passes": len(walls), "traced_passes": len(traced)}
    else:
        while len(walls) < wl.min_passes or time.perf_counter() - start < args.seconds:
            log, wall = one_pass(wl, plain)
            logs.append(log)
            walls.append(wall)
        # read before the statistics below allocate anything
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, extra = end_to_end(wl, logs, walls, setup_times, peak_rss_kb)
    all_logs = [warm] + logs
    extra["counts_repeat"] = all(dict(log.counts) == dict(logs[0].counts) for log in logs)

    failures = [f for log in all_logs for f in log.failures]
    attempted = sum(len(log.op_s) + log.checks for log in all_logs)
    digests = {log.digest for log in logs}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "source_sha": source_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "blas_threads": blas_threads,
        "digest": logs[0].digest,
        "digest_repeats": len(digests) == 1,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        **extra,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for f in failures[:20]:
        print(f"FAIL {f}", file=sys.stderr)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "walls_s"}}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
