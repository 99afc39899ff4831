"""Smoke tests for the scripts: they import the library API and must keep running."""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    # the scripts put src/ on sys.path themselves
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_scenario_and_margin_scripts_run():
    scenarios = run_script("run_scenarios.py")
    assert sum(line.startswith("== ") and line.endswith(": PASS") for line in scenarios) == 3
    margins = run_script("run_margins.py", "--skip-analog")
    assert sum(line.startswith("critical:") for line in margins) == 3
