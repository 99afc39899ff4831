"""Tests of the scripts: they import the library API and must keep running.

`claims.py` is pinned on its ledger rows and on the evidence lines they rest on: the
scenario verdicts, the nominal pulse-multiplier slips and the analog margin rows.
"""

import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    # the scripts put src/ on sys.path themselves; a hung script fails instead of stalling
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


LEDGER = """\
== paper claims (PAPER.md abstract; bsim runs asserted cell delays)
claim                          paper           engine  repo                                 status
NDRO read-out                  single + multi  bsim    3/3 scenarios PASS                   MATCHES
NDRO read-out                  single + multi  analog  ndro/mndro store 0/0, read 0/0       NOT REPRODUCED
single-fluxon critical margin  > 20%           analog  loop write_amp 13.3% (non-monotone)  DIFFERS
multi-fluxon critical margin   64%             analog  no sweep                             NOT REPRODUCED
clock                          10 GHz          bsim    PASS at 100 ps clock spacing         MATCHES
capacity                       x2              Ic*L    x2.16 (0.398 -> 0.861 PHI0, naive)   MATCHES

""".splitlines()


def test_claims_ledger():
    out = run_script("claims.py")
    # the ledger rows come first, then the evidence they were computed from
    assert out[: len(LEDGER)] == LEDGER
    assert sum(line.startswith("== ") and line.endswith(": PASS") for line in out) == 3
    assert sum(line.startswith("critical:") for line in out) == 5
    # the nominal multiplier drive gives three output slips, 3.1 and 5.6 ps apart
    assert "   3 output slips at 109.4ps 112.5ps 118.1ps" in out
    # the analog rows scale one compiled storage loop: the write pulse and the quantizer Ic
    assert "write_amp     0.867  2.000  13.3% (non-monotone)" in out
    assert "quantizer_ic  0.500  2.000  >= 50.0%" in out
    # the multiplier's input amplitude window for exactly three output slips
    assert "mcg_drive  0.906  1.156  9.4%" in out
