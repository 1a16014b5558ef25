"""Smoke tests of the developer scripts under ``scripts/``."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_plan_costs_of_the_checkout_against_itself():
    # Both packages are this checkout's, so every plan, simulation report and power search agrees
    # in bits.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "plan_costs.py"), str(ROOT),
         "--problems", "3", "--rounds", "1", "--cold", "3"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    bits = [line for line in lines if line.startswith("bits ")]
    searches = [line for line in lines if line.startswith("power search")]
    assert len(bits) == 6 and len(searches) == 1
    for line in bits:
        assert re.search(r": 0 of 3 plans differ;", line), line
    assert re.search(r"; 0 of \d+ searches differ", searches[0]), searches[0]
    assert sum(line.startswith("all nine calls (us): parent median") for line in lines) == 1
    # Each of the three cold calls, as the first call on its own problems, per n.
    cold = [line.split()[1:3] for line in lines if line.startswith("cold ")]
    assert cold == [[call, f"n={n}"] for call in ("secrecy_capacity_cov", "channel_gsv",
                                                 "broadcast_region") for n in (2, 4, 8)]
    # Every plan is a function of its problem: no mode's rates move under a change of coordinates.
    invariance = [line for line in lines if line.startswith("invariance ")]
    assert [line.split(":")[0] for line in invariance] == ["invariance parent", "invariance change"]
    for line in invariance:
        assert ": gsvd 0, svd_eve 0, svd_bob 0, gmd_bob 0 of 3 plans move" in line, line
    # Per simulator kind, a cold call and a repeat of it, then a whole pass with no repeat, then
    # one bits line over the cold and repeat calls.
    mc = [line.split()[1:3] for line in lines
          if line.startswith("mc ") and not line.startswith(("mc bits", "mc check"))]
    assert mc == [[phase, kind] for kind in ("sic", "sic_nogenie", "leakage", "dpc", "broadcast")
                  for phase in ("cold", "repeat")]
    check = [line.split() for line in lines if line.startswith("mc check ")]
    assert len(check) == 1 and len(check[0]) == 5 and all(float(v) > 0 for v in check[0][2:])
    mc_bits = [line for line in lines if line.startswith("mc bits: ")]
    assert len(mc_bits) == 1 and mc_bits[0].startswith("mc bits: 0 of 20 reports differ"), mc_bits
