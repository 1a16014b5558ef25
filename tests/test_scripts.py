"""Smoke tests of the developer scripts under ``scripts/``."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_plan_costs_of_the_checkout_against_itself():
    # Both packages are this checkout's, so every plan and every power search agrees in bits.
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
