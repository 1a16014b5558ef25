"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at tiny size, untraced and traced, and fails unless
each run's checks pass and it emits exactly the metrics ``BENCHMARK.json``
names, with their units; every per-layer metric must also appear in the
layer-to-end-to-end table of ``bench/README.md``.  Last, it runs the
benchmark in a directory holding only ``BENCHMARK.json`` and ``bench/``,
where it must exit non-zero without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    readme = (ROOT / "bench" / "README.md").read_text()
    problems = []
    undocumented = [m["name"] for m in spec["per_layer"] if f"`{m['name']}`" not in readme]
    if undocumented:
        problems.append(f"per-layer metrics missing from bench/README.md: {undocumented}")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                       "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks failed: {proc.stderr[-500:]}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}, "
                                f"units {[n for n in got if got[n] != expected.get(n, got[n])]}")
            bad = [name for name, m in result["metrics"].items()
                   if not math.isfinite(m["value"]) or (trace == 0 and m["value"] <= 0)]
            if bad:
                problems.append(f"{label}: zero or non-finite values: {bad}")
            print(f"ok {label}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics", flush=True)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "cli_mix", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("a directory without src/wtd did not fail the benchmark")
        else:
            print("ok bare directory: exit", proc.returncode)

    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
