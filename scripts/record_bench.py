"""Record the benchmark trajectory file ``BENCH_<pr>.json``.

Usage, from the root of a wtd checkout:

    python3 scripts/record_bench.py N
    python3 scripts/record_bench.py M=../parent-checkout N

Each target is ``PR`` or ``PR=CHECKOUT``: the number of the change the
file belongs to, and its checkout, which defaults to this repository.  For
each of the seeds 1 to 5 and every workload named in ``BENCHMARK.json``,
the script runs ``bench/run.py --trace 0`` of each target's own checkout,
one process at a time.  With several targets, the order rotates from one
run to the next, so a slow spell of the machine does not always hit the
same target.  It then writes ``BENCH_<pr>.json`` at the root of this
repository for each target: the git revision of the checkout, the
machine, the settings, and per workload each end-to-end metric's median,
quartiles and IQR over the seeds, with the value of every run.  The same
summary is kept of each run's minor page faults (``ru_minflt`` of the run
and every process it waited for), which move the simulator timings with no
change in the arithmetic.  A run that exits non-zero or reports a failed
check stops the recording.
"""

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Workload seeds of every recorded file, so that files compare seed by seed.
SEEDS = (1, 2, 3, 4, 5)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="PR[=CHECKOUT]")
    targets = []
    for text in parser.parse_args(argv).targets:
        pr, _, checkout = text.partition("=")
        if not pr.isdigit():
            parser.error(f"target {text!r} must be PR or PR=CHECKOUT")
        targets.append((int(pr), Path(checkout or ROOT).resolve()))
    return targets


def git(checkout, *args):
    proc = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout, workload, seed, seconds):
    """One untraced benchmark run; returns its result and details objects and
    its minor page faults."""
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout} {workload} seed {seed}: exit {proc.returncode}: "
                         f"{proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["details"]
    if not result["correct"]:
        raise SystemExit(f"{checkout} {workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} checks failed")
    return result, details, faults


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def main(argv=None):
    targets = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    runs = {pr: {w: [] for w in workloads} for pr, _ in targets}
    # The source state is read before the runs, so edits made while they go
    # on do not mark it.
    revisions = {pr: (git(checkout, "rev-parse", "HEAD"),
                      bool(git(checkout, "status", "--porcelain")))
                 for pr, checkout in targets}
    machine = {}
    turn = 0
    for seed in SEEDS:
        for workload in workloads:
            for pr, checkout in targets[turn:] + targets[:turn]:
                result, details, faults = run_once(checkout, workload, seed, seconds)
                machine.setdefault(pr, details["machine"])
                runs[pr][workload].append((result, details, faults))
                print(f"BENCH_{pr} {workload} seed {seed}: "
                      f"calls_per_s {result['metrics']['calls_per_s']['value']:.4g}, "
                      f"minor faults {faults}",
                      file=sys.stderr, flush=True)
            turn = (turn + 1) % len(targets)

    for pr, _ in targets:
        info = {k: v for k, v in machine[pr].items() if k not in ("seed", "workload")}
        info.update(platform=platform.platform(), cpu=cpu_model())
        record = {
            "pr": pr,
            "git_revision": revisions[pr][0],
            "git_dirty": revisions[pr][1],
            "machine": info,
            "command": "python3 bench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "seeds": list(SEEDS),
            "workloads": {},
        }
        for workload, done in runs[pr].items():
            metrics = {name: dict(unit=unit, **summary(
                [r["metrics"][name]["value"] for r, _, _ in done]))
                for name, unit in units.items()}
            record["workloads"][workload] = {
                "metrics": metrics,
                "minor_faults": summary([f for _, _, f in done]),
                "fail_ratio": max(d["fail_ratio"] for _, d, _ in done),
                "attempted": sum(r["attempted"] for r, _, _ in done),
            }
        path = ROOT / f"BENCH_{pr}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
