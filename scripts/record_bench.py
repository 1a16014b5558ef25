"""Record the benchmark trajectory file ``BENCH_<label>.json``.

Usage, from the root of a wtd checkout:

    python3 scripts/record_bench.py N
    python3 scripts/record_bench.py N_parent=../parent-checkout N

Each target is ``LABEL`` or ``LABEL=CHECKOUT``: the label of the file, the
number of the change it belongs to with an optional ``_suffix`` (such as
``N_parent`` for the parent of change ``N``, re-recorded beside it), and its
checkout, which defaults to this repository.  A file that git tracks is
never overwritten: a target whose ``BENCH_<label>.json`` is tracked is
refused before anything runs.  For
each of the seeds 1 to 5 and every workload named in ``BENCHMARK.json``,
the script runs ``bench/run.py --trace 0`` of each target's own checkout,
one process at a time.  With several targets, the order rotates from one
run to the next, so a slow spell of the machine does not always hit the
same target.  It then writes ``BENCH_<label>.json`` at the root of this
repository for each target: the git revision of the checkout, the
machine, the settings, and per workload each end-to-end metric's median,
quartiles and IQR over the seeds, with the value of every run.  The same
summary is kept of each run's minor page faults (``ru_minflt`` of the run
and every process it waited for), which move the simulator timings with no
change in the arithmetic.  A run that exits non-zero or reports a failed
check stops the recording; the message names each failed check the run wrote.
"""

import argparse
import json
import platform
import re
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
    parser.add_argument("targets", nargs="+", metavar="LABEL[=CHECKOUT]")
    targets = []
    for text in parser.parse_args(argv).targets:
        label, _, checkout = text.partition("=")
        if not re.fullmatch(r"\d+(_\w+)?", label, re.ASCII):
            parser.error(f"target {text!r} must be LABEL or LABEL=CHECKOUT, "
                         "LABEL a change number with an optional _suffix")
        if git(ROOT, "ls-files", "--error-unmatch", f"BENCH_{label}.json") is not None:
            parser.error(f"BENCH_{label}.json is tracked by git and is never overwritten; "
                         f"record under a new label such as {label}_parent")
        targets.append((label, Path(checkout or ROOT).resolve()))
    if len({label for label, _ in targets}) < len(targets):
        parser.error("every target needs its own label")
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
        failures = [line for line in proc.stderr.splitlines() if line.startswith("check failed: ")]
        raise SystemExit("\n".join([f"{checkout} {workload} seed {seed}: {result['failed']} of "
                                    f"{result['attempted']} checks failed", *failures]))
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
    runs = {label: {w: [] for w in workloads} for label, _ in targets}
    # The source state is read before the runs, so edits made while they go
    # on do not mark it.
    revisions = {label: (git(checkout, "rev-parse", "HEAD"),
                         bool(git(checkout, "status", "--porcelain")))
                 for label, checkout in targets}
    machine = {}
    turn = 0
    for seed in SEEDS:
        for workload in workloads:
            for label, checkout in targets[turn:] + targets[:turn]:
                result, details, faults = run_once(checkout, workload, seed, seconds)
                machine.setdefault(label, details["machine"])
                runs[label][workload].append((result, details, faults))
                print(f"BENCH_{label} {workload} seed {seed}: "
                      f"calls_per_s {result['metrics']['calls_per_s']['value']:.4g}, "
                      f"minor faults {faults}",
                      file=sys.stderr, flush=True)
            turn = (turn + 1) % len(targets)

    for label, _ in targets:
        info = {k: v for k, v in machine[label].items() if k not in ("seed", "workload")}
        info.update(platform=platform.platform(), cpu=cpu_model())
        number, _, suffix = label.partition("_")
        record = {
            "pr": int(number),
            **({"label": label} if suffix else {}),
            "git_revision": revisions[label][0],
            "git_dirty": revisions[label][1],
            "machine": info,
            "command": "python3 bench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "seeds": list(SEEDS),
            "workloads": {},
        }
        for workload, done in runs[label].items():
            metrics = {name: dict(unit=unit, **summary(
                [r["metrics"][name]["value"] for r, _, _ in done]))
                for name, unit in units.items()}
            record["workloads"][workload] = {
                "metrics": metrics,
                "minor_faults": summary([f for _, _, f in done]),
                "fail_ratio": max(d["fail_ratio"] for _, d, _ in done),
                "attempted": sum(r["attempted"] for r, _, _ in done),
            }
        path = ROOT / f"BENCH_{label}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
