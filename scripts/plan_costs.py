"""Compare the per-call cost of the capacity_sweep calls between two checkouts.

Usage, from the root of a wtd checkout:

    python3 scripts/plan_costs.py ../parent-checkout
    python3 scripts/plan_costs.py ../parent-checkout --problems 90 --rounds 4 --cold 600 --seed 1

The script loads the ``wtd`` package of ``PARENT/src`` as ``wtd_parent``
and the one of this checkout as ``wtd``, in one process with one BLAS
thread.  It draws the problems of the ``capacity_sweep`` workload
(``bench/workloads.py``) and runs its nine calls on each problem with both
packages.  Rounds are the outer loop and problems the inner one, so, as in
the benchmark, no problem comes back before every other one has run; which
package goes first alternates per problem and round, so a slow spell of the
machine hits both alike.  It prints the median time of each call per
package in microseconds, their ratio (parent over change), pooled over
every problem and then per transmit dimension n (2, 4 and 8 in the
benchmark), and the ratio of the total times.  The "all nine calls" line
pools every timed call of a package, as the benchmark pools its calls, and
gives its median and 99th percentile (nearest rank), the in-process
counterparts of ``call_p50_s`` and ``call_tail_s``.  The "bits" lines compare
the plans of the first round: per plan call, how many of the problems'
plans differ in the bits of any array between the packages, and the
largest relative difference ``|a - b| / max(|a|, |b|)`` of their
``secret_rates_bits``, ``rates_bits`` (the base plan's too) and ``sinr``,
so a change that moves plan bits by rounding shows by how much.  The
"cold" lines then time ``secrecy_capacity_cov``
alone as the first call on each of ``--cold`` further problems, which
neither package has seen, alternating which package goes first, and give
the medians per transmit dimension n.  The "power search" line times
``power_constrained_capacity`` on the benchmark's power problems
(``workloads.power_problem`` of ``--seed``, budget ``POWER_BUDGET``),
``--rounds`` times each, alternating which package goes first, and gives
each package's mean time in milliseconds, their ratio, each package's
mean bound in bits, and how many searches returned a ``kbar`` or a bound
whose bits differ between the two packages.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import wtd  # noqa: E402
from workloads import POWER_BUDGET, POWER_PROBLEMS, CapacitySweep, power_problem  # noqa: E402

MODES = ("gsvd", "svd_eve", "svd_bob", "gmd_bob")
#: Plan fields, by the last part of their name, whose relative differences are printed.
COMPARED = ("secret_rates_bits", "rates_bits", "sinr")


def load_package(src, name):
    """Import the ``wtd`` package under ``src`` as the top-level module ``name``."""
    init = src / "wtd" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def calls(pkg, h_b, h_e, kbar):
    """The nine (label, thunk) calls of one capacity_sweep problem."""
    out = [("secrecy_capacity_cov", lambda: pkg.secrecy_capacity_cov(h_b, h_e, kbar)),
           ("channel_gsv", lambda: pkg.channel_gsv(h_b, h_e, kbar)),
           ("broadcast_region", lambda: pkg.broadcast_region(h_b, h_e, kbar))]
    for mode in MODES:
        out.append((f"build_wiretap_plan {mode}",
                    lambda mode=mode: pkg.build_wiretap_plan(h_b, h_e, kbar, mode)))
    out.append(("build_dpc_plan", lambda: pkg.build_dpc_plan(h_b, h_e, kbar)))
    out.append(("build_broadcast_plan", lambda: pkg.build_broadcast_plan(h_b, h_e, kbar)))
    return out


def plan_arrays(plan, prefix=""):
    """Every array of a plan by field name, nested plans flattened (``base.sinr``)."""
    out = {}
    for name, value in vars(plan).items():
        if dataclasses.is_dataclass(value):
            out.update(plan_arrays(value, f"{prefix}{name}."))
        elif isinstance(value, np.ndarray):
            out[prefix + name] = value
    return out


def compare(bits, label, before, after):
    """Add one plan pair to ``bits[label]``: a count of differing plans, then the largest
    relative difference of each field of ``COMPARED``."""
    entry = bits.setdefault(label, [0, 0, dict.fromkeys(COMPARED, 0.0)])
    before, after = plan_arrays(before), plan_arrays(after)
    entry[0] += 1
    entry[1] += any(before[k].tobytes() != after[k].tobytes() for k in before)
    for key, a in before.items():
        name = key.rsplit(".", 1)[-1]
        if name in COMPARED:
            b = after[key]
            scale = np.maximum(np.abs(a), np.abs(b))
            rel = np.abs(a - b) / np.where(scale > 0.0, scale, 1.0)
            entry[2][name] = max(entry[2][name], float(np.max(rel, initial=0.0)))


def ordered(packages, turn):
    """The package names, reversed on odd turns."""
    names = list(packages)
    return names[::-1] if turn % 2 else names


def nearest_rank(times, percent):
    """The ``percent`` percentile of ``times`` by nearest rank."""
    ordered = sorted(times)
    return ordered[max(1, -(-len(ordered) * percent // 100)) - 1]


def row(label, before, after):
    before, after = statistics.median(before) * 1e6, statistics.median(after) * 1e6
    print(f"{label:32s} {before:10.1f} {after:10.1f} {before / after:7.3f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("--problems", type=int, default=90)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--cold", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    src = Path(args.parent).resolve() / "src"
    if not (src / "wtd").is_dir():
        parser.error(f"no wtd package under {src}")
    packages = {"parent": load_package(src, "wtd_parent"), "change": wtd}
    sweep = CapacitySweep(args.seed, None, None, None)
    problems = [sweep.problem(index) for index in range(args.problems)]
    times = {name: {} for name in packages}
    bits = {}
    for round_ in range(args.rounds):
        for index, (n, h_b, h_e, kbar) in enumerate(problems):
            plans = {}
            for name in ordered(packages, index + round_):
                for label, call in calls(packages[name], h_b, h_e, kbar):
                    start = time.perf_counter()
                    result = call()
                    times[name].setdefault(label, {}).setdefault(n, []).append(
                        time.perf_counter() - start)
                    if round_ == 0 and label.startswith("build_"):
                        plans.setdefault(label, {})[name] = result
            for label, pair in plans.items():
                compare(bits, label, pair["parent"], pair["change"])
    cold = {name: {} for name in packages}
    for index in range(args.problems, args.problems + args.cold):
        n, h_b, h_e, kbar = sweep.problem(index)
        for name in ordered(packages, index):
            start = time.perf_counter()
            packages[name].secrecy_capacity_cov(h_b, h_e, kbar)
            cold[name].setdefault(n, []).append(time.perf_counter() - start)
    power = {name: ([], []) for name in packages}
    differ = 0
    for round_ in range(args.rounds):
        for index in range(POWER_PROBLEMS):
            h_b, h_e, total, search_seed = power_problem(args.seed, index)
            found = {}
            for name in ordered(packages, index + round_):
                start = time.perf_counter()
                res = packages[name].power_constrained_capacity(
                    h_b, h_e, total, budget=POWER_BUDGET, seed=search_seed)
                power[name][0].append(time.perf_counter() - start)
                power[name][1].append(res.capacity_lower_bound)
                found[name] = (res.kbar.tobytes(), res.capacity_lower_bound)
            differ += found["parent"] != found["change"]
    print(f"{'call':32s} {'parent us':>10s} {'change us':>10s} {'ratio':>7s}")
    for label, per_n in times["parent"].items():
        pooled = {name: [t for ts in times[name][label].values() for t in ts] for name in times}
        row(label, pooled["parent"], pooled["change"])
        for n in sorted(per_n):
            row(f"  n={n}", per_n[n], times["change"][label][n])
    total = {name: sum(sum(map(sum, per_n.values())) for per_n in per_call.values())
             for name, per_call in times.items()}
    print(f"total ratio (parent / change): {total['parent'] / total['change']:.3f} "
          f"({args.problems} problems x {args.rounds} rounds, seed {args.seed})")
    pooled = {name: [t for per_n in per_call.values() for ts in per_n.values() for t in ts]
              for name, per_call in times.items()}
    p50, p99 = ({name: pick(ts) * 1e6 for name, ts in pooled.items()}
                for pick in (statistics.median, lambda ts: nearest_rank(ts, 99)))
    print(f"all nine calls (us): parent median {p50['parent']:.1f}, p99 {p99['parent']:.1f}; "
          f"change median {p50['change']:.1f}, p99 {p99['change']:.1f}; ratios "
          f"{p50['parent'] / p50['change']:.3f}, {p99['parent'] / p99['change']:.3f}")
    for label, (count, differ_plans, worst) in bits.items():
        fields = ", ".join(f"{name} {value:.1e}" for name, value in worst.items())
        print(f"bits {label}: {differ_plans} of {count} plans differ; "
              f"largest relative difference: {fields}")
    for n in sorted(cold["parent"]):
        row(f"cold secrecy_capacity_cov n={n}", cold["parent"][n], cold["change"][n])
    (before, bound_before), (after, bound_after) = power["parent"], power["change"]
    before, after = statistics.fmean(before) * 1e3, statistics.fmean(after) * 1e3
    print(f"power search (mean ms): parent {before:.2f}, change {after:.2f}, ratio "
          f"{before / after:.3f}; mean bound: parent {statistics.fmean(bound_before):.5f}, "
          f"change {statistics.fmean(bound_after):.5f} bits; {differ} of {len(bound_before)} "
          f"searches differ in the bits of kbar or the bound ({POWER_PROBLEMS} problems x "
          f"{args.rounds} rounds, budget {POWER_BUDGET})")


if __name__ == "__main__":
    main()
