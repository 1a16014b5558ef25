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
"invariance" lines give, per package and mode, how many of the problems'
wiretap plans move their per-stream secret or fictitious rates by more than
1e-9 of the capacity under a random unitary change of coordinates
``(U_b h_b V, U_e h_e V, V' K V)``, the same for both packages: a plan that
is a function of its problem moves by rounding only.  The "cold" lines then
time ``secrecy_capacity_cov``, ``channel_gsv`` and ``broadcast_region``,
each alone as the first call on ``--cold`` further problems of its own,
which neither package has seen, alternating which package goes first, and
give the medians per call and transmit dimension n.  The "power search"
line times ``power_constrained_capacity`` on the benchmark's power problems
(``workloads.power_problem`` of ``--seed``, budget ``POWER_BUDGET``),
``--rounds`` times each, alternating which package goes first, and gives
each package's mean time in milliseconds, their ratio, each package's
mean bound in bits, and how many searches returned a ``kbar`` or a bound
whose bits differ between the two packages.  The "mc" lines run the
simulators of the ``mc_verify`` workload (``sic``, ``sic_nogenie``,
``leakage``, ``dpc``, ``broadcast``) on its two plans at ``MC_SAMPLES``
samples, on ``--rounds`` seeds from ``--seed``: per kind, the median time
of a cold call (a seed no call of that package has drawn) and of a repeat
(the same call again), and one line counting the reports, cold and repeat,
whose bits differ between the two packages.  The "mc check" line times a
whole ``mc_verify`` pass with no repeated call: per package, the five kinds
in ``MC_KINDS`` order on each of the two plans, each plan on a seed no
other call has drawn, ``--rounds`` times, alternating which package goes
first.  It gives the median time of a pass, the cost of verifying the plans
once, with each package's kept draw shared as that package shares it.  The
"mc paired" line divides the parent's pass by the change's pass of the same
round and gives the smallest, median and largest of these ratios and the
number of rounds the change was faster in: the two passes of a round run
back to back, so a slow spell of the machine that moves both cancels in
their ratio, where it would move a ratio of medians at few rounds.
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
from workloads import (  # noqa: E402
    MC_KINDS, POWER_BUDGET, POWER_PROBLEMS, CapacitySweep, McVerify, _rng, complex_gaussian,
    power_problem, random_psd)

MODES = ("gsvd", "svd_eve", "svd_bob", "gmd_bob")
#: The calls timed cold, each as the first call on its own ``--cold`` problems.
COLD = ("secrecy_capacity_cov", "channel_gsv", "broadcast_region")
#: Plan fields, by the last part of their name, whose relative differences are printed.
COMPARED = ("secret_rates_bits", "rates_bits", "sinr")
#: Samples of each simulator call of the "mc" lines.
MC_SAMPLES = 1 << 16


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


def moved_plans(pkg, problems, rotations):
    """Per mode, how many plans of ``problems`` move their per-stream secret or fictitious
    rates by more than 1e-9 of the capacity when each problem is rotated by its
    ``(U_b, U_e, V)`` of ``rotations``."""
    moved = dict.fromkeys(MODES, 0)
    for (_, h_b, h_e, kbar), (u_b, u_e, v) in zip(problems, rotations):
        rotated = (u_b @ h_b @ v, u_e @ h_e @ v, v.conj().T @ kbar @ v)
        tol = 1e-9 * pkg.secrecy_capacity_cov(h_b, h_e, kbar).capacity_bits
        for mode in MODES:
            plan, other = (pkg.build_wiretap_plan(*p, mode) for p in ((h_b, h_e, kbar), rotated))
            moved[mode] += any(np.max(np.abs(getattr(plan, f) - getattr(other, f))) > tol
                               for f in ("secret_rates_bits", "fictitious_rates_bits"))
    return moved


def mc_plans(pkg, seed):
    """The ``mc_verify`` workload's two problems of ``seed`` and their ``gsvd`` wiretap, DPC and
    broadcast plans, built by ``pkg``."""
    plans = []
    for i, (n, rows) in enumerate(McVerify.shapes):
        rng = _rng(seed, "mc_verify", i)
        h_b, h_e = complex_gaussian(rng, rows, n), complex_gaussian(rng, rows, n)
        kbar = random_psd(rng, n)
        plans.append((h_b, h_e, pkg.build_wiretap_plan(h_b, h_e, kbar, "gsvd"),
                      pkg.build_dpc_plan(h_b, h_e, kbar), pkg.build_broadcast_plan(h_b, h_e, kbar)))
    return plans


def mc_call(pkg, kind, plan, seed):
    """One ``pkg`` simulator call of ``kind`` on ``plan``, the second receiver as Eve/Charlie."""
    h_b, h_e, wiretap, dpc, broadcast = plan
    sim = pkg.scheme
    if kind == "leakage":
        return sim.simulate_leakage(wiretap, h_e, MC_SAMPLES, seed)
    if kind == "dpc":
        return sim.simulate_dpc(dpc, h_b, MC_SAMPLES, seed)
    if kind == "broadcast":
        return sim.simulate_broadcast(broadcast, h_b, h_e, MC_SAMPLES, seed)
    return sim.simulate_sic(wiretap.base, h_b, MC_SAMPLES, seed, genie=kind == "sic")


def report_bytes(report):
    """Every field of a simulation report, its extras flattened in, as bytes."""
    values = {**vars(report), **report.extras}
    return [np.asarray(value).tobytes() for name, value in values.items() if name != "extras"]


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
    for k, label in enumerate(COLD):
        first = args.problems + k * args.cold
        for index in range(first, first + args.cold):
            n, h_b, h_e, kbar = sweep.problem(index)
            for name in ordered(packages, index):
                call = getattr(packages[name], label)
                start = time.perf_counter()
                call(h_b, h_e, kbar)
                cold[name].setdefault(label, {}).setdefault(n, []).append(
                    time.perf_counter() - start)
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
    mc = {name: {} for name in packages}
    reports, mc_differ = 0, 0
    sim_plans = {name: mc_plans(pkg, args.seed) for name, pkg in packages.items()}
    for s in range(args.rounds):
        for k, kind in enumerate(MC_KINDS):
            # A seed of its own per kind, so no cold call reads another kind's draw.
            seed = args.seed + s * len(MC_KINDS) + k
            for index in range(len(McVerify.shapes)):
                got = {}
                for name in ordered(packages, s + k + index):
                    for phase in ("cold", "repeat"):
                        start = time.perf_counter()
                        report = mc_call(packages[name], kind, sim_plans[name][index], seed)
                        mc[name].setdefault((phase, kind), []).append(
                            time.perf_counter() - start)
                        got[name, phase] = report_bytes(report)
                for phase in ("cold", "repeat"):
                    reports += 1
                    mc_differ += got["parent", phase] != got["change", phase]
    check = {name: [] for name in packages}
    for s in range(args.rounds):
        for name in ordered(packages, s):
            start = time.perf_counter()
            for index in range(len(McVerify.shapes)):
                # Past every seed of the cold and repeat calls, so no kind reads their draws.
                seed = args.seed + (args.rounds + s) * len(MC_KINDS) + index
                for kind in MC_KINDS:
                    mc_call(packages[name], kind, sim_plans[name][index], seed)
            check[name].append(time.perf_counter() - start)
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
    rng = np.random.default_rng(args.seed)
    rotations = [[wtd.decomp.haar_unitary(h.shape[0], rng) for h in (h_b, h_e, kbar)]
                 for _, h_b, h_e, kbar in problems]
    for name, pkg in packages.items():
        moved = moved_plans(pkg, problems, rotations)
        print(f"invariance {name}: " + ", ".join(f"{mode} {moved[mode]}" for mode in MODES)
              + f" of {len(problems)} plans move their per-stream rates by more than 1e-9 of "
              f"the capacity under a unitary change of coordinates")
    for label, per_n in cold["parent"].items():
        for n in sorted(per_n):
            row(f"cold {label} n={n}", per_n[n], cold["change"][label][n])
    for (phase, kind), before in mc["parent"].items():
        row(f"mc {phase} {kind}", before, mc["change"][phase, kind])
    row("mc check", check["parent"], check["change"])
    paired = sorted(p / c for p, c in zip(check["parent"], check["change"]))
    print(f"mc paired ratio (parent / change) of each round's passes: min {paired[0]:.3f}, "
          f"median {statistics.median(paired):.3f}, max {paired[-1]:.3f}; the change was "
          f"faster in {sum(r > 1.0 for r in paired)} of {len(paired)} rounds")
    print(f"mc bits: {mc_differ} of {reports} reports differ between the packages "
          f"({len(McVerify.shapes)} plans x {len(MC_KINDS)} kinds x {args.rounds} seeds, cold "
          f"and repeat, {MC_SAMPLES} samples)")
    (before, bound_before), (after, bound_after) = power["parent"], power["change"]
    before, after = statistics.fmean(before) * 1e3, statistics.fmean(after) * 1e3
    print(f"power search (mean ms): parent {before:.2f}, change {after:.2f}, ratio "
          f"{before / after:.3f}; mean bound: parent {statistics.fmean(bound_before):.5f}, "
          f"change {statistics.fmean(bound_after):.5f} bits; {differ} of {len(bound_before)} "
          f"searches differ in the bits of kbar or the bound ({POWER_PROBLEMS} problems x "
          f"{args.rounds} rounds, budget {POWER_BUDGET})")


if __name__ == "__main__":
    main()
