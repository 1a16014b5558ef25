"""Benchmark of the wtd library and CLI.

Usage, from the root of a wtd checkout:

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 20 --trace 0

Workloads: ``cli_mix``, ``capacity_sweep``, ``mc_verify`` (see
``bench/README.md``).  With ``--trace 0`` the run measures the end-to-end
metrics untraced; with ``--trace 1`` it replays the same passes with every
public ``wtd`` function wrapped and reports per-layer metrics.  Every
operation is checked.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it gives the machine, the settings and details such as the tail
percentile.  The program under test is always ``src/wtd`` of the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: BLAS runs single-threaded; the simulators' own threads (WTD_THREADS,
#: at most 2) then keep the total at or below two, the core count of the
#: 2-vCPU machine the bounds in BENCHMARK.json were set on.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_mix", "capacity_sweep", "mc_verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one setup sample (smoke test)")
    return parser.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["WTD_THREADS"] = "1"
    return env


def interleave(*lists):
    """Items of ``lists`` in turn: a0, b0, a1, b1, ... until all are used."""
    out = []
    for i in range(max(len(items) for items in lists)):
        out.extend(items[i] for items in lists if i < len(items))
    return out


def run_passes(run_pass, seconds, between=()):
    """Whole passes until they have taken ``seconds``; returns (passes, wall).

    The calls in ``between`` are spread evenly over the passes, so a slow
    spell of the shared machine hits few of them, and their time does not
    count towards ``seconds``; any left at the end run then.
    """
    start = time.perf_counter()
    passes = done = 0
    aside = 0.0
    while passes == 0 or time.perf_counter() - start - aside < seconds:
        run_pass(passes)
        passes += 1
        while (done < len(between) and time.perf_counter() - start - aside
               >= (done + 1) * seconds / (len(between) + 1)):
            begin = time.perf_counter()
            between[done]()
            aside += time.perf_counter() - begin
            done += 1
    for call in between[done:]:
        call()
    return passes, time.perf_counter() - start


def setup_probe(checker, workload, work, env):
    """Seconds for a fresh process to ``import wtd`` and warm up, spawn to exit."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, work],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        checker.fail(f"setup probe exited {proc.returncode}: {proc.stderr[-300:]}")
    return elapsed


def end_to_end(wl, workloads, name, setup, searches, errors):
    times = wl.call_times
    value, percentile, beyond = workloads.tail(times, workloads.TAIL_CAP[name])
    digits, by_condition = workloads.accuracy_digits(errors)
    metrics = {
        "setup_s": (setup, "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "call_p50_s": (statistics.median(times), "s"),
        "call_tail_s": (value, "s"),
        "calls_per_s": (len(times) / sum(times), "1/s"),
        "power_search_s": (statistics.fmean(s[0] for s in searches), "s"),
        "power_bound_bits": (statistics.fmean(s[4].capacity_lower_bound for s in searches),
                             "bits"),
        "gsv_accuracy_digits": (digits, "digits"),
    }
    details = {
        "calls": len(times),
        "tail_percentile": percentile,
        "tail_calls_beyond": beyond,
        "gsv_digits_by_condition": dict(zip(workloads.ACCURACY_CONDITIONS, by_condition)),
        "power_search_times_s": [s[0] for s in searches],
    }
    if name == "capacity_sweep":
        per = wl.by_function
        builders = [t for fn, ts in per.items() if fn.startswith("build_") for t in ts]
        details["capacity_evals_per_s"] = (len(per["secrecy_capacity_cov"])
                                           / sum(per["secrecy_capacity_cov"]))
        details["plan_builds_per_s"] = len(builders) / sum(builders)
    elif name == "mc_verify":
        details["mc_samples_per_s"] = wl.samples_per_s("2")
        details["mc_samples_per_s_1t"] = wl.samples_per_s("1")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def per_layer(wl, workloads, tracing, checker, name, seed, seconds, tiny, work, env):
    """Each pass runs once untraced and once traced, in alternating order so
    drift and warm caches cancel in the overhead ratio; then the power
    searches and the coverage pass run traced."""
    import wtd
    from wtd import cli, decomp, scheme, secrecy

    tracer = tracing.Tracer()
    modules = [decomp, secrecy, scheme, cli]
    untraced = traced = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for with_trace in ((False, True) if passes % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install(wtd, modules)
            try:
                with tracer.span("bench.pass"):
                    begin = time.perf_counter()
                    wl.run_pass(passes, inprocess=True)
                    elapsed = time.perf_counter() - begin
            finally:
                tracer.uninstall()
            if with_trace:
                traced += elapsed
            else:
                untraced += elapsed
        passes += 1
    tracer.install(wtd, modules)
    try:
        with tracer.span("bench.power"):
            searches = [workloads.power_search(seed, i)
                        for i in range(1 if tiny else workloads.POWER_PROBLEMS)]
        with tracer.span("bench.coverage"):
            workloads.coverage_pass(seed, work)
    finally:
        tracer.uninstall()
    workloads.check_power_searches(checker, searches)

    layers = tracing.layer_metrics(tracer.spans)
    wall = layers.pop("_wall_s")
    accounted = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    checker.expect(abs(accounted - wall) <= 1e-6 * max(1.0, wall),
                   f"layer self times sum to {accounted} s, traced wall is {wall} s")
    layers.update(workloads.import_costs(env, repeats=1 if tiny else 3))
    layers["rng.ref_normals_per_s"] = workloads.rng_reference_rate(seed)
    if layers["scheme.sim.normals_per_s"] is not None:
        layers["scheme.sim.rng_ceiling_ratio"] = (layers["scheme.sim.normals_per_s"]
                                                  / layers["rng.ref_normals_per_s"])
    layers["trace.overhead_ratio"] = traced / untraced
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{name}-seed{seed}.json")

    missing = sorted(k for k, v in layers.items() if v is None)
    checker.expect(not missing, f"per-layer metrics not measured: {missing}")
    metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layers.items()
               if v is not None}
    return metrics, {"passes": passes, "traced_wall_s": wall, "spans": len(tracer.spans)}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wtd" / "__init__.py").is_file():
        print(f"error: {SRC / 'wtd'} not found; run the benchmark inside a wtd checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["WTD_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    import wtd
    if not Path(wtd.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported wtd from {wtd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    from checks import Checker

    checker = Checker()
    env = child_env()
    name = args.workload
    work = OUT / f"work-{name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[name](args.seed, str(work), checker, env, args.tiny)
        workloads.warm_up(name, str(work))
        if args.trace:
            metrics, details = per_layer(wl, workloads, tracing, checker, name, args.seed,
                                         args.seconds, args.tiny, str(work), env)
            wl.check()
        else:
            setup_times, searches = [], []
            probes = [lambda: setup_times.append(setup_probe(checker, name, str(work), env))
                      ] * (1 if args.tiny else SETUP_REPEATS)
            power = [lambda i=i: searches.append(workloads.power_search(args.seed, i))
                     for i in range(1 if args.tiny else workloads.POWER_PROBLEMS)]
            passes, _ = run_passes(wl.run_pass, args.seconds, interleave(probes, power))
            errors = workloads.accuracy_errors(args.seed, args.tiny)
            setup = statistics.median(setup_times)
            wl.check()
            optimum = workloads.check_power_searches(checker, searches)
            metrics, details = end_to_end(wl, workloads, name, setup, searches, errors)
            details.update(passes=passes, setup_samples_s=setup_times,
                           power_optimum_bits=optimum)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details["machine"] = workloads.machine_info(args.seed, name)
    details["fail_ratio"] = checker.failed / max(1, checker.attempted)
    details["notes"] = checker.notes
    details["trace"] = args.trace
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "details": details, "failures": checker.messages},
                  fh, indent=1)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
