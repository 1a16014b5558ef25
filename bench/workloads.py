"""The three benchmark workloads, the power searches and accuracy pairs
they share, and the coverage pass of the traced run.

Inputs come only from ``--seed``: every problem is drawn from
``numpy.random.default_rng([seed, workload tag, index])``, so the same seed
gives the same inputs whatever the run length.  Each workload is a closed
loop with one client, run in whole passes so its mix of calls is the same
in every run.
"""

import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata

import numpy as np

import wtd
from wtd import cli, decomp, scheme, secrecy
from wtd.errors import DomainError, NumericalFailure

from checks import IDENTITY_RTOL, check_simulation, psd_below

#: Samples per simulator call in mc_verify: 16 chunks of 2**14, so both
#: threads get the same share.  The cost per sample is flat from a few chunks
#: up, and this size fits about 100 timed calls into a 25 s run.
MC_SAMPLES = 1 << 18
#: Samples per ``simulate`` call in cli_mix.
CLI_SAMPLES = 100_000
#: Budget of every power search.
POWER_BUDGET = 500
#: Parallel-channel power problems, searched in every workload: n = 4 transmit
#: antennas, five and six receive antennas, unit power per antenna.  The
#: singular values are fixed and only the unitaries are drawn from the seed,
#: so the optimum is the same for every seed and the certified bound
#: measures the search, not the draw.
POWER_SIGMA_B = (3.0, 2.0, 1.0, 0.5)
POWER_SIGMA_E = (0.5, 1.0, 1.5, 2.0)
#: Searches per run.  Their time is reported as a mean: on a shared 2-vCPU
#: virtual machine the same search flips between a fast and a ~1.5x slower
#: state every few seconds, and the median of sixteen 0.4 s snapshots jumps
#: between the two.
POWER_PROBLEMS = 16
#: Constructed pairs with known GSVs, at three right-factor conditions.
ACCURACY_GSV = (1e3, 10.0, 1.0, 1e-3)
ACCURACY_CONDITIONS = (1e2, 1e5, 1e7)
ACCURACY_PAIRS = 64
#: Highest tail percentile reported per workload.  The tail is the highest
#: of these with at least ten calls beyond it; the cap keeps a faster
#: program, which fits more calls into a run, from moving the tail to a
#: higher percentile.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_CAP = {"cli_mix": 75.0, "capacity_sweep": 99.0, "mc_verify": 75.0}

_TAG = {"cli_mix": 1, "capacity_sweep": 2, "mc_verify": 3, "shared": 4, "coverage": 5}


# --------------------------------------------------------------- inputs

def _rng(seed, tag, index=0):
    return np.random.default_rng([seed, _TAG[tag], index])


def complex_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_psd(rng, n):
    """Hermitian PSD matrix with trace n."""
    f = complex_gaussian(rng, n, n)
    k = f @ f.conj().T
    k = (k + k.conj().T) / 2.0
    return k * (n / np.real(np.trace(k)))


def haar(rng, n):
    q, r = np.linalg.qr(complex_gaussian(rng, n, n))
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def gaussian_mi(h, k):
    """log2 det(I + h k h'), computed here so checks do not trust ``wtd``."""
    m = np.eye(h.shape[0]) + h @ k @ h.conj().T
    return float(np.linalg.slogdet((m + m.conj().T) / 2.0)[1] / np.log(2.0))


def mi_difference(h_b, h_e, k):
    return gaussian_mi(h_b, k) - gaussian_mi(h_e, k)


def matrix_json(a):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.atleast_2d(a)]


def matrix_from_json(obj):
    return np.array([[complex(re, im) for re, im in row] for row in obj])


def tail(times, cap):
    """(value, percentile, calls beyond it) for the highest ladder percentile
    up to ``cap`` with at least ten calls beyond it, by nearest rank."""
    ordered = sorted(times)
    count = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, -(-count * int(p * 10) // 1000))
        if p <= cap and count - rank >= 10:
            best = (ordered[rank - 1], p, count - rank)
    if best is None:
        return ordered[-1], 100.0, 0
    return best


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_record(sim):
    """The fields of a SimulationReport that checks and comparisons read."""
    out = {
        "sinr_empirical": sim.sinr_empirical,
        "sinr_analytic": sim.sinr_analytic,
        "sinr_stderr": sim.sinr_stderr,
        "mi_bits": sim.mi_bits,
        "leakage_bits": sim.leakage_bits,
        "leakage_expected": sim.leakage_expected,
        "leakage_stderr": sim.leakage_stderr,
    }
    out["samples"] = sim.samples
    for key in ("alpha", "alpha_residual", "alpha_residual_below", "alpha_residual_above",
                "alpha_bracket_ok"):
        if key in sim.extras:
            out[key] = sim.extras[key]
    return out


def same_record(a, b):
    return all(
        (a[key] is None and b[key] is None)
        or (a[key] is not None and b[key] is not None
            and np.array_equal(np.asarray(a[key]), np.asarray(b[key])))
        for key in a)


def check_capacity(checker, res, h_b, h_e, kbar, what):
    checker.close(res.capacity_bits, mi_difference(h_b, h_e, res.k_star),
                  f"{what}: capacity vs MI difference at k_star")
    checker.expect(psd_below(res.k_star, kbar), f"{what}: k_star not below kbar")


# --------------------------------------------------------------- cli_mix

CLI_COMMANDS = (
    ("capacity",),
    ("region",),
    ("decompose", "--kind", "gsvd"),
    ("decompose", "--kind", "gmd"),
    ("decompose", "--kind", "qr"),
    ("simulate", "--scheme", "sic"),
    ("simulate", "--scheme", "wiretap"),
    ("simulate", "--scheme", "dpc"),
    ("simulate", "--scheme", "broadcast"),
    ("capacity", "--power", "POWER", "--budget", str(POWER_BUDGET)),
)


def cli_problem(rng, n, samples):
    return {
        "h_b": matrix_json(complex_gaussian(rng, n, n)),
        "h_e": matrix_json(complex_gaussian(rng, n, n)),
        "kbar": matrix_json(random_psd(rng, n)),
        "mode": str(rng.choice(scheme.PRECODER_MODES)),
        "samples": samples,
        "seed": int(rng.integers(0, 2**31)),
    }


def cli_argv(command, path, n):
    argv = [a if a != "POWER" else str(float(n)) for a in command]
    return argv + ["--input", str(path)]


def run_cli_inprocess(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


class CliMix:
    """Sequential ``python -m wtd`` runs over three generated problem files
    (2x2, 3x3 and 4x4); pass p runs all ten commands on file p mod 3, so
    from the fourth pass on every call repeats an earlier one byte for byte."""

    name = "cli_mix"
    sizes = (2, 3, 4)

    def __init__(self, seed, work, checker, env, tiny=False):
        self.checker = checker
        self.work = work
        self.env = env
        self.files = []
        for i, n in enumerate(self.sizes):
            problem = cli_problem(_rng(seed, self.name, i), n,
                                  2000 if tiny else CLI_SAMPLES)
            path = os.path.join(work, f"problem-{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(problem, fh)
            self.files.append((n, path))
        self.call_times = []
        self.records = []
        self.rss_kb = 0

    def argvs(self, index):
        n, path = self.files[index % len(self.files)]
        return [(index % len(self.files), c, cli_argv(command, path, n))
                for c, command in enumerate(CLI_COMMANDS)]

    def run_pass(self, index, inprocess=False):
        for problem, command, argv in self.argvs(index):
            if inprocess:
                start = time.perf_counter()
                code, out = run_cli_inprocess(argv)
                self.call_times.append(time.perf_counter() - start)
                self.records.append((problem, command, code, out, b""))
                continue
            out_path = os.path.join(self.work, "stdout")
            err_path = os.path.join(self.work, "stderr")
            with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable, "-m", "wtd", *argv],
                                        stdout=out_fh, stderr=err_fh, env=self.env)
                _, status, usage = os.wait4(proc.pid, 0)
                self.call_times.append(time.perf_counter() - start)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_kb = max(self.rss_kb, usage.ru_maxrss)
            with open(out_path, "rb") as fh:
                out = fh.read()
            with open(err_path, "rb") as fh:
                err = fh.read()
            self.records.append((problem, command, proc.returncode, out, err))

    def check(self):
        """Check every report against the library, and repeats byte for byte."""
        first = {}
        problems = [cli.load_problem(path) for _, path in self.files]
        for problem, command, code, out, err in self.records:
            label = f"cli {' '.join(CLI_COMMANDS[command])} n={self.sizes[problem]}"
            with self.checker.operation(label):
                key = (problem, command)
                if key in first:
                    self.checker.expect(first[key] == (code, out),
                                        "repeated input gave different stdout or exit code")
                    continue
                first[key] = (code, out)
                if not self.checker.expect(code in (0, 3), f"exit code {code}: "
                                           f"{err.decode(errors='replace')[-300:]}"):
                    continue
                report = json.loads(out)
                expected_code = 3 if report.get("within_bands") is False else 0
                if not self.checker.expect(code == expected_code,
                                           f"exit code {code}, expected {expected_code}"):
                    continue
                self._check_report(problems[problem], CLI_COMMANDS[command], report, label)

    def _check_report(self, prob, command, rep, label):
        c = self.checker
        h_b, h_e, kbar = prob["h_b"], prob["h_other"], prob["kbar"]
        if command[0] == "capacity":
            res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            c.close(rep["capacity_bits"], res.capacity_bits, f"{label}: capacity_bits")
            c.expect(rep["lb"] == res.lb, f"{label}: lb")
            c.close([s["gsv"] for s in rep["streams"]], res.gsv, f"{label}: gsv")
            check_capacity(c, res, h_b, h_e, kbar, label)
            if "power_search" in rep:
                search = rep["power_search"]
                power = search["power"]
                found = matrix_from_json(search["kbar"])
                again = secrecy.secrecy_capacity_cov(h_b, h_e, found).capacity_bits
                c.expect(again == search["capacity_lower_bound"],
                         f"{label}: bound {search['capacity_lower_bound']!r} re-evaluates "
                         f"to {again!r}")
                c.close(np.real(np.trace(found)), power, f"{label}: trace of kbar")
                start = secrecy.secrecy_capacity_cov(
                    h_b, h_e, np.eye(h_b.shape[1]) * (power / h_b.shape[1])).capacity_bits
                c.expect(search["capacity_lower_bound"] >= start,
                         f"{label}: bound below the isotropic start")
        elif command[0] == "region":
            region = secrecy.broadcast_region(h_b, h_e, kbar)
            c.close([rep["rb_max"], rep["rc_max"]], [region.rb_max, region.rc_max],
                     f"{label}: corners")
            c.close(rep["rb_max"] - rep["rc_max"], mi_difference(h_b, h_e, kbar),
                    f"{label}: rb_max - rc_max vs MI difference")
        elif command[0] == "decompose":
            kind = command[2]
            c.expect(rep["reconstruction_residual"] <= 1e-9, f"{label}: residual")
            if kind == "gsvd":
                c.expect(rep["normalization_residual"] <= 1e-9, f"{label}: normalization")
                c.close(rep["gsv"], decomp.gsv_values(h_b, h_e), f"{label}: gsv")
            elif kind == "gmd":
                s = np.linalg.svd(h_b, compute_uv=False)
                mean = float(np.exp(np.mean(np.log(s))))
                c.close(rep["diagonal"], np.full(s.size, mean), f"{label}: diagonal")
            else:
                c.close(rep["diagonal"], decomp.qr(h_b).diagonal, f"{label}: diagonal")
        else:
            which = command[2]
            for name, sim in rep["simulations"].items():
                check_simulation(c, sim, f"{label} {name}")
            streams = rep["streams"]
            if which == "sic":
                c.close(sum(s["rate_bits"] for s in streams), gaussian_mi(h_b, kbar),
                        f"{label}: SIC rates vs MI")
            elif which in ("wiretap", "dpc"):
                capacity = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).capacity_bits
                field = "secret_rate_bits" if which == "wiretap" else "rate_bits"
                c.close(sum(s[field] for s in streams), capacity,
                        f"{label}: secret rates vs capacity")
            else:
                region = secrecy.broadcast_region(h_b, h_e, kbar)
                c.close([rep["bob_total_bits"], rep["charlie_total_bits"]],
                        [region.rb_max, region.rc_max], f"{label}: user totals")

    def peak_rss_mb(self):
        return self.rss_kb / 1024.0


class InProcess:
    """A workload that runs inside the benchmark process and is checked as
    it goes."""

    def check(self):
        pass

    def peak_rss_mb(self):
        return peak_rss_mb()


# --------------------------------------------------------------- capacity_sweep

class CapacitySweep(InProcess):
    """Small independent problems, n cycling 2, 4, 8, with n_b and n_e drawn
    from [n, n+2] and a random PSD constraint; nine library calls each."""

    name = "capacity_sweep"

    def __init__(self, seed, work, checker, env, tiny=False):
        self.seed = seed
        self.checker = checker
        self.call_times = []
        self.by_function = {}

    def problem(self, index):
        rng = _rng(self.seed, self.name, index)
        n = (2, 4, 8)[index % 3]
        h_b = complex_gaussian(rng, n + int(rng.integers(0, 3)), n)
        h_e = complex_gaussian(rng, n + int(rng.integers(0, 3)), n)
        return n, h_b, h_e, random_psd(rng, n)

    def _timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.call_times.append(elapsed)
        self.by_function.setdefault(fn.__name__, []).append(elapsed)
        return result

    def run_pass(self, index, inprocess=True):
        for i in range(3 * index, 3 * index + 3):
            self._run_problem(i)

    def _run_problem(self, index):
        c = self.checker
        n, h_b, h_e, kbar = self.problem(index)
        label = f"capacity_sweep problem {index} n={n}"
        res = None
        with c.operation(f"{label} secrecy_capacity_cov"):
            res = self._timed(secrecy.secrecy_capacity_cov, h_b, h_e, kbar)
            check_capacity(c, res, h_b, h_e, kbar, label)
        with c.operation(f"{label} channel_gsv"):
            gsv = self._timed(secrecy.channel_gsv, h_b, h_e, kbar)
            c.close(gsv, res.gsv, f"{label}: channel_gsv vs capacity GSVs")
        with c.operation(f"{label} broadcast_region"):
            region = self._timed(secrecy.broadcast_region, h_b, h_e, kbar)
            c.close(region.rb_max - region.rc_max, mi_difference(h_b, h_e, kbar),
                    f"{label}: rb_max - rc_max vs MI difference")
            c.close(region.rb_max, res.capacity_bits, f"{label}: rb_max vs capacity")
        mi_star = gaussian_mi(h_b, res.k_star)
        for mode in scheme.PRECODER_MODES:
            with c.operation(f"{label} build_wiretap_plan {mode}"):
                plan = self._timed(scheme.build_wiretap_plan, h_b, h_e, kbar, mode)
                c.close(np.sum(plan.secret_rates_bits), res.capacity_bits,
                        f"{label} {mode}: secret rates vs capacity")
                c.close(np.sum(plan.base.rates_bits), mi_star,
                        f"{label} {mode}: SIC rates vs MI at k_star")
        with c.operation(f"{label} build_dpc_plan"):
            plan = self._timed(scheme.build_dpc_plan, h_b, h_e, kbar)
            c.close(np.sum(plan.rates_bits), res.capacity_bits,
                    f"{label}: DPC rates vs capacity")
        with c.operation(f"{label} build_broadcast_plan"):
            plan = self._timed(scheme.build_broadcast_plan, h_b, h_e, kbar)
            c.close([np.sum(plan.bob_rates_bits), np.sum(plan.charlie_rates_bits)],
                    [region.rb_max, region.rc_max], f"{label}: broadcast user totals")


# --------------------------------------------------------------- mc_verify

MC_KINDS = ("sic", "sic_nogenie", "leakage", "dpc", "broadcast")


def mc_plan(n, h_b, h_e, kbar):
    return (n, h_b, h_e, scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd"),
            scheme.build_dpc_plan(h_b, h_e, kbar), scheme.build_broadcast_plan(h_b, h_e, kbar))


def mc_calls(plan, seed, samples):
    """One simulator call per kind on ``plan``, the second receiver as Eve/Charlie."""
    _, h_b, h_e, wiretap, dpc, broadcast = plan
    return {
        "sic": lambda: scheme.simulate_sic(wiretap.base, h_b, samples, seed),
        "sic_nogenie": lambda: scheme.simulate_sic(wiretap.base, h_b, samples, seed,
                                                   genie=False),
        "leakage": lambda: scheme.simulate_leakage(wiretap, h_e, samples, seed),
        "dpc": lambda: scheme.simulate_dpc(dpc, h_b, samples, seed),
        "broadcast": lambda: scheme.simulate_broadcast(broadcast, h_b, h_e, samples, seed),
    }


class McVerify(InProcess):
    """Monte Carlo checks of two plans (n = 4 square; n = 8 with ten receive
    antennas at both receivers).  Every simulator runs at WTD_THREADS=1 and
    WTD_THREADS=2 and the two reports must be bit-identical; pass p uses
    simulation seed ``seed + p``, so no pass repeats an earlier one."""

    name = "mc_verify"
    shapes = ((4, 4), (8, 10))

    def __init__(self, seed, work, checker, env, tiny=False):
        self.seed = seed
        self.checker = checker
        self.samples = (1 << 15) if tiny else MC_SAMPLES
        self.call_times = []
        self.thread_times = {"1": 0.0, "2": 0.0}
        self.thread_calls = {"1": 0, "2": 0}
        self.plans = []
        c = self.checker
        for i, (n, rows) in enumerate(self.shapes):
            rng = _rng(self.seed, self.name, i)
            h_b = complex_gaussian(rng, rows, n)
            h_e = complex_gaussian(rng, rows, n)
            kbar = random_psd(rng, n)
            label = f"mc_verify plan n={n}"
            with c.operation(label):
                res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
                check_capacity(c, res, h_b, h_e, kbar, label)
                plan = mc_plan(n, h_b, h_e, kbar)
                c.close(np.sum(plan[3].secret_rates_bits), res.capacity_bits,
                        f"{label}: secret rates vs capacity")
                c.close(np.sum(plan[3].base.rates_bits), gaussian_mi(h_b, res.k_star),
                        f"{label}: SIC rates vs MI at k_star")
            self.plans.append(plan)

    def run_pass(self, index, inprocess=True):
        c = self.checker
        seed = self.seed + index
        for plan in self.plans:
            calls = mc_calls(plan, seed, self.samples)
            genie_last = None
            for kind in MC_KINDS:
                label = f"mc_verify {kind} n={plan[0]} seed={seed}"
                with c.operation(label):
                    records = {}
                    for threads in ("1", "2"):
                        os.environ["WTD_THREADS"] = threads
                        start = time.perf_counter()
                        sim = calls[kind]()
                        elapsed = time.perf_counter() - start
                        self.call_times.append(elapsed)
                        self.thread_times[threads] += elapsed
                        self.thread_calls[threads] += 1
                        records[threads] = sim_record(sim)
                    c.expect(same_record(records["1"], records["2"]),
                             f"{label}: WTD_THREADS=1 and 2 reports differ")
                    record = records["2"]
                    if kind == "sic_nogenie":
                        # The last stream is decoded first and needs no
                        # feedback, so it must equal the genie run exactly.
                        c.expect(record["sinr_empirical"][-1] == genie_last,
                                 f"{label}: last stream differs from the genie run")
                        c.expect(bool(np.all(np.isfinite(record["sinr_empirical"]))),
                                 f"{label}: non-finite SINR")
                    else:
                        check_simulation(c, record, label)
                    if kind == "sic":
                        genie_last = record["sinr_empirical"][-1]

    def samples_per_s(self, threads):
        t = self.thread_times[threads]
        return self.thread_calls[threads] * self.samples / t if t else 0.0


WORKLOADS = {w.name: w for w in (CliMix, CapacitySweep, McVerify)}


# --------------------------------------------------------------- shared by every workload

def parallel_power_optimum(b, e, power):
    """Secrecy capacity of parallel Gaussian wiretap subchannels with power
    gains ``b`` and ``e`` (all positive) under total power ``power``, by
    water-filling on the Lagrange multiplier."""
    b = np.asarray(b, float)
    e = np.asarray(e, float)

    def allocation(lam):
        # Stationary point of log2((1 + b p) / (1 + e p)) - lam p: the positive
        # root of b e p^2 + (b + e) p + 1 - c = 0, c = (b - e) / (lam ln 2).
        c = (b - e) / (lam * np.log(2.0))
        root = np.sqrt(np.maximum((b + e) ** 2 - 4 * b * e * (1 - c), 0.0))
        return np.where(c > 1.0, (root - b - e) / (2 * b * e), 0.0)

    lo, hi = 1e-12, float(np.max((b - e) / np.log(2.0)))
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if allocation(mid).sum() > power:
            lo = mid
        else:
            hi = mid
    p = allocation(hi)
    p = p * (power / p.sum())
    return float(np.sum(np.log2((1 + b * p) / (1 + e * p))))


def power_problem(seed, index):
    rng = _rng(seed, "shared", index)
    n = len(POWER_SIGMA_B)
    v = haar(rng, n)
    h_b = haar(rng, n + 1)[:, :n] * np.array(POWER_SIGMA_B)[None, :] @ v.conj().T
    h_e = haar(rng, n + 2)[:, :n] * np.array(POWER_SIGMA_E)[None, :] @ v.conj().T
    return h_b, h_e, float(n), int(rng.integers(0, 2**31))


def accuracy_pair(seed, index, condition):
    rng = _rng(seed, "shared", 1000 + index)
    n = len(ACCURACY_GSV)
    g = np.array(ACCURACY_GSV)
    c = g / np.sqrt(1.0 + g * g)
    s = 1.0 / np.sqrt(1.0 + g * g)
    x = haar(rng, n) * np.geomspace(1.0, 1.0 / condition, n)[None, :] @ haar(rng, n)
    a1 = haar(rng, n + 2)[:, :n] * c[None, :] @ x
    a2 = haar(rng, n + 1)[:, :n] * s[None, :] @ x
    return a1, a2


def power_search(seed, index):
    """One timed power search on parallel-channel problem ``index``."""
    h_b, h_e, power, search_seed = power_problem(seed, index)
    start = time.perf_counter()
    result = secrecy.power_constrained_capacity(h_b, h_e, power, budget=POWER_BUDGET,
                                                seed=search_seed)
    return time.perf_counter() - start, h_b, h_e, power, result


def accuracy_errors(seed, tiny=False):
    """Maximum relative GSV error of each constructed pair, per condition."""
    errors = {}
    for k, condition in enumerate(ACCURACY_CONDITIONS):
        errors[condition] = []
        for i in range(1 if tiny else ACCURACY_PAIRS):
            a1, a2 = accuracy_pair(seed, 100 * k + i, condition)
            try:
                gsv = decomp.gsv_values(a1, a2)
            except (DomainError, NumericalFailure):
                # Refusing a full-rank pair scores like a wrong answer: no
                # correct digits.  It is reported in the metric, not failed.
                errors[condition].append(1.0)
                continue
            errors[condition].append(float(np.max(np.abs(gsv - np.array(ACCURACY_GSV))
                                                  / np.array(ACCURACY_GSV))))
    return errors


def check_power_searches(checker, searches):
    optimum = parallel_power_optimum(np.square(POWER_SIGMA_B), np.square(POWER_SIGMA_E),
                                     float(len(POWER_SIGMA_B)))
    for i, (_, h_b, h_e, power, result) in enumerate(searches):
        label = f"power search {i}"
        with checker.operation(label):
            bound = result.capacity_lower_bound
            again = secrecy.secrecy_capacity_cov(h_b, h_e, result.kbar).capacity_bits
            checker.expect(again == bound, f"{label}: bound {bound!r} re-evaluates to {again!r}")
            checker.close(np.real(np.trace(result.kbar)), power, f"{label}: trace of kbar")
            checker.expect(result.evaluations == POWER_BUDGET, f"{label}: evaluations")
            checker.expect(bound <= optimum * (1 + IDENTITY_RTOL) + IDENTITY_RTOL,
                           f"{label}: bound {bound} above the capacity {optimum}")
    return optimum


def accuracy_digits(errors):
    """Correct digits of the GSVs of the constructed pairs.

    A pair scores -log10 of its maximum relative GSV error, clipped to
    [0, 16].  Returns the mean score over all pairs and the mean per
    condition.  The mean is used rather than the worst pair because the
    worst of a few random pairs varies by 10 % from seed to seed.
    """
    scores = {c: [min(16.0, max(0.0, -np.log10(max(e, 1e-300)))) for e in errs]
              for c, errs in errors.items()}
    every = [d for ds in scores.values() for d in ds]
    return float(np.mean(every)), [float(np.mean(ds)) for ds in scores.values()]


# --------------------------------------------------------------- warm-up

def warm_up(workload, work):
    """One pass of every entry point the workload times, on tiny inputs."""
    rng = np.random.default_rng(0)
    h_b = complex_gaussian(rng, 3, 2)
    h_e = complex_gaussian(rng, 3, 2)
    kbar = random_psd(rng, 2)
    secrecy.power_constrained_capacity(h_b, h_e, 2.0, budget=20)
    decomp.gsv_values(*accuracy_pair(0, 0, 10.0))
    if workload == "cli_mix":
        path = os.path.join(work, "warm-up.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cli_problem(rng, 2, 2000), fh)
        for command in CLI_COMMANDS:
            argv = cli_argv(command, path, 2)
            if "--budget" in argv:
                argv[argv.index("--budget") + 1] = "20"
            run_cli_inprocess(argv)
    elif workload == "capacity_sweep":
        secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        secrecy.channel_gsv(h_b, h_e, kbar)
        secrecy.broadcast_region(h_b, h_e, kbar)
        for mode in scheme.PRECODER_MODES:
            scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
        scheme.build_dpc_plan(h_b, h_e, kbar)
        scheme.build_broadcast_plan(h_b, h_e, kbar)
    else:
        plan = mc_plan(2, h_b, h_e, kbar)
        for threads in ("1", "2"):
            os.environ["WTD_THREADS"] = threads
            for call in mc_calls(plan, 0, 1 << 14).values():
                call()


# --------------------------------------------------------------- traced run extras

def coverage_pass(seed, work):
    """Touch every traced layer at every reported size, so each workload's
    traced run reports every per-layer metric.  Values for a layer the
    workload itself does not use come from here."""
    rng = _rng(seed, "coverage")
    for n in (2, 4, 8):
        a = complex_gaussian(rng, n + 2, n)
        b = complex_gaussian(rng, n + 1, n)
        h_b = complex_gaussian(rng, n + 1, n)
        h_e = complex_gaussian(rng, n + 2, n)
        kbar = random_psd(rng, n)
        for _ in range(3):
            decomp.qr(a)
            decomp.ql(a)
            decomp.gmd(a)
            decomp.gsv_values(a, b)
            decomp.gsvd_triangular(a, b)
            secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            secrecy.channel_gsv(h_b, h_e, kbar)
            secrecy.broadcast_region(h_b, h_e, kbar)
    plan = mc_plan(4, complex_gaussian(rng, 4, 4), complex_gaussian(rng, 4, 4),
                   random_psd(rng, 4))
    for threads in ("1", "2"):
        os.environ["WTD_THREADS"] = threads
        for call in mc_calls(plan, seed, 1 << 16).values():
            call()
    path = os.path.join(work, "coverage.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cli_problem(rng, 2, 20_000), fh)
    for command in CLI_COMMANDS[:-1]:
        run_cli_inprocess(cli_argv(command, path, 2))


def rng_reference_rate(seed, repeats=7, size=1 << 21):
    """Plain single-thread numpy Philox ``standard_normal`` draws per second."""
    gen = np.random.Generator(np.random.Philox(seed))
    rates = []
    for _ in range(repeats):
        start = time.perf_counter()
        gen.standard_normal(size)
        rates.append(size / (time.perf_counter() - start))
    return statistics.median(rates)


def _importtime_entries(stderr):
    """(depth, module, cumulative seconds) of each ``-X importtime`` line."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    return entries


def _top_level_cost(entries, package):
    """Cumulative import time of ``package`` entries not nested in another."""
    total = 0.0
    ancestors = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        parent = ancestors[-1] if ancestors else ""
        ours = name == package or name.startswith(package + ".")
        if ours and not (parent == package or parent.startswith(package + ".")):
            total += cumulative
        ancestors.append(name)
    return total


def import_costs(env, repeats=3):
    """Interpreter start and the import times of numpy, scipy and wtd."""
    start_times = []
    costs = {"numpy": [], "scipy": [], "wtd": []}
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        start_times.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import wtd"],
                              env=env, check=True, capture_output=True, text=True)
        entries = _importtime_entries(proc.stderr)
        for package in costs:
            costs[package].append(_top_level_cost(entries, package))
    return {
        "interp.start_s": statistics.median(start_times),
        "import.numpy_s": statistics.median(costs["numpy"]),
        "import.scipy_s": statistics.median(costs["scipy"]),
        "import.wtd_s": statistics.median(costs["wtd"]),
    }


def machine_info(seed, workload):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "wtd": wtd.__version__,
        "wtd_threads": {"cli_mix": "1", "capacity_sweep": "1", "mc_verify": "1 and 2"}[workload],
        "workload": workload,
        "seed": seed,
    }
