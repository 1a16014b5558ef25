"""Command-line front-end: problem-file ingestion, command dispatch,
machine-readable JSON reports.

Problem files are JSON with complex entries written as ``[re, im]`` pairs
in row-major nested arrays; ``"kbar"`` may be the string ``"identity"``.
Reports serialize numbers at full double precision and are byte-identical
for identical (input, seed, version).

Exit codes: 0 success, 1 input error, 2 infeasibility (majorization),
3 simulation band failure.  ``samples`` (field or ``--samples``) must lie
in ``[1, MAX_SAMPLES]`` and ``--budget`` in ``[1, MAX_BUDGET]``.
"""

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, decomp, scheme, secrecy
from .errors import DomainError, MajorizationError, NotPSD

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_BAND = 3

#: Most Monte Carlo samples one ``simulate`` run accepts.
MAX_SAMPLES = 10 ** 9
#: Largest ``capacity --budget``, the number of candidates a power search
#: evaluates, at tens of microseconds each.
MAX_BUDGET = 10 ** 6
#: Integer problem fields that flags may override:
#: (name, default, minimum, maximum or None).
_COUNTS = (("samples", 10000, 1, MAX_SAMPLES), ("seed", 0, 0, None))


class InputError(Exception):
    """Problem-file parse or validation failure; names the offending field."""


def _is_number(value):
    # JSON true/false load as bool, which is a subclass of int.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _count(value, label, minimum, maximum=None):
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum > 0 else "nonnegative"
        raise InputError(f"{label} must be a {kind} integer")
    if maximum is not None and value > maximum:
        raise InputError(f"{label} must be at most {maximum}")
    return value


def _is_finite(value):
    # JSON NaN/Infinity load as floats, and an integer too large for a float
    # makes ``math.isfinite`` raise.
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _power(value, label):
    # NaN passes a plain ``<= 0`` test.
    if not _is_finite(value) or value <= 0:
        raise InputError(f"{label} must be a positive finite number")
    return float(value)


def _complex_pair(value, where):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_number(p) for p in value)):
        raise InputError(f"{where}: complex entries must be [re, im] pairs")
    if not all(_is_finite(p) for p in value):
        raise InputError(f"{where}: complex entries must be finite")
    return complex(value[0], value[1])


def parse_matrix(obj, field):
    """Nested [re, im] rows to a complex ndarray."""
    if not isinstance(obj, list) or not obj:
        raise InputError(f"field '{field}' must be a non-empty nested array")
    rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise InputError(f"field '{field}' row {i} must be a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"field '{field}' row {i} has inconsistent length")
        rows.append([_complex_pair(v, f"field '{field}' row {i}") for v in row])
    return np.array(rows, dtype=complex)


def matrix_to_json(arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def vector_to_json(vec):
    return [float(v) for v in np.asarray(vec, dtype=float)]


def load_problem(path):
    """Read and validate a problem file; returns (raw json, parsed dict)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise InputError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"input file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError("input file must hold a JSON object")

    problem = {}
    if "h_b" not in raw:
        raise InputError("field 'h_b' is required")
    problem["h_b"] = parse_matrix(raw["h_b"], "h_b")
    n_a = problem["h_b"].shape[1]

    other = "h_e" if "h_e" in raw else ("h_c" if "h_c" in raw else None)
    if other is not None:
        problem["h_other"] = parse_matrix(raw[other], other)
        problem["other_name"] = other
        if problem["h_other"].shape[1] != n_a:
            raise InputError(f"field '{other}' must have {n_a} columns like 'h_b'")
    kbar = raw.get("kbar", "identity")
    if isinstance(kbar, str):
        if kbar != "identity":
            raise InputError("field 'kbar' must be a matrix or the string 'identity'")
        problem["kbar"] = np.eye(n_a, dtype=complex)
    else:
        problem["kbar"] = parse_matrix(kbar, "kbar")
        if problem["kbar"].shape != (n_a, n_a):
            raise InputError(f"field 'kbar' must be {n_a}x{n_a}")
    try:
        secrecy.matrix_sqrt(problem["kbar"])
    except (DomainError, NotPSD) as exc:
        raise InputError(f"field 'kbar' must be Hermitian PSD: {exc}") from exc

    if "power" in raw and raw["power"] is not None:
        problem["power"] = _power(raw["power"], "field 'power'")
    if "t" in raw:
        target = raw["t"]
        if (not isinstance(target, list)
                or not all(_is_finite(v) and v > 0 for v in target)):
            raise InputError("field 't' must be an array of positive finite numbers")
        problem["t"] = np.asarray(target, dtype=float)
    problem["mode"] = raw.get("mode", "gsvd")
    if problem["mode"] not in scheme.PRECODER_MODES:
        raise InputError(f"field 'mode' must be one of {scheme.PRECODER_MODES}")
    for name, default, minimum, maximum in _COUNTS:
        problem[name] = _count(raw.get(name, default), f"field '{name}'", minimum, maximum)
    problem["digest"] = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return problem


def _require_other(problem, command):
    if "h_other" not in problem:
        raise InputError(f"field 'h_e' (or 'h_c') is required for {command}")
    return problem["h_other"]


def _report_skeleton(command, problem, args_echo):
    return {
        "command": command,
        "arguments": args_echo,
        "input_digest": problem["digest"],
        "tool_version": __version__,
    }


def _residual(actual, target):
    denom = np.linalg.norm(target)
    return float(np.linalg.norm(actual - target) / (denom if denom > 0 else 1.0))


def cmd_decompose(problem, kind, args_echo):
    h = problem["h_b"]
    report = _report_skeleton("decompose", problem, args_echo)
    report["kind"] = kind
    if kind in ("qr", "ql", "svd", "gmd", "gtd"):
        if kind == "qr":
            fac = decomp.qr(h)
        elif kind == "svd":
            fac = decomp.svd(h)
        elif kind == "gmd":
            fac = decomp.gmd(h)
        elif kind == "gtd":
            if "t" not in problem:
                raise InputError("field 't' is required for kind 'gtd'")
            fac = decomp.gtd(h, problem["t"])
        else:
            qlf = decomp.ql(h)
            report["factors"] = {"u": matrix_to_json(qlf.u), "l": matrix_to_json(qlf.l)}
            report["diagonal"] = vector_to_json(qlf.diagonal)
            report["reconstruction_residual"] = _residual(qlf.reconstruct(), h)
            return report
        report["factors"] = {"u": matrix_to_json(fac.u), "t": matrix_to_json(fac.t),
                             "v": matrix_to_json(fac.v)}
        report["diagonal"] = vector_to_json(fac.diagonal)
        report["reconstruction_residual"] = _residual(fac.reconstruct(), h)
        return report
    if kind == "gsvd":
        other = _require_other(problem, "kind 'gsvd'")
        jt = decomp.gsvd_triangular(h, other)
        diag_form = decomp.gsvd_diagonal(h, other)
        normalization = diag_form.l1.conj().T @ diag_form.l1 + diag_form.l2.conj().T @ diag_form.l2
        report["factors"] = {
            "u1": matrix_to_json(jt.u1), "u2": matrix_to_json(jt.u2),
            "va": matrix_to_json(jt.va),
            "t1": matrix_to_json(jt.t1), "t2": matrix_to_json(jt.t2),
        }
        report["diag_ratios"] = vector_to_json(jt.diag_ratios)
        report["gsv"] = vector_to_json(decomp.gsv_values(h, other))
        report["normalization_residual"] = _residual(
            normalization, np.eye(normalization.shape[0]))
        report["reconstruction_residual"] = max(
            _residual(jt.u1 @ jt.t1 @ jt.va.conj().T, h),
            _residual(jt.u2 @ jt.t2 @ jt.va.conj().T, other))
        return report
    raise InputError(f"unknown decomposition kind '{kind}'")


def cmd_capacity(problem, args_echo, budget):
    h_e = _require_other(problem, "capacity")
    result = secrecy.secrecy_capacity_cov(problem["h_b"], h_e, problem["kbar"])
    report = _report_skeleton("capacity", problem, args_echo)
    report["capacity_bits"] = result.capacity_bits
    report["lb"] = result.lb
    report["k_star"] = matrix_to_json(result.k_star)
    report["streams"] = [
        {"index": i, "gsv": float(mu), "rate_bits": float(max(2.0 * np.log2(mu), 0.0))}
        for i, mu in enumerate(result.gsv)
    ]
    if "power" in problem:
        search = secrecy.power_constrained_capacity(
            problem["h_b"], h_e, problem["power"], budget=budget, seed=problem["seed"])
        report["power_search"] = {
            "power": problem["power"],
            "budget": budget,
            "capacity_lower_bound": search.capacity_lower_bound,
            "kbar": matrix_to_json(search.kbar),
        }
    return report


def cmd_region(problem, args_echo):
    h_c = _require_other(problem, "region")
    region = secrecy.broadcast_region(problem["h_b"], h_c, problem["kbar"])
    report = _report_skeleton("region", problem, args_echo)
    report["rb_max"] = region.rb_max
    report["rc_max"] = region.rc_max
    report["gsv"] = vector_to_json(secrecy.channel_gsv(problem["h_b"], h_c, problem["kbar"]))
    return report


def _simulation_json(sim):
    out = {
        "samples": sim.samples,
        "seed": sim.seed,
        "genie": sim.genie,
        "sinr_empirical": vector_to_json(sim.sinr_empirical),
        "sinr_analytic": vector_to_json(sim.sinr_analytic),
        "sinr_rel_error": vector_to_json(sim.sinr_rel_error),
        "sinr_stderr": vector_to_json(sim.sinr_stderr),
        "mi_bits": sim.mi_bits,
        "within_bands": sim.within_bands(),
    }
    if sim.leakage_bits is not None:
        out["leakage_bits"] = vector_to_json(sim.leakage_bits)
        out["leakage_expected"] = vector_to_json(sim.leakage_expected)
        out["leakage_stderr"] = vector_to_json(sim.leakage_stderr)
    for key, value in sim.extras.items():
        out[key] = value if np.isscalar(value) or isinstance(value, (bool, int)) \
            else vector_to_json(np.asarray(value, dtype=float))
    return out


def cmd_simulate(problem, which, args_echo):
    h_b = problem["h_b"]
    kbar = problem["kbar"]
    samples = problem["samples"]
    seed = problem["seed"]
    report = _report_skeleton("simulate", problem, args_echo)
    report["scheme"] = which
    streams = []
    sims = []
    if which == "sic":
        h_e = problem.get("h_other", np.zeros_like(h_b))
        va = scheme.select_precoder(h_b, h_e, kbar, problem["mode"])
        plan = scheme.build_sic_plan(h_b, kbar, va)
        sim = scheme.simulate_sic(plan, h_b, samples, seed, genie=True)
        sims.append(("sic", sim))
        for i in range(plan.num_streams):
            streams.append({
                "index": i, "b": float(plan.diag_b[i]),
                "sinr": float(plan.sinr[i]), "rate_bits": float(plan.rates_bits[i]),
            })
    elif which == "wiretap":
        h_e = _require_other(problem, "simulate wiretap")
        plan = scheme.build_wiretap_plan(h_b, h_e, kbar, problem["mode"])
        sim = scheme.simulate_sic(plan.base, h_b, samples, seed, genie=True)
        leak = scheme.simulate_leakage(plan, h_e, samples, seed)
        sims.append(("sic", sim))
        sims.append(("leakage", leak))
        for i in range(plan.base.num_streams):
            streams.append({
                "index": i,
                "b": float(plan.base.diag_b[i]),
                "e": float(plan.diag_e[i]),
                "mu": float(plan.base.diag_b[i] / plan.diag_e[i]),
                "sinr": float(plan.base.sinr[i]),
                "secret_rate_bits": float(plan.secret_rates_bits[i]),
                "fictitious_rate_bits": float(plan.fictitious_rates_bits[i]),
            })
        report["total_secret_rate_bits"] = float(np.sum(plan.secret_rates_bits))
    elif which == "dpc":
        h_e = _require_other(problem, "simulate dpc")
        plan = scheme.build_dpc_plan(h_b, h_e, kbar, mode=problem["mode"])
        sim = scheme.simulate_dpc(plan, h_b, samples, seed)
        sims.append(("dpc", sim))
        for i in range(plan.base.base.num_streams):
            streams.append({
                "index": i,
                "b": float(plan.base.base.diag_b[i]),
                "e": float(plan.base.diag_e[i]),
                "alpha": float(plan.alpha[i]),
                "rate_bits": float(plan.rates_bits[i]),
                "rate_u_bits": float(plan.rates_u_bits[i]),
            })
    elif which == "broadcast":
        h_c = _require_other(problem, "simulate broadcast")
        plan = scheme.build_broadcast_plan(h_b, h_c, kbar)
        sim = scheme.simulate_broadcast(plan, h_b, h_c, samples, seed)
        sims.append(("broadcast", sim))
        for i in range(plan.diag_b.size):
            streams.append({
                "index": i,
                "user": "bob" if i < plan.lb else "charlie",
                "b": float(plan.diag_b[i]),
                "c": float(plan.diag_c[i]),
                "rate_bits": float(plan.bob_rates_bits[i] if i < plan.lb
                                   else plan.charlie_rates_bits[i - plan.lb]),
            })
        report["bob_total_bits"] = float(np.sum(plan.bob_rates_bits))
        report["charlie_total_bits"] = float(np.sum(plan.charlie_rates_bits))
    else:
        raise InputError(f"unknown simulation scheme '{which}'")
    report["streams"] = streams
    report["simulations"] = {name: _simulation_json(sim) for name, sim in sims}
    report["within_bands"] = all(sim.within_bands() for _, sim in sims)
    return report


def write_report(report, out_path):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(report, csv_path):
    rows = report.get("streams", [])
    if not rows:
        return
    keys = sorted({key for row in rows for key in row})
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(repr(row[k]) if isinstance(row[k], float) else str(row.get(k, ""))
                              for k in keys))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wtd",
        description="Wiretap-channel decompositions, capacities, and simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--out", default=None, help="report file (default stdout)")
        p.add_argument("--csv", default=None, help="also write the per-stream table as CSV")
        p.add_argument("--samples", type=int, default=None,
                       help=f"Monte Carlo samples, 1 to {MAX_SAMPLES}")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", default=None, choices=scheme.PRECODER_MODES)

    p = sub.add_parser("decompose", help="run a matrix decomposition")
    common(p)
    p.add_argument("--kind", required=True,
                   choices=["qr", "ql", "svd", "gmd", "gtd", "gsvd"])

    p = sub.add_parser("capacity", help="secrecy capacity under the constraint")
    common(p)
    p.add_argument("--power", type=float, default=None)
    p.add_argument("--budget", type=int, default=400,
                   help=f"power-search candidates, 1 to {MAX_BUDGET} (default 400)")

    p = sub.add_parser("region", help="confidential broadcast region")
    common(p)

    p = sub.add_parser("simulate", help="Monte Carlo verification of a plan")
    common(p)
    p.add_argument("--scheme", required=True,
                   choices=["sic", "wiretap", "dpc", "broadcast"])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        problem = load_problem(args.input)
        for name, _, minimum, maximum in _COUNTS:
            value = getattr(args, name)
            if value is not None:
                problem[name] = _count(value, f"flag '--{name}'", minimum, maximum)
        if args.mode is not None:
            problem["mode"] = args.mode
        if getattr(args, "power", None) is not None:
            problem["power"] = _power(args.power, "flag '--power'")
        if getattr(args, "budget", None) is not None:
            _count(args.budget, "flag '--budget'", 1, MAX_BUDGET)
        # Paths are excluded from the echo so reports stay byte-identical
        # for identical (input content, seed, version).
        volatile = {"command", "input", "out", "csv"}
        echo = {k: v for k, v in sorted(vars(args).items())
                if k not in volatile and v is not None}
        if args.command == "decompose":
            report = cmd_decompose(problem, args.kind, echo)
        elif args.command == "capacity":
            report = cmd_capacity(problem, echo, args.budget)
        elif args.command == "region":
            report = cmd_region(problem, echo)
        else:
            report = cmd_simulate(problem, args.scheme, echo)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MajorizationError as exc:
        print(f"infeasible: {exc} (violating prefix length {exc.prefix_index})",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    except (DomainError, NotPSD) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    write_report(report, args.out)
    if args.csv:
        write_csv(report, args.csv)
    if report.get("within_bands") is False:
        print("simulation: at least one empirical value is outside its "
              "3-standard-error band", file=sys.stderr)
        return EXIT_BAND
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
