"""Command-line front-end: problem-file ingestion, command dispatch,
machine-readable JSON reports.

Problem files are JSON with complex entries written as ``[re, im]`` pairs
in row-major nested arrays; ``"kbar"`` may be the string ``"identity"``.
Commands put library values straight into their reports, and ``main``
writes each with one ``json.dumps``: numbers at full double precision,
byte-identical for identical (input, seed, version).

Each subcommand takes only the flags it reads; a flag named after a field
overrides it and passes the same check.  Exit codes: 0 success, 1 input
error (a malformed field or flag) or numerical failure (a library routine
failed, or the report would hold a NaN or an infinity; nothing is
written), 2 infeasibility (majorization), 3 simulation band failure.  No
input ends in a traceback.  ``samples`` (field or ``--samples``) must lie in
``[1, MAX_SAMPLES]`` and ``--budget`` in ``[1, MAX_BUDGET]``.
"""

import argparse
import hashlib
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, decomp, scheme, secrecy
from .errors import DomainError, MajorizationError, NumericalFailure

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_BAND = 3

#: Most Monte Carlo samples one ``simulate`` run accepts.
MAX_SAMPLES = 10 ** 9
#: Largest ``capacity --budget``, the number of candidates a power search
#: evaluates, at tens of microseconds each.
MAX_BUDGET = 10 ** 6


class InputError(Exception):
    """Problem-file, flag or parse failure; names the offending field or flag."""


class _Parser(argparse.ArgumentParser):
    """Reports argument errors on the CLI's ``error:`` path, exit code 1."""

    def error(self, message):
        raise InputError(message)


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


def _mode(value, label):
    if value not in scheme.PRECODER_MODES:
        raise InputError(f"{label} must be one of {scheme.PRECODER_MODES}")
    return value


#: Problem fields that the flag of the same name overrides: name -> (default,
#: check).  A null or missing ``power`` (no default) means no power search.
_FIELDS = {
    "samples": (10000, lambda value, label: _count(value, label, 1, MAX_SAMPLES)),
    "seed": (0, lambda value, label: _count(value, label, 0)),
    "mode": ("gsvd", _mode),
    "power": (None, _power),
}


def _flag_value(text):
    """Flag text as the int or float it spells, else as text, for the field's check."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


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
    return _in_range(np.array(rows, dtype=complex), f"field '{field}'")


def _in_range(matrix, label):
    # A norm past the float range makes the factors and GSVs infinite or NaN.
    with np.errstate(over="ignore"):
        if not np.isfinite(np.hypot.reduce(np.abs(matrix), axis=None)):
            raise InputError(f"{label} is out of range: its norm overflows a double")
    return matrix


def _to_json(value):
    """``json.dumps`` hook: a 2-D array becomes rows of ``[re, im]`` pairs, a
    1-D array a list of floats, a numpy scalar its Python value."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray) and value.ndim == 2:
        return [[[v.real, v.imag] for v in row] for row in value.astype(complex).tolist()]
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value.astype(float).tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def load_problem(path, flags=None):
    """Read and validate a problem file, then the overriding ``flags``
    (field name to flag text or None); returns the parsed problem dict."""
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
        problem["other_field"] = other
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
        root = secrecy.matrix_sqrt(problem["kbar"])
    except DomainError as exc:
        raise InputError(f"field 'kbar' must be Hermitian PSD: {exc}") from exc
    for key, name in (("h_b", "h_b"), ("h_other", other)):
        if key in problem:
            with np.errstate(over="ignore", invalid="ignore"):
                _in_range(problem[key] @ root, f"field '{name}' times the root of field 'kbar'")

    if "t" in raw:
        target = raw["t"]
        if (not isinstance(target, list) or len(target) != n_a
                or not all(_is_finite(v) and v > 0 for v in target)):
            raise InputError(f"field 't' must be an array of {n_a} positive finite "
                             "numbers, one per column of 'h_b'")
        problem["t"] = np.asarray(target, dtype=float)
    for name, (default, check) in _FIELDS.items():
        value = raw.get(name, default)
        if value is not None or default is not None:
            problem[name] = check(value, f"field '{name}'")
        if flags and flags.get(name) is not None:
            problem[name] = check(_flag_value(flags[name]), f"flag '--{name}'")
    if "h_e" in raw and "h_c" in raw:
        raise InputError("field 'h_e' and field 'h_c' cannot both be given")
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
    # Both sides are first scaled by a power of two from the largest entry of
    # ``target``, which is exact, so that neither norm overflows or underflows.
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.ldexp(1.0, -np.frexp(np.abs(target).max())[1])
        diff, denom = actual * scale - target * scale, np.linalg.norm(target * scale)
        return float(np.linalg.norm(diff) / (denom if denom > 0 else 1.0))


def _require_tall(matrix, field):
    # Only the decompositions need a tall matrix; capacities and plans take a wide one.
    if matrix.shape[0] < matrix.shape[1]:
        raise InputError(f"field '{field}' must have at least as many rows as columns "
                         "for decompose")
    return matrix


def cmd_decompose(problem, args_echo):
    kind = args_echo["kind"]
    h = _require_tall(problem["h_b"], "h_b")
    report = _report_skeleton("decompose", problem, args_echo)
    report["kind"] = kind
    if kind == "gtd" and "t" not in problem:
        raise InputError("field 't' is required for kind 'gtd'")
    if kind != "gsvd":
        # qr, ql, svd, gmd and gtd: the dataclass fields are the factors.
        fac = decomp.gtd(h, problem["t"]) if kind == "gtd" else getattr(decomp, kind)(h)
        report.update(factors=vars(fac), diagonal=fac.diagonal)
        report["reconstruction_residual"] = _residual(fac.reconstruct(), h)
        return report
    other = _require_tall(_require_other(problem, "kind 'gsvd'"), problem["other_field"])
    # One GSVD kernel call: the triangular form is the QR pair under the diagonal form's precoder.
    diag_form = decomp.gsvd_diagonal(h, other)
    _in_range(diag_form.x, "the GSVD right factor of field 'h_b'")
    jt = decomp.joint_triangularize(h, other, decomp.ql(diag_form.x).u)
    normalization = diag_form.l1.conj().T @ diag_form.l1 + diag_form.l2.conj().T @ diag_form.l2
    report["factors"] = {name: getattr(jt, name) for name in ("u1", "u2", "va", "t1", "t2")}
    report.update(diag_ratios=jt.diag_ratios, gsv=diag_form.gsv)
    report["normalization_residual"] = _residual(
        normalization, np.eye(normalization.shape[0]))
    report["reconstruction_residual"] = max(
        _residual(jt.u1 @ jt.t1 @ jt.va.conj().T, h),
        _residual(jt.u2 @ jt.t2 @ jt.va.conj().T, other))
    return report


def _stream_rows(columns):
    """Report rows ``{"index": i, name: column[i], ...}`` from equal-length
    columns: float arrays, whose entries become floats, or lists of labels."""
    size = len(next(iter(columns.values())))
    return [{"index": i, **{name: col[i] if isinstance(col, list) else float(col[i])
                            for name, col in columns.items()}} for i in range(size)]


def cmd_capacity(problem, args_echo):
    budget = args_echo["budget"]
    h_e = _require_other(problem, "capacity")
    result = secrecy.secrecy_capacity_cov(problem["h_b"], h_e, problem["kbar"])
    report = _report_skeleton("capacity", problem, args_echo)
    report.update(capacity_bits=result.capacity_bits, lb=result.lb, k_star=result.k_star)
    report["streams"] = _stream_rows(
        {"gsv": result.gsv, "rate_bits": 2.0 * np.log2(np.maximum(result.gsv, 1.0))})
    if "power" in problem:
        search = secrecy.power_constrained_capacity(
            problem["h_b"], h_e, problem["power"], budget=budget, seed=problem["seed"])
        report["power_search"] = {"power": problem["power"], "budget": budget, "kbar": search.kbar,
                                  "capacity_lower_bound": search.capacity_lower_bound}
    return report


def cmd_region(problem, args_echo):
    h_c = _require_other(problem, "region")
    region = secrecy.broadcast_region(problem["h_b"], h_c, problem["kbar"])
    return {**_report_skeleton("region", problem, args_echo), **vars(region)}


def _simulation_json(sim):
    # The report fields, less the scheme and any absent leakage, then the extras.
    fields = {k: v for k, v in vars(sim).items() if v is not None and k not in ("scheme", "extras")}
    return {**fields, **sim.extras, "within_bands": sim.within_bands()}


def cmd_simulate(problem, args_echo):
    which = args_echo["scheme"]
    h_b, kbar, samples, seed = (problem[k] for k in ("h_b", "kbar", "samples", "seed"))
    other = (problem.get("h_other", np.zeros_like(h_b)) if which == "sic"
             else _require_other(problem, f"simulate {which}"))
    report = _report_skeleton("simulate", problem, args_echo)
    report["scheme"] = which
    if which == "sic":
        b = secrecy.matrix_sqrt(kbar)
        plan = scheme.build_sic_plan(h_b, b, scheme.select_precoder(h_b, other, b, problem["mode"]))
        sims = {"sic": scheme.simulate_sic(plan, h_b, samples, seed, genie=True)}
        columns = {"b": plan.diag_b, "sinr": plan.sinr, "rate_bits": plan.rates_bits}
    elif which == "wiretap":
        plan = scheme.build_wiretap_plan(h_b, other, kbar, problem["mode"])
        sims = {"sic": scheme.simulate_sic(plan.base, h_b, samples, seed, genie=True),
                "leakage": scheme.simulate_leakage(plan, other, samples, seed)}
        columns = {"mu": plan.base.diag_b / plan.diag_e, "sinr": plan.base.sinr,
                   "secret_rate_bits": plan.secret_rates_bits,
                   "fictitious_rate_bits": plan.fictitious_rates_bits}
        report["total_secret_rate_bits"] = np.sum(plan.secret_rates_bits)
    elif which == "dpc":
        plan = scheme.build_dpc_plan(h_b, other, kbar, mode=problem["mode"])
        sims = {"dpc": scheme.simulate_dpc(plan, h_b, samples, seed)}
        columns = {"alpha": plan.alpha, "rate_bits": plan.rates_bits,
                   "rate_u_bits": plan.rates_u_bits}
    else:
        plan = scheme.build_broadcast_plan(h_b, other, kbar)
        sims = {"broadcast": scheme.simulate_broadcast(plan, h_b, other, samples, seed)}
        columns = {"user": ["bob"] * plan.lb + ["charlie"] * plan.lc,
                   "b": plan.diag_b, "c": plan.diag_c,
                   "rate_bits": np.concatenate([plan.bob_rates_bits, plan.charlie_rates_bits])}
        report["bob_total_bits"] = np.sum(plan.bob_rates_bits)
        report["charlie_total_bits"] = np.sum(plan.charlie_rates_bits)
    if which in ("wiretap", "dpc"):
        columns.update(b=plan.base.diag_b, e=plan.diag_e)
    report["streams"] = _stream_rows(columns)
    report["simulations"] = {name: _simulation_json(sim) for name, sim in sims.items()}
    report["within_bands"] = all(sim.within_bands() for sim in sims.values())
    return report


def write_csv(report, csv_path):
    rows = report["streams"]
    keys = sorted({key for row in rows for key in row})
    lines = [",".join(keys)] + [
        ",".join(repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in keys)
        for row in rows]
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def build_parser():
    parser = _Parser(
        prog="wtd",
        description="Wiretap-channel decompositions, capacities, and simulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run):
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", required=True, help="problem file (JSON)")
        p.add_argument("--out", default=None, help="report file (default stdout)")
        p.set_defaults(run=run)
        return p

    csv_help = "also write the per-stream table as CSV"
    p = command("decompose", "run a matrix decomposition", cmd_decompose)
    p.add_argument("--kind", required=True,
                   choices=["qr", "ql", "svd", "gmd", "gtd", "gsvd"])

    p = command("capacity", "secrecy capacity under the constraint", cmd_capacity)
    p.add_argument("--csv", help=csv_help)
    p.add_argument("--seed", help="power-search seed")
    p.add_argument("--power", help="total power of a power search")
    p.add_argument("--budget", default=400,
                   help=f"power-search candidates, 1 to {MAX_BUDGET} (default 400)")

    command("region", "confidential broadcast region", cmd_region)

    p = command("simulate", "Monte Carlo verification of a plan", cmd_simulate)
    p.add_argument("--csv", help=csv_help)
    p.add_argument("--samples", help=f"Monte Carlo samples, 1 to {MAX_SAMPLES}")
    p.add_argument("--seed", help="Monte Carlo seed")
    p.add_argument("--mode", help=f"precoder: {', '.join(scheme.PRECODER_MODES)}")
    p.add_argument("--scheme", required=True,
                   choices=["sic", "wiretap", "dpc", "broadcast"])
    return parser


def main(argv=None):
    # Warnings wait for the outcome: a refused run prints only its reason.
    with warnings.catch_warnings(record=True) as caught:
        try:
            args = vars(build_parser().parse_args(argv))
            problem = load_problem(args["input"], args)
            if "budget" in args:
                args["budget"] = _count(_flag_value(args["budget"]), "flag '--budget'",
                                        1, MAX_BUDGET)
            # Paths are excluded from the echo so reports stay byte-identical
            # for identical (input content, seed, version).
            volatile = {"command", "run", "input", "out", "csv"}
            echo = {k: problem[k] if k in _FIELDS else v for k, v in sorted(args.items())
                    if k not in volatile and v is not None}
            report = args["run"](problem, echo)
            try:
                text = json.dumps(report, sort_keys=True, indent=2, default=_to_json,
                                  allow_nan=False) + "\n"
            except ValueError as exc:
                raise NumericalFailure("the report would hold a NaN or an infinity") from exc
        except MajorizationError as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except (InputError, DomainError, NumericalFailure, np.linalg.LinAlgError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)

    if args["out"]:
        with open(args["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.get("csv"):
        write_csv(report, args["csv"])
    if report.get("within_bands") is False:
        print("simulation: at least one empirical value is outside its "
              "3-standard-error band", file=sys.stderr)
        return EXIT_BAND
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
