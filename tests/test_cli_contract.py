"""The CLI contract as a generated test.

Every in-process ``cli.main`` run on a random problem file and flags must:

* exit 0, 1, 2 or 3, with no exception escaping ``main``;
* on exit 1, print one ``error:`` line that names a field or a flag, or
  states a numerical reason;
* on exit 0 (and 3, which still writes its report), print finite JSON;
* print the same bytes, and write the same CSV, when run again;
* on ``capacity`` and ``region``, raise no ``RuntimeWarning``: ``run``
  turns one into an exception that escapes ``main``.  ``decompose`` and
  ``simulate`` still overflow on some problems at extreme scales.

Problems have shapes 1-5 x 1-4, entries at scale 1, 10^U(-30, 30) or
10^U(-300, 300), rare junk entries, every subcommand, kind, scheme and flag,
and simulations at 2,000-4,000 samples.  The examples are derandomized, so
tier-1 stays deterministic; ``--hypothesis-profile=long`` (registered in
``conftest.py``) runs the long profile's count instead of the few seconds'
worth tier-1 runs.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from wtd import cli, scheme

KINDS = ("qr", "ql", "svd", "gmd", "gtd", "gsvd")
SCHEMES = ("sic", "wiretap", "dpc", "broadcast")
#: Entries that are not a finite ``[re, im]`` pair of numbers.
JUNK = [None, True, "1.0", [1.0], [1.0, 2.0, 3.0], [float("nan"), 0.0],
        [float("inf"), 0.0], [10 ** 400, 0.0], {}]
#: An exit-1 message must name a field or a flag, or give one of these reasons.
NAMED = re.compile(r"field '|flag '--|argument --|input file")
REASONS = re.compile(r"rank deficient|did not converge|NaN or an infinity|out of range"
                     r"|must be (Hermitian|finite)|eigenvalue")
#: Examples per tier-1 run; the long profile sets its own count.
EXAMPLES = (settings.default.max_examples if settings.get_current_profile_name() == "long"
            else 150)

SCALES = st.one_of(st.just(0.0), st.floats(-30.0, 30.0), st.floats(-300.0, 300.0))


def gaussian(draw, rng, rows, cols):
    """A complex Gaussian ``rows x cols`` matrix at a drawn scale."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z * 10.0 ** draw(SCALES)


def json_rows(rng, z):
    """``z`` as JSON rows of ``[re, im]`` pairs; one time in 25 one entry is junk."""
    out = [[[float(v.real), float(v.imag)] for v in row] for row in z]
    if rng.uniform() < 0.04:
        out[rng.integers(z.shape[0])][rng.integers(z.shape[1])] = JUNK[rng.integers(len(JUNK))]
    return out


@st.composite
def problems(draw):
    """A problem file (a dict) and the argv of one subcommand on it.  Hypothesis
    draws the shapes, scales, fields and flags; a drawn seed draws the entries
    and the rare faults, which stay rare where hypothesis would favour them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = draw(st.integers(1, 4))
    h_b = gaussian(draw, rng, draw(st.integers(1, 5)), cols)
    problem = {"h_b": json_rows(rng, h_b)}
    other = draw(st.sampled_from(["h_e", "h_c"])) if rng.uniform() < 0.9 else None
    if other is not None:
        other_cols = cols if rng.uniform() < 0.95 else int(rng.integers(1, 5))
        problem[other] = json_rows(rng, gaussian(draw, rng, draw(st.integers(1, 5)), other_cols))
    kbar = draw(st.sampled_from(["absent", "identity", "psd", "psd"]))
    if kbar == "identity":
        problem["kbar"] = "identity"
    elif kbar == "psd":
        f = gaussian(draw, rng, cols, draw(st.integers(1, cols)))
        with np.errstate(over="ignore", invalid="ignore"):
            problem["kbar"] = json_rows(rng, f @ f.conj().T)
    target = draw(st.sampled_from(["absent", "random", "geometric mean"]))
    if target == "random":
        problem["t"] = [10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(cols)]
    elif target == "geometric mean":
        # Feasible for a tall 'h_b': every GMD target is majorized.
        sigma = np.linalg.svd(h_b, compute_uv=False)
        problem["t"] = [float(np.exp(np.mean(np.log(sigma))))] * cols
    problem["samples"] = draw(st.integers(2000, 4000))
    if draw(st.booleans()):
        problem["seed"] = draw(st.integers(0, 2 ** 31))
    if draw(st.booleans()):
        problem["mode"] = draw(st.sampled_from(scheme.PRECODER_MODES))

    command = draw(st.sampled_from(["decompose", "capacity", "region", "simulate"]))
    if command == "decompose":
        argv = ["decompose", "--kind", draw(st.sampled_from(KINDS))]
    elif command == "capacity":
        argv = ["capacity"]
        if draw(st.booleans()):
            argv += ["--power", repr(10.0 ** draw(st.floats(-300.0, 308.0))),
                     "--budget", str(draw(st.integers(1, 60)))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(0, 1000)))]
        if draw(st.booleans()):
            argv += ["--csv", "streams.csv"]
    elif command == "region":
        argv = ["region"]
    else:
        argv = ["simulate", "--scheme", draw(st.sampled_from(SCHEMES))]
        if draw(st.booleans()):
            argv += ["--mode", draw(st.sampled_from(scheme.PRECODER_MODES))]
        if draw(st.booleans()):
            argv += ["--samples", str(draw(st.integers(2000, 4000)))]
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.integers(0, 1000)))]
        if draw(st.booleans()):
            argv += ["--csv", "streams.csv"]
    return problem, argv


def run(problem, argv):
    """Exit code, stdout, stderr and CSV bytes (or None) of one in-process run."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        if argv[0] in ("capacity", "region"):
            warnings.simplefilter("error", RuntimeWarning)
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(problem))
        argv = [str(Path(tmp) / a) if a == "streams.csv" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--input", str(path)])
        csv = Path(tmp) / "streams.csv"
        return code, out.getvalue(), err.getvalue(), csv.read_bytes() if csv.exists() else None


def _no_constant(name):
    raise AssertionError(f"report holds {name}")


@settings(derandomize=True, deadline=None, max_examples=EXAMPLES, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=problems())
def test_cli_contract(case):
    problem, argv = case
    first = run(problem, argv)
    code, out, err, _ = first
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert NAMED.search(err) or REASONS.search(err), (argv, err)
    elif code == 2:
        assert out == "" and err.startswith("infeasible: "), (argv, err)
    else:
        report = json.loads(out, parse_constant=_no_constant)
        assert report["command"] == argv[0]
        assert (code == 3) == (report.get("within_bands") is False), (argv, err)
    assert run(problem, argv) == first, argv
