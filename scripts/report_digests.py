"""Print a digest of every CLI report of a fixed set of invocations.

Usage, from the root of a wtd checkout:

    python3 scripts/report_digests.py ../parent-checkout > parent.txt
    python3 scripts/report_digests.py . > change.txt
    diff parent.txt change.txt

The script writes seven problem files to a temporary directory: the README
problem with a feasible ``gtd`` target ``t``, a 4x3 / 2x3 problem with a
random ``kbar``, a 4x4 problem whose second receiver is a 5-antenna
``h_c``, a 4x4 / 5x4 problem whose ``kbar = 1e8 q q'`` has rank 2 (``q``
two orthonormal columns), where rounding-level eigenvalues of the
constraint matter, a diagonal 2x2 problem whose eavesdropper gains are 1e8
and 1, where the leakage estimate must keep the unit-variance coordinates
beside the large ones, and a finite 3x2 / 2x2 problem with entries of
1.7e308, whose ``h_b`` has a norm past the float range, so every run must
be refused with one ``error:`` line that names ``h_b``, and a 3x2 / 2x2
problem with entries near 1e-200 and a feasible ``gtd`` target, whose
squared singular values underflow a double. On each it runs
the 25 invocations below with the ``wtd`` package of ``CHECKOUT/src``, one
process at a time:
the six ``decompose`` kinds, ``capacity`` without and with a power search,
``region``, and ``simulate`` for every scheme and precoder mode. It prints
one line per invocation with its exit code and the sha256 (first 16 hex
digits) of its stdout, its stderr and the CSV it wrote (``-`` for none).
Two checkouts whose outputs are identical give byte-identical reports,
errors included, on all 175 runs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

KINDS = ("qr", "ql", "svd", "gmd", "gtd", "gsvd")
SCHEMES = ("sic", "wiretap", "dpc", "broadcast")
MODES = ("gsvd", "svd_eve", "svd_bob", "gmd_bob")
CSV = "streams.csv"


def matrix(rows):
    return [[[float(v.real), float(v.imag)] for v in row] for row in rows]


def complex_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def problems():
    """The seven problem files, by file name."""
    rng = np.random.default_rng(2015)
    f = complex_gaussian(rng, 3, 3)
    # Two orthonormal columns, from their own generator so the other
    # problems keep their values.
    q = np.linalg.qr(complex_gaussian(np.random.default_rng(11), 4, 2))[0]
    big = 1.7e308
    return {
        "readme.json": {
            "h_b": [[[1.0, 0.5], [-0.25, 1.0]], [[0.5, -0.75], [1.25, 0.0]]],
            "h_e": [[[0.5, 0.25], [0.75, -0.5]], [[-0.25, 0.5], [0.25, 0.25]]],
            "kbar": "identity", "mode": "gsvd", "samples": 100000, "seed": 7,
            "t": [1.0, 0.6281172263200553],
        },
        "kbar_4x3.json": {
            "h_b": matrix(complex_gaussian(rng, 4, 3)),
            "h_e": matrix(complex_gaussian(rng, 2, 3)),
            "kbar": matrix(f @ f.conj().T), "samples": 20000, "seed": 3,
        },
        "h_c_4x4.json": {
            "h_b": matrix(complex_gaussian(rng, 4, 4)),
            "h_c": matrix(complex_gaussian(rng, 5, 4)),
            "samples": 20000, "seed": 11,
        },
        "rank2_4x4.json": {
            "h_b": matrix(complex_gaussian(rng, 4, 4)),
            "h_e": matrix(complex_gaussian(rng, 5, 4)),
            "kbar": matrix(1e8 * q @ q.conj().T), "samples": 20000, "seed": 5,
        },
        "wide_eve_2x2.json": {
            "h_b": matrix(np.diag([1e9, 2.0])), "h_e": matrix(np.diag([1e8, 1.0])),
            "kbar": "identity", "samples": 100000, "seed": 1,
        },
        "overflow_3x2.json": {
            "h_b": matrix([[big, big], [big, -big], [1.0, 2.0]]),
            "h_e": matrix([[1.0, 0.5], [0.25, 1.0]]), "t": [1.0, 1.0],
        },
        "tiny_3x2.json": {
            "h_b": matrix(1e-200 * np.array([[1.0 + 0.5j, -0.25 + 1.0j], [0.5 - 0.75j, 1.25],
                                             [0.25 + 0.25j, -0.5 + 0.5j]])),
            "h_e": matrix(1e-200 * np.array([[0.5 + 0.25j, 0.75 - 0.5j], [-0.25 + 0.5j, 0.25]])),
            "t": [1.0142047166243697e-200, 8.381857162184871e-201], "samples": 20000, "seed": 2,
        },
    }


def invocations():
    for kind in KINDS:
        yield ["decompose", "--kind", kind]
    yield ["capacity", "--csv", CSV]
    yield ["capacity", "--csv", CSV, "--power", "2", "--budget", "120"]
    yield ["region"]
    for scheme in SCHEMES:
        for mode in MODES:
            yield ["simulate", "--scheme", scheme, "--mode", mode, "--csv", CSV]


def digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the wtd checkout to run")
    src = Path(parser.parse_args(argv).checkout).resolve() / "src"
    if not (src / "wtd").is_dir():
        parser.error(f"no wtd package under {src}")
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / CSV
        for name, problem in problems().items():
            (Path(tmp) / name).write_text(json.dumps(problem))
            for args in invocations():
                csv.unlink(missing_ok=True)
                proc = subprocess.run([sys.executable, "-m", "wtd", *args, "--input", name],
                                      cwd=tmp, env=env, capture_output=True)
                written = digest(csv.read_bytes()) if csv.exists() else "-"
                print(f"{name} {' '.join(args)}: exit {proc.returncode} "
                      f"stdout {digest(proc.stdout)} stderr {digest(proc.stderr)} "
                      f"csv {written}", flush=True)


if __name__ == "__main__":
    main()
