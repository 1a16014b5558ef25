"""Result checks: every operation the benchmark runs is checked here.

An operation is one call into ``wtd`` (or one ``python -m wtd`` run).  It
fails when it raises, exits with an unexpected code, or breaks any
identity below; ``fail_ratio`` is failed over attempted operations.
"""

import math
import sys
from contextlib import contextmanager

import numpy as np

#: Relative tolerance of the analytic identities; they hold to ~1e-13.
IDENTITY_RTOL = 1e-9
#: A Monte Carlo stream fails when its normal-scale |z| exceeds this.
Z_LIMIT = 5.0


class Checker:
    """Counts attempted and failed operations and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.notes = {}
        self._current = None

    def note(self, what):
        """Count an observation that is reported but is not a failure."""
        self.notes[what] = self.notes.get(what, 0) + 1

    @contextmanager
    def operation(self, label):
        self.attempted += 1
        self._current = [label, False]
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            self.fail(f"raised {type(exc).__name__}: {exc}")
        finally:
            if self._current[1]:
                self.failed += 1
            self._current = None

    def fail(self, message):
        label = self._current[0] if self._current else "run"
        if self._current is None:
            self.attempted += 1
            self.failed += 1
        else:
            self._current[1] = True
        if len(self.messages) < 20:
            self.messages.append(f"{label}: {message}")
            print(f"check failed: {label}: {message}", file=sys.stderr)

    def expect(self, ok, message):
        if not ok:
            self.fail(message)
        return bool(ok)

    def close(self, actual, expected, what, rtol=IDENTITY_RTOL):
        actual = np.asarray(actual, dtype=float)
        expected = np.asarray(expected, dtype=float)
        scale = np.maximum(1.0, np.abs(expected))
        ok = actual.shape == expected.shape and bool(
            np.all(np.abs(actual - expected) <= rtol * scale))
        return self.expect(ok, f"{what}: {actual} != {expected}")


def psd_below(k, kbar):
    """True when ``k`` sits below ``kbar`` in the semidefinite order."""
    gap = np.linalg.eigvalsh((kbar - k + (kbar - k).conj().T) / 2.0)
    return gap.min() >= -IDENTITY_RTOL * max(1.0, np.linalg.norm(kbar, 2))


def _student_tail(t, dof):
    """Two-sided tail P(|T| > t) of Student's t with ``dof`` degrees of freedom."""
    # P(|T| > t) = I_x(dof/2, 1/2) with x = dof / (dof + t^2); the regularized
    # incomplete beta is integrated with u = sqrt(1 - s), which removes the
    # endpoint singularity, by composite Simpson on 2000 panels.
    x = dof / (dof + t * t)
    a = dof / 2.0
    lo = math.sqrt(1.0 - x)
    u = np.linspace(lo, 1.0, 4001)
    f = 2.0 * (1.0 - u * u) ** (a - 1.0)
    h = (1.0 - lo) / 4000
    integral = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
    beta = math.exp(math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5))
    return min(1.0, integral / beta)


def normal_equivalent(t, dof):
    """|z| of a standard normal with the same two-sided tail as Student's |t|."""
    tail = _student_tail(abs(t), dof)
    if tail <= 0.0:
        return math.inf
    lo, hi = 0.0, 40.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if math.erfc(mid / math.sqrt(2.0)) > tail:
            lo = mid
        else:
            hi = mid
    return lo


def stream_z(report, leakage_blocks=10):
    """Normal-scale |z| of every checked stream of a simulation report.

    SINR streams use the report's large-sample standard error, with the
    1e-12 absolute slack of ``within_bands`` so streams carrying no power
    (analytic and empirical SINR both ~0) do not divide by ~0.  Leakage
    streams use a batch-means standard error over ``leakage_blocks``
    blocks, so their ratio is Student-t with ``blocks - 1`` degrees of
    freedom and is mapped to the normal scale before the |z| limit.
    """
    if report.get("leakage_bits") is not None:
        diff = np.asarray(report["leakage_bits"]) - np.asarray(report["leakage_expected"])
        err = np.asarray(report["leakage_stderr"])
        raw = np.abs(diff) / np.maximum(err, 1e-300)
        raw = np.where(np.abs(diff) <= 1e-12, 0.0, raw)
        return [normal_equivalent(t, leakage_blocks - 1) for t in raw]
    diff = np.asarray(report["sinr_empirical"]) - np.asarray(report["sinr_analytic"])
    err = np.asarray(report["sinr_stderr"])
    return (np.abs(diff) / (err + 1e-12 / Z_LIMIT)).tolist()


def alpha_z(report, perturbation=0.1):
    """Normal-scale |z| of the empirical MMSE coefficient of each DPC stream.

    The residual power is exactly quadratic in the coefficient, so its three
    reported values, at alpha and alpha (1 -+ perturbation), give the
    empirical minimiser.  Its standard error is sqrt(alpha (1 - alpha) / N),
    that of a regression coefficient whose explained share of variance is
    alpha.  Streams with alpha ~0 carry no power and are skipped.
    """
    alpha = np.asarray(report["alpha"], dtype=float)
    at = np.asarray(report["alpha_residual"], dtype=float)
    below = np.asarray(report["alpha_residual_below"], dtype=float)
    above = np.asarray(report["alpha_residual_above"], dtype=float)
    active = alpha > 1e-9
    step = perturbation * alpha[active]
    curvature = above[active] - 2.0 * at[active] + below[active]
    vertex = alpha[active] - step * (above[active] - below[active]) / (2.0 * curvature)
    err = np.sqrt(alpha[active] * (1.0 - alpha[active]) / report["samples"])
    return (np.abs(vertex - alpha[active]) / err).tolist()


def check_simulation(checker, report, what):
    """|z| <= Z_LIMIT on every stream and every DPC coefficient.

    ``alpha_bracket_ok`` asks the empirical minimiser to lie within 5 % of
    alpha whatever the sampling error, which for alpha ~1e-3 at 1e5 samples
    is wider than that; a False flag is counted as a note, and the
    coefficient is checked against its standard error instead.
    """
    z = stream_z(report)
    checker.expect(max(z, default=0.0) <= Z_LIMIT,
                   f"{what}: stream |z| {np.round(z, 2).tolist()} above {Z_LIMIT}")
    if "alpha" in report:
        za = alpha_z(report)
        checker.expect(max(za, default=0.0) <= Z_LIMIT,
                       f"{what}: MMSE coefficient |z| {np.round(za, 2).tolist()} "
                       f"above {Z_LIMIT}")
        if report["alpha_bracket_ok"] is not True:
            checker.note("alpha_bracket_ok_false")
