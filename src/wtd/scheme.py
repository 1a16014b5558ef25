"""Layered transceiver planning and symbol-level verification.

Builds successive-interference-cancellation (SIC), dirty-paper (DPC), and
confidential-broadcast stream plans from joint triangularizations of the
effective MMSE channel matrices, and verifies their analytic SINRs, rates,
and leakage with a seeded Monte Carlo simulator using Gaussian signaling.

The three SINR checks share one layered receiver: a linear combiner, then
successive cancellation over the rows of a triangular feedback matrix.
SIC drives it with (genie or decided) past symbols, DPC is its ideal
presubtraction mirror with the same SINRs ``b_k^2 - 1``, and the broadcast
check runs two such receivers on the two blocks of one GSVD.

Random codebooks are modeled by fresh i.i.d. CN(0, 1) symbols per channel
use (real and imaginary parts N(0, 1/2) each); correctness is checked at
the SINR/mutual-information level.  Every simulator sums one Gram
``G = sum v v'`` of its drawn symbols and noises ``v = [x; z]``: each SINR
sum is a quadratic form of ``G``, and each leakage a QR of factor rows of
the covariance.  All randomness is drawn from counter-based Philox
substreams keyed by (seed, kind, stream, chunk), and chunks are summed in
chunk order, so runs are bit-reproducible whatever the number of CPUs that
evaluate them.  Every draw sums per-block Grams on one grid, and the last
realization's is kept, read-only, so a call that would draw it again reads
it: SIC (genie or decided), DPC and, when Eve has as many antennas as Bob,
leakage share one.  ``WTD_THREADS`` is ignored, as is every thread count: a
repeat under another one reads the kept Gram.
"""

import operator
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .decomp import (_GSVD_RANGE, _as_matrix, _geometric_mean_target, _gtd_schedule, _kernel_ql,
                     _qr_diagonal, _range_rule, require_unitary)
from .errors import DomainError, InsufficientSamples
from .secrecy import _broadcast_problem, _factor_kernel, _freeze, _problem, effective_mmse_matrix

PRECODER_MODES = ("gsvd", "svd_eve", "svd_bob", "gmd_bob")

_CHUNK = 1 << 14
_IN_FLIGHT = 2
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
_KIND_SYMBOL = 0
_KIND_NOISE = 1
_BLOCKS = 10
_ALPHA_OFFSET = 0.1
#: A DPC stream with ``b_k^2 - 1`` at most this, 64 ulps of 1 (``b_k >= 1``), is dead.
_DEAD_SNR = 64.0 * np.finfo(float).eps
#: The last :func:`_accumulate` result, ``((keys, samples, seed), (gram, sums, counts))`` with
#: read-only arrays; only :func:`_accumulate` assigns it.
_last_draw = None


@dataclass(frozen=True)
class SicPlan:
    """Layered-SIC plan for a point-to-point MIMO link.

    ``va`` precodes the unit-power stream symbols, ``b_sqrt`` colors them,
    ``u_tilde`` combines at the receiver, and ``t_tilde`` is the effective
    feedback matrix whose strictly upper part drives the cancellation.
    """

    va: np.ndarray
    b_sqrt: np.ndarray
    u_tilde: np.ndarray
    t_tilde: np.ndarray
    diag_b: np.ndarray
    sinr: np.ndarray
    rates_bits: np.ndarray

    @property
    def num_streams(self):
        return self.diag_b.size


@dataclass(frozen=True)
class WiretapPlan:
    """Wiretap stream plan on top of a SIC plan for the legitimate user."""

    base: SicPlan
    diag_e: np.ndarray
    secret_rates_bits: np.ndarray
    fictitious_rates_bits: np.ndarray
    mode: str

    @property
    def snr_pairs(self):
        """Per-stream (legitimate, eavesdropper) SNR pairs."""
        return np.stack([self.base.diag_b ** 2 - 1.0, self.diag_e ** 2 - 1.0], axis=1)


@dataclass(frozen=True)
class DpcPlan:
    """Layered-DPC plan: successive encoding with ideal presubtraction.

    ``rates_bits``, ``fictitious_rates_bits`` and ``rates_u_bits`` are the
    per-stream secret, fictitious, and auxiliary-codebook rates, closed forms
    (see :func:`build_dpc_plan`) of the wiretap plan of the same mode, whose
    ``base`` (the SIC plan) and ``diag_e`` they keep.
    """

    base: SicPlan
    diag_e: np.ndarray
    alpha: np.ndarray
    rates_bits: np.ndarray
    fictitious_rates_bits: np.ndarray
    rates_u_bits: np.ndarray

    @property
    def presubtraction_rows(self):
        """Strictly upper-triangular known-interference coefficients."""
        return np.triu(self.base.t_tilde, 1)


@dataclass(frozen=True)
class BroadcastPlan:
    """Confidential broadcast split: first ``lb`` streams to the first user."""

    lb: int
    lc: int
    va: np.ndarray
    b_sqrt: np.ndarray
    diag_b: np.ndarray
    diag_c: np.ndarray
    bob_combiner: np.ndarray
    charlie_combiner: np.ndarray
    bob_feedback: np.ndarray
    charlie_feedback: np.ndarray
    bob_rates_bits: np.ndarray
    charlie_rates_bits: np.ndarray


@dataclass(frozen=True)
class SimulationReport:
    """Empirical-versus-analytic summary of one simulation run."""

    scheme: str
    samples: int
    seed: int
    genie: bool
    sinr_empirical: np.ndarray
    sinr_analytic: np.ndarray
    sinr_rel_error: np.ndarray
    sinr_stderr: np.ndarray
    mi_bits: float
    leakage_bits: np.ndarray | None = None
    leakage_expected: np.ndarray | None = None
    leakage_stderr: np.ndarray | None = None
    extras: dict = field(default_factory=dict)

    def within_bands(self):
        """True when every empirical value sits inside 3 standard errors."""
        ok = np.all(np.abs(self.sinr_empirical - self.sinr_analytic)
                    <= 3.0 * self.sinr_stderr + 1e-12)
        if self.leakage_bits is not None:
            ok = ok and np.all(np.abs(self.leakage_bits - self.leakage_expected)
                               <= 3.0 * self.leakage_stderr + 1e-12)
        return bool(ok)


def select_precoder(h_b, h_e, b, mode):
    """Choose the right unitary precoder for a joint triangularization.

    ``b`` is any square factor of the input covariance, ``b b' = K``.
    ``gsvd`` maximizes the diagonal ratios, ``svd_eve`` diagonalizes the
    eavesdropper's factor, ``svd_bob`` the legitimate one (no SIC needed),
    and ``gmd_bob`` equalizes the legitimate diagonal (no bit loading).
    A ``gsvd`` kernel or QL that overflows a double raises :class:`DomainError`
    (out of range).
    """
    _check_mode(mode)
    if mode == "gsvd":
        with _range_rule(_GSVD_RANGE):
            mu, _, _, wh, r2 = _factor_kernel(h_b, h_e, b)
            return _kernel_ql(mu, wh @ r2)[0]
    g = effective_mmse_matrix(h_e if mode == "svd_eve" else h_b, b)
    # ``svd(g).v`` bit for bit (finite check included); ``gmd_bob``'s is ``gmd(g).v`` bit for bit.
    _, sigma, vh = np.linalg.svd(_as_matrix(g), full_matrices=False)
    if mode == "gmd_bob":
        return vh.conj().T @ _gtd_schedule(sigma, _geometric_mean_target(sigma))[1]
    return vh.conj().T


def _check_mode(mode):
    if mode not in PRECODER_MODES:
        raise DomainError(f"unknown precoder mode {mode!r}; expected one of {PRECODER_MODES}")


def build_sic_plan(h_b, b, va):
    """Layered-SIC plan for channel ``h_b`` under any covariance root ``b``, ``b b' = K``.

    Triangularizes the effective MMSE matrix with right factor ``va``; the
    per-stream SINRs satisfy ``1 + sinr_i = diag_b_i**2`` and the rates sum
    to the Gaussian mutual information of the link.
    """
    va = require_unitary(va, "precoder")
    g_b = effective_mmse_matrix(h_b, b)
    if va.shape[0] != g_b.shape[1]:
        raise DomainError("precoder dimension must match the transmit dimension")
    m, gv = g_b.shape[0] - va.shape[0], _as_matrix(g_b @ va)
    diag_b, q = _qr_diagonal(gv)
    return _sic_plan(b, va, q[:m], gv[:m], diag_b)


def _sic_plan(b, va, u_tilde, hbv, diag_b):
    # The plan from the QR ``[h_b b; I] va``'s combiner and diagonal, and ``hbv = h_b b va``.
    return SicPlan(va=va, b_sqrt=b, u_tilde=u_tilde, t_tilde=u_tilde.conj().T @ hbv,
                   diag_b=diag_b, sinr=(diag_b - 1.0) * (diag_b + 1.0),
                   rates_bits=2.0 * np.log2(diag_b))


def build_wiretap_plan(h_b, h_e, kbar, mode):
    """Wiretap plan under constraint ``kbar`` with the chosen precoder mode.

    Uses the optimal covariance for the constraint, so the per-stream diagonal
    ratios never fall below 1 and the secret rates sum to the secrecy capacity
    for every mode.  The precoder and the SIC plan share the capacity call's
    factor ``b_sqrt = b [0, P]`` of ``k_star`` (``b`` the root of ``kbar``),
    and every mode is built from the ``lb x lb`` active block ``X`` of its QL
    (see ``secrecy._Problem``), the ``n - lb`` inactive streams exactly 1:
    ``gsvd`` reads both diagonals off the QL, up to the double limit;
    ``svd_bob`` and ``gmd_bob`` share Bob's SVD of ``diag(mu[:lb]) X``, phased
    by a rule of the problem (``gmd_bob`` then equalizes all ``n`` streams),
    and ``svd_eve`` takes the SVD of ``X``.  The side a mode does not
    diagonalize takes one QR.  A plan is built once per problem and mode and
    handed out again, its arrays read-only.
    """
    problem = _problem(h_b, h_e, kbar, "constraint")
    _check_mode(mode)
    if mode in problem.plans:
        return problem.plans[mode]
    f, ql, lb = problem.f, problem.ql, problem.result.lb
    if mode == "gsvd":
        factors, (diag_b, diag_e) = problem.block[1:], np.ones((2, f.shape[0]))
        diag_b[:lb], diag_e[:lb] = ql[1][:lb], ql[2][:lb]
    elif mode == "svd_eve":
        x, (diag_b, diag_e) = problem.block[0], np.ones((2, f.shape[0]))
        _, diag_e[:lb], vh = np.linalg.svd(x)
        diag_b[:lb], q = _qr_diagonal(problem.kernel[0][:lb, None] * (x @ vh.conj().T))
        factors = problem.assemble(vh.conj().T, q)
    else:
        (diag_b, *factors, xv), diag_e = problem.bob_svd, np.ones(f.shape[0])
        if mode == "gmd_bob":
            r1, r2, diag_b = _gtd_schedule(diag_b, _geometric_mean_target(diag_b))
            factors = [a @ r for a, r in zip(factors, (r2, r1, r2))]
            xv = np.concatenate([xv @ r2[:lb], r2[lb:]])  # ``[X v, 0; 0, I] r2``
        diag_e[:xv.shape[1]] = np.abs(np.linalg.qr(xv, mode="raw")[0].diagonal())  # R's diagonal
    base = _sic_plan(f, *factors, diag_b)
    fictitious = 2.0 * np.log2(diag_e)
    secret = np.maximum(base.rates_bits - fictitious, 0.0)  # the bits of 2 (log2 b - log2 e)
    plan = WiretapPlan(base=base, diag_e=diag_e, secret_rates_bits=secret,
                       fictitious_rates_bits=fictitious, mode=mode)
    _freeze(*vars(base).values(), diag_e, secret, fictitious)
    problem.plans[mode] = plan
    return plan


def build_dpc_plan(h_b, h_e, kbar, mode="gsvd"):
    """Layered-DPC plan: the wiretap plan of ``mode`` read as dirty-paper coding.

    Stream k is encoded after the later ones as ``u_k = t_kk x_k + alpha_k s_k``,
    ``s_k = sum_{j>k} t_kj x_j``, against the SIC plan's noise of SNR
    ``b_k^2 - 1``: so ``t_kk = b_k - 1/b_k``, Costa's (IEEE Trans. IT 1983)
    ``alpha_k = 1 - (1/b_k)^2`` and, with ``q_k = sum_{j>k} |t_kj / b_k|^2``,
    ``I(u_k; y_k) = 2 log2 b_k + log2(1 + q_k) = I(u_k; s_k) + log2 b_k^2``.  Given
    the later streams ``u_k`` is ``t_kk x_k``, so ``I(u_k; y_e | later) =
    2 log2 e_k``, the wiretap fictitious rate, and by the chain rule
    ``I(u_k; y_k) - I(u_k; y_e, later) = 2 log2(b_k / e_k)``, the wiretap
    secret rate.  ``u_k`` is 0 exactly when ``b_k = 1``, so a stream whose
    SINR ``(b_k - 1)(b_k + 1)`` is within rounding (``_DEAD_SNR``) of 0
    carries nothing.  No square of ``b`` is formed.
    """
    wt = build_wiretap_plan(h_b, h_e, kbar, mode)
    base, b = wt.base, wt.base.diag_b
    # b_k >= 1 always; rounding on truncated streams can push b slightly
    # below 1, so the MMSE coefficient is clamped at 0.
    alpha = np.maximum(1.0 - (1.0 / b) ** 2, 0.0)
    q = np.sum(np.abs(np.triu(base.t_tilde, 1) / b[:, None]) ** 2, axis=1)
    live = base.sinr > _DEAD_SNR
    return DpcPlan(base=base, diag_e=wt.diag_e, alpha=alpha,
                   rates_bits=np.where(live, wt.secret_rates_bits, 0.0),
                   fictitious_rates_bits=np.where(live, wt.fictitious_rates_bits, 0.0),
                   rates_u_bits=np.where(live, base.rates_bits + np.log2(1.0 + q), 0.0))


def build_broadcast_plan(h_b, h_c, kbar):
    """Confidential broadcast plan splitting the GSVD streams by ratio.

    Both users' triangular factors under the shared GSVD precoder are read
    off the capacity call's GSVD kernel ``g_b R2^-1 = U diag(mu) W'`` of the
    pair and the capacity solve's QL of it: the diagonals ``mu d`` and ``d``,
    whose ratios are the GSVs ``mu`` and whose first ``lb`` are the ``gsvd``
    wiretap plan's (the paper's corollary); a GSV the kernel lost to 0 raises
    :class:`DomainError`, as the region does.  The ``lb`` streams with ``mu``
    above 1 carry the first user's messages, combined by the top rows of
    ``U``, the rest the second's, by the top rows of ``g_c R2^-1 W`` (one
    triangular solve); each feedback is the combiner's adjoint times ``h b
    va``, from the products ``h b`` the problem formed with its kernel.  The
    rate totals hit both corners of the rectangular region simultaneously.
    """
    problem = _broadcast_problem(h_b, h_c, kbar)
    (mu, u, _, wh, r2), (va, diag_b, diag_c), lb = problem.kernel, problem.ql, problem.result.lb
    hb, hc = (g[:h.shape[0]] for g, h in zip(problem.mmse_pair, problem.channels))
    bob = u[:hb.shape[0], :lb]
    # ``(h_c b) R2^-1``: the top rows of ``g_c R2^-1``, solved as the kernel solves ``g_b R2^-1``.
    charlie = np.linalg.solve(r2.T, hc.T).T @ wh[lb:].conj().T
    return BroadcastPlan(
        lb=lb, lc=mu.size - lb, va=va, b_sqrt=problem.root, diag_b=diag_b, diag_c=diag_c,
        bob_combiner=bob, charlie_combiner=charlie,
        bob_feedback=bob.conj().T @ (hb @ va), charlie_feedback=charlie.conj().T @ (hc @ va),
        bob_rates_bits=np.maximum(2.0 * np.log2(mu[:lb]), 0.0),
        charlie_rates_bits=np.maximum(-2.0 * np.log2(mu[lb:]), 0.0),
    )


def _chunks(samples):
    return [min(_CHUNK, samples - start) for start in range(0, samples, _CHUNK)]


def _check_samples(samples):
    if samples < 1:
        raise DomainError("at least one sample is required")
    return int(samples)


def _accumulate(groups, samples, seed):
    """Per block, the Gram ``sum v v'``, the sum and the count of ``v`` over all samples.

    ``v`` stacks ``count`` CN(0, 1) rows per ``(kind, count)`` group; row ``s``
    of a group comes from the Philox substream (seed, kind, s, chunk), its
    real parts then its imaginary parts.  A chunk draws every row into one
    real ``(dim, 2, size)`` buffer ``P`` and splits it into the draw's block
    grid: ``max(2, min(_BLOCKS, samples // (10 dim)))`` pieces, so the
    leakage check's batch means exist even when everything fits in a single
    chunk.  It sums the real Gram ``P P'`` of each piece and its row sums;
    the complex Gram follows from the real one.  Chunks run on
    usable CPUs // BLAS threads threads (BLAS takes the first positive count
    in ``_BLAS_VARS``, else every CPU), at least one and at most one per
    chunk, each at most ``_IN_FLIGHT`` chunks ahead of the sums, taken in chunk
    order: the result does not depend on the thread count, and memory holds
    one chunk buffer per thread, whatever ``samples``.  The last result is
    kept, read-only, by its row keys, ``samples`` and ``seed``, which fix it
    and its grid: a call with the same ones returns it and draws nothing.  It
    is kept only once every chunk is summed, so a call that raises keeps
    nothing.
    """
    global _last_draw
    keys = tuple((kind, s) for kind, count in groups for s in range(count))
    # A seed that is not an integer is refused, as a draw refuses it, even one equal to a kept seed.
    draw = (keys, samples, operator.index(seed))
    if (last := _last_draw) and last[0] == draw:
        return last[1]
    blocks = max(2, min(_BLOCKS, samples // (10 * len(keys))))

    def worker(chunk_index, size):
        p = np.empty((len(keys), 2, size))
        for row, key in zip(p, keys):
            np.random.Generator(np.random.Philox(
                np.random.SeedSequence((seed, *key, chunk_index)))).standard_normal(out=row)
        pieces = np.array_split(p.reshape(-1, size), blocks, axis=1)
        return (np.array([q @ q.T for q in pieces]), np.array([q.sum(axis=1) for q in pieces]),
                np.array([q.shape[1] for q in pieces]))

    sizes = _chunks(samples)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    blas = next((int(v) for v in map(os.environ.get, _BLAS_VARS) if v and v.isdigit() and int(v)),
                cpus)
    workers = min(len(sizes), max(1, cpus // blas))
    depth = _IN_FLIGHT * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(worker, c, sizes[c]) for c in range(min(len(sizes), depth)))
        for c in range(len(sizes)):
            result = pending.popleft().result()
            if c + depth < len(sizes):
                pending.append(pool.submit(worker, c + depth, sizes[c + depth]))
            total = result if c == 0 else [t + r for t, r in zip(total, result)]
    real, sums, counts = total
    # v = (re + i im) / sqrt(2), so v v' = (re re' + im im' + i (im re' - re im')) / 2.
    re, im = real[:, 0::2], real[:, 1::2]
    gram = 0.5 * (re[..., 0::2] + im[..., 1::2] + 1j * (im[..., 0::2] - re[..., 1::2]))
    result = _freeze(gram, np.sqrt(0.5) * (sums[:, 0::2] + 1j * sums[:, 1::2]), counts)
    _last_draw = draw, result
    return result


def _decode(receivers, n, samples, seed, recon=None):
    """Layered decoding of ``n`` unit-power streams at one or more receivers.

    Each receiver is ``(combiner, front, feedback, first, noise_kind)``: it
    observes ``combiner' (front x + z)`` with its own CN(0, I) noise ``z``,
    and row ``j`` of ``feedback`` cancels the later streams from its
    observation of stream ``first + j``, last stream first.  With
    ``recon=None`` the true symbols are fed back (genie); otherwise stream
    ``i`` feeds back ``recon[i]`` times its cancelled observation.

    Returns the per-stream gain ``|t_ii|^2`` and the sums over all samples
    of ``|x_i|^2``, ``|w_i|^2`` and ``x_i w_i*``, where ``w_i = a_i v`` is
    what is left of the cancelled observation after removing ``t_ii x_i``:
    ``G_ii``, ``a_i G a_i'`` and ``G_i. a_i'`` of the Gram ``G`` of
    ``v = [x; z_1; z_2; ...]``.  The feedback runs on the rows ``a_i``.
    """
    groups = [(_KIND_SYMBOL, n)] + [(kind, front.shape[0]) for _, front, _, _, kind in receivers]
    dim = sum(count for _, count in groups)
    fed = np.eye(n, dim, dtype=complex) if recon is None else np.zeros((n, dim), dtype=complex)
    rows = np.zeros((n, dim), dtype=complex)
    col = 0
    for combiner, front, feedback, first, _ in receivers:
        # The receiver observes ``[front, its noise rows] v`` through the combiner.
        observed = combiner.conj().T @ np.hstack([front, np.eye(front.shape[0], dim - n, col)])
        col += front.shape[0]
        for j in range(feedback.shape[0] - 1, -1, -1):
            i = first + j
            rows[i] = observed[j] - feedback[j, i + 1:] @ fed[i + 1:]
            if recon is not None:
                fed[i] = recon[i] * rows[i]
            rows[i, i] -= feedback[j, i]
    gram = _accumulate(groups, samples, seed)[0].sum(axis=0)
    gain = np.concatenate([np.abs(np.diag(feedback[:, first:])) ** 2
                           for _, _, feedback, first, _ in receivers])
    return (gain, np.real(np.diagonal(gram)[:n]),
            np.real(np.sum((rows @ gram) * rows.conj(), axis=1)),
            np.sum(gram[:n] * rows.conj(), axis=1))


def _sic_receiver(plan, h_b):
    return (plan.u_tilde, h_b @ plan.b_sqrt @ plan.va, plan.t_tilde, 0, _KIND_NOISE)


def _sinr_report(scheme, samples, seed, genie, gain, sum_x, sum_w, analytic,
                 extras=None):
    """Report of the empirical SINRs ``gain * sum_x / sum_w`` against ``analytic``."""
    sinr_emp = np.where(sum_w > 0.0, gain * sum_x / np.where(sum_w > 0.0, sum_w, 1.0), 0.0)
    return SimulationReport(
        scheme=scheme, samples=samples, seed=seed, genie=genie,
        sinr_empirical=sinr_emp, sinr_analytic=analytic,
        sinr_rel_error=np.abs(sinr_emp - analytic) / np.maximum(analytic, 1e-12),
        sinr_stderr=sinr_emp * np.sqrt(2.0 / samples),
        mi_bits=float(np.sum(np.log2(1.0 + sinr_emp))),
        extras={} if extras is None else extras)


def simulate_sic(plan, h_b, samples, seed, genie=True):
    """Symbol-level check of a SIC plan against its analytic SINRs.

    Streams are decoded last to first; with ``genie=True`` the feedback uses
    the true symbols (correct past decisions), otherwise each symbol is
    reconstructed by its scaled MMSE estimate before being fed back.  The
    analytic values are the genie SINRs, so with ``genie=False`` only the
    last stream, decoded before any feedback, is expected to match them, and
    ``within_bands()`` is expected to be False (it was on 40 of 40 seeds at
    n = 4).
    """
    samples = _check_samples(samples)
    h_b = np.asarray(h_b, dtype=complex)
    recon = None
    if not genie:
        # MMSE reconstruction gain per stream; zero-rate streams estimate 0.
        recon = np.where(plan.sinr > 1e-12,
                         np.diag(plan.t_tilde).conj() / np.maximum(plan.sinr, 1e-12), 0.0)
    gain, sum_x, sum_r, _ = _decode([_sic_receiver(plan, h_b)], plan.num_streams,
                                    samples, seed, recon)
    return _sinr_report("sic", samples, seed, genie, gain, sum_x, sum_r, plan.sinr)


def _leakage_bits(f, factors):
    """``I(x_k; y_e | x_{k+1}, ..., x_{n-1})`` in bits per stream, ``y_e = f x + z``.

    ``factors`` is a stack of factors ``L`` of ``(x, z)`` covariances,
    ``L L' = C``.  The factor rows of ``(x, y_e)`` are ``[I 0; f I] L``, and
    each leakage is the log ratio of the conditional standard deviations of
    ``x_k`` in the orders ``(x_{n-1..0}, y_e)`` and ``(y_e, x_{n-1..0})``.
    """
    n = f.shape[1]
    x = factors[..., n - 1::-1, :]
    y = f @ factors[..., :n, :] + factors[..., n:, :]
    rows = np.stack([np.concatenate([x, y], axis=-2), np.concatenate([y, x], axis=-2)])
    # |diag R| of a QR of rows' (``raw`` holds R transposed) is each row's sd given those above.
    h = np.linalg.qr(rows.conj().swapaxes(-1, -2), mode="raw")[0]
    sd = np.abs(np.diagonal(h, 0, -2, -1))
    return 2.0 * (np.log2(sd[0, ..., n - 1::-1]) - np.log2(sd[1, ..., ::-1][..., :n]))


def simulate_leakage(plan, h_e, samples, seed):
    """Estimate the per-stream leakage of a wiretap plan at the eavesdropper.

    Computes the Gaussian conditional mutual information between each
    stream symbol and the eavesdropper output given the later symbols, from
    the empirical covariance of symbols and noise (see :func:`_leakage_bits`);
    its analytic value is the fictitious rate ``log2 e_k^2``.  Standard
    errors come from block-wise estimates.
    """
    samples = _check_samples(samples)
    h_e = np.asarray(h_e, dtype=complex)
    base = plan.base
    n = base.num_streams
    n_e = h_e.shape[0]
    dim = n + n_e
    if samples < 10 * dim * dim:
        raise InsufficientSamples(
            f"'samples' must be at least {10 * dim * dim} for a {dim}-dimensional "
            f"covariance, got {samples}")
    gram, sums, counts = _accumulate([(_KIND_SYMBOL, n), (_KIND_NOISE, n_e)], samples, seed)
    # The (x, z) covariance of the run, then of each block; a block holds
    # about samples / blocks >= 10 dim samples, so each has a Cholesky factor.
    counts = np.append(samples, counts)[:, None]
    mean = np.concatenate([sums.sum(axis=0)[None], sums]) / counts
    cov = (np.concatenate([gram.sum(axis=0)[None], gram]) / counts[..., None]
           - mean[:, :, None] * mean[:, None].conj())
    leak, *values = _leakage_bits(h_e @ base.b_sqrt @ base.va, np.linalg.cholesky(cov))
    stderr = np.std(values, axis=0, ddof=1) / np.sqrt(len(values))
    return SimulationReport(
        scheme="leakage", samples=samples, seed=seed, genie=True,
        sinr_empirical=base.sinr, sinr_analytic=base.sinr,
        sinr_rel_error=np.zeros(n), sinr_stderr=np.zeros(n),
        mi_bits=float(np.sum(leak)),
        leakage_bits=leak, leakage_expected=2.0 * np.log2(plan.diag_e),
        leakage_stderr=stderr)


def simulate_dpc(plan, h_b, samples, seed):
    """Check a DPC plan: presubtraction SINRs and the MMSE property of alpha.

    Interference known at the transmitter is ideally presubtracted, which
    must reproduce the genie-SIC SINRs ``b_k^2 - 1``; additionally the
    residual power of the auxiliary-variable estimate must be minimized at
    ``alpha_k`` (bracket test against ``(1 +/- _ALPHA_OFFSET) alpha_k``).
    """
    samples = _check_samples(samples)
    h_b = np.asarray(h_b, dtype=complex)
    sic = plan.base
    gain, sum_x, sum_w, sum_xw = _decode([_sic_receiver(sic, h_b)], sic.num_streams,
                                         samples, seed)
    diag_tt = np.diag(sic.t_tilde)

    # Residual of the scaled estimate: (1 - a) t_kk x_k - a w_k; its power
    # is a quadratic in a minimized at the MMSE coefficient.
    def residual_power(a):
        return ((1.0 - a) ** 2 * gain * sum_x / samples
                + a * a * sum_w / samples
                - 2.0 * a * (1.0 - a) * np.real(diag_tt * sum_xw) / samples)

    at_alpha = residual_power(plan.alpha)
    below = residual_power(plan.alpha * (1.0 - _ALPHA_OFFSET))
    above = residual_power(plan.alpha * (1.0 + _ALPHA_OFFSET))
    active = plan.alpha > 1e-9
    bracket_ok = bool(np.all(at_alpha[active] < below[active])
                      and np.all(at_alpha[active] < above[active]))
    return _sinr_report(
        "dpc", samples, seed, True, gain, sum_x, sum_w, sic.diag_b ** 2 - 1.0,
        extras={
            "alpha": plan.alpha,
            "alpha_residual": at_alpha,
            "alpha_residual_below": below,
            "alpha_residual_above": above,
            "alpha_bracket_ok": bracket_ok,
        })


def simulate_broadcast(plan, h_b, h_c, samples, seed):
    """Check a broadcast plan: per-user presubtraction SINRs.

    Each user's streams are verified like the DPC check, with interference
    from later streams presubtracted using that user's feedback rows; the
    analytic values are ``diag**2 - 1`` of the owning user's factor.
    """
    samples = _check_samples(samples)
    h_b = np.asarray(h_b, dtype=complex)
    h_c = np.asarray(h_c, dtype=complex)
    receivers = []
    if plan.lb:
        receivers.append((plan.bob_combiner, h_b @ plan.b_sqrt @ plan.va,
                          plan.bob_feedback, 0, _KIND_NOISE))
    if plan.lc:
        # The second user's noise takes the next substream kind only when the
        # first user draws noise too; otherwise it is the only noise drawn.
        receivers.append((plan.charlie_combiner, h_c @ plan.b_sqrt @ plan.va,
                          plan.charlie_feedback, plan.lb,
                          _KIND_NOISE + 1 if plan.lb else _KIND_NOISE))
    gain, sum_x, sum_w, _ = _decode(receivers, plan.diag_b.size, samples, seed)
    analytic = np.concatenate([plan.diag_b[:plan.lb] ** 2 - 1.0,
                               plan.diag_c[plan.lb:] ** 2 - 1.0])
    return _sinr_report("broadcast", samples, seed, True, gain, sum_x, sum_w, analytic,
                        extras={"lb": plan.lb, "lc": plan.lc})
