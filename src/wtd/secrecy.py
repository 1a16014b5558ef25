"""Secrecy-capacity quantities for the MIMO wiretap and confidential
broadcast channels.

Everything is phrased through the effective MMSE channel matrices
``G(H, K) = [H K^{1/2}; I]`` of the legitimate and eavesdropper links:
their generalized singular values give the secrecy capacity under a
covariance constraint, the optimal input covariance truncates those values
at 1, and the broadcast region follows by swapping roles.  Rates are in
bits per channel use (base-2 logarithms).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .decomp import _as_matrix, _gsvd_kernel, _kernel_ql, haar_unitary
from .errors import DomainError, NotPSD

LN2 = np.log(2.0)

#: Absolute floor of the clamp window for slightly negative eigenvalues of a
#: PSD input.
PSD_EIG_TOL = 1e-10
#: Clamp window relative to the largest eigenvalue magnitude of the input.
_PSD_EIG_RTOL = 16.0 * np.finfo(float).eps
#: A squared GSV must exceed ``1 + LB_GSV_TOL`` to count as an active stream.
LB_GSV_TOL = 1e-9
#: Most matrices evaluated as one stack; bounds the memory of long searches
#: and checks.
STACK_CHUNK = 1024
#: Refinement steps of the power search ranked as one speculative stack.
_REFINE_BATCH = 8
#: Largest GSV deviation ``verify_truncation`` accepts.
_TRUNCATION_TOL = 1e-7
#: The last 2-D problem solved, a :class:`_Problem`; only :func:`_problem` assigns it.
_last = None


def _as_square(k, name, stacked=False):
    # ``stacked`` also admits a (..., n, n) stack of matrices.
    k = np.asarray(k, dtype=complex)
    if k.ndim < 2 or (k.ndim > 2 and not stacked) or k.shape[-2] != k.shape[-1]:
        raise DomainError(f"{name} must be a square matrix")
    if not np.isfinite(k).all():
        raise DomainError(f"{name} entries must be finite")
    return k


def _adjoint(a):
    return a.conj().swapaxes(-1, -2)


def _hermitize(k):
    return (k + _adjoint(k)) / 2.0


@dataclass(frozen=True)
class SecrecyResult:
    """Secrecy capacity under a covariance constraint.

    ``gsv`` holds the channel-pair GSVs of the constraint, ``lb`` counts the
    active ones (squares above ``1 + LB_GSV_TOL``), ``capacity_bits`` is their
    log-sum, and ``k_star`` is the optimal input covariance.
    """

    gsv: np.ndarray
    lb: int
    capacity_bits: float
    k_star: np.ndarray


@dataclass(frozen=True)
class BroadcastRegion:
    """Rectangular broadcast region ``[0, rb_max] x [0, rc_max]`` from the channel-pair ``gsv``."""

    rb_max: float
    rc_max: float
    gsv: np.ndarray


@dataclass(frozen=True)
class TruncationReport:
    """Check of GSV truncation by the optimal covariance."""

    ok: bool
    max_deviation: float
    lb: int
    gsv_constraint: np.ndarray
    gsv_truncated: np.ndarray


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of sampling the order interval below the constraint."""

    ok: bool
    samples: int
    violations: int
    max_violation: float
    witness: np.ndarray | None


@dataclass(frozen=True)
class PowerSearchResult:
    """Certified lower bound on the total-power secrecy capacity."""

    capacity_lower_bound: float
    kbar: np.ndarray
    evaluations: int


def matrix_sqrt(k):
    """Hermitian PSD square root ``b`` with ``b @ b.conj().T == k``.

    Uses the eigendecomposition route so singular inputs are fine.
    Eigenvalues in ``[-tol, 0)`` are clamped to zero and anything lower
    raises :class:`NotPSD`, where ``tol = max(1e-10, 16 eps max|lambda|)``
    grows with the matrix: the eigenvalues of a large covariance carry
    rounding of about ``eps max|lambda|``.  For the same reason eigenvalues
    in ``(0, 16 eps max|lambda|]`` are zeroed too: they are the rounding of
    null directions, and their roots would put power where a rank-deficient
    ``k`` has none.  This positive window is relative only, so a small
    full-rank ``k`` such as ``1e-12 I`` keeps its root.  ``k`` may also be a
    ``(..., n, n)`` stack: every matrix gets the same finite, Hermitian and
    PSD checks and its own clamp (one bad matrix fails the call, and the
    first one is named), and each root equals the one of its own call bit
    for bit.
    """
    return _root(_as_square(k, "covariance", stacked=True))


def _root(k):
    # :func:`matrix_sqrt` of a square ``k`` (or a stack) with finite entries.
    adjoint = _adjoint(k)
    asymmetry = np.abs(k - adjoint).max(axis=(-2, -1))  # the window is never below 1e-10
    if asymmetry.max() > 1e-10 and (
            asymmetry > 1e-10 * np.maximum(1.0, np.abs(k).sum(axis=-1).max(axis=-1))).any():
        raise DomainError("covariance must be Hermitian")
    w, q = np.linalg.eigh((k + adjoint) / 2.0)
    # ``tol`` is never below the absolute floor, so only an eigenvalue under
    # the floor needs the per-matrix window.
    if w.min() < -PSD_EIG_TOL:
        low = w.min(axis=-1)
        tol = np.maximum(PSD_EIG_TOL, _PSD_EIG_RTOL * np.abs(w).max(axis=-1))
        if (low < -tol).any():
            i = np.argmax(low < -tol)
            raise NotPSD(f"covariance has eigenvalue {low.flat[i]:.3e} < -{tol.flat[i]:g}")
    w = np.where(w <= _PSD_EIG_RTOL * np.abs(w).max(axis=-1, keepdims=True), 0.0, w)
    return (q * np.sqrt(w)[..., None, :]) @ _adjoint(q)


def effective_mmse_matrix(h, b):
    """Stack ``[h @ b; I]``; always full column rank.

    ``b`` is a square root factor of the input covariance, ``h`` the channel
    matrix; the identity block keeps every column alive even for a dead
    channel.  A ``(..., n, n)`` stack of factors gives a stack of matrices.
    """
    h = np.asarray(h, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if h.ndim != 2 or b.ndim < 2 or b.shape[-2] != b.shape[-1]:
        raise DomainError("channel must be 2-D and the sqrt factor square")
    if h.shape[1] != b.shape[-1]:
        raise DomainError("channel columns must match the sqrt factor dimension")
    m, n = h.shape
    g = np.zeros(b.shape[:-2] + (m + n, n), dtype=complex)
    np.matmul(h, b, out=g[..., :m, :])
    g.reshape(b.shape[:-2] + (-1,))[..., m * n::n + 1] = 1.0  # the identity block's diagonal
    return g


def gaussian_mi(h, k):
    """Gaussian vector mutual information ``log2 det(I + h k h')`` in bits."""
    h = np.asarray(h, dtype=complex)
    k = _as_square(k, "covariance")
    m = np.eye(h.shape[0], dtype=complex) + h @ k @ h.conj().T
    _, logdet = np.linalg.slogdet(_hermitize(m))
    return float(logdet / LN2)


def secrecy_mi_difference(h_b, h_e, k):
    """Difference of the Gaussian MIs to the legitimate user and eavesdropper."""
    return gaussian_mi(h_b, k) - gaussian_mi(h_e, k)


def _capacity(mu):
    # ``sum 2 log2 mu`` over the ``lb`` active streams, whose squared GSVs (of ``min(mu, 2)``, so
    # none overflows) exceed ``1 + LB_GSV_TOL``, and ``lb``.  The others add 0 in place: the bits
    # are those of ``sum max(2 log2 mu, 0)`` unless a GSV is in ``(1, sqrt(1 + LB_GSV_TOL)]``.
    lb = sum(m * m > 1.0 + LB_GSV_TOL for m in np.minimum(mu, 2.0).tolist())
    logs = 2.0 * np.log2(np.maximum(mu, 1.0))
    logs[lb:] = 0.0
    return float(logs.sum()), lb


def _freeze(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _mmse_pair(h_b, h_e, f):
    # ``[h_b f; I]``, ``[h_e f; I]`` for a square factor (or a stack) ``f``, finite-checked.
    pair = effective_mmse_matrix(h_b, f), effective_mmse_matrix(h_e, f)  # tall by construction
    return _as_matrix(pair[0], "first matrix", True), _as_matrix(pair[1], "second matrix", True)


def _factor_kernel(h_b, h_e, f):
    # The GSVD kernel, GSVs first, of :func:`_mmse_pair`; its GSVs are those of ``f f'``.  No
    # rank check: all >= 1.
    return _gsvd_kernel(*_mmse_pair(h_b, h_e, f), check=False)


def _square_pair(h_b, h_e):
    # ``[R; 0]``, 2n x n, for the ``n x n`` R factors of both channels (zero rows below a wide one):
    # ``[h F; I]`` is a left isometry times ``[R F; I] = [R; 0] F + [0; I]``, with the same GSVs.
    return np.stack([np.pad(np.linalg.qr(h, mode="r"), ((0, 2 * h.shape[1] - min(h.shape)), (0, 0)))
                     for h in (h_b, h_e)])


def _candidate_gsv(rs, fs):
    # GSVs of ``[R_b F; I]``, ``[R_e F; I]`` for a ``(B, n, n)`` stack of factors ``F``: one
    # stacked triangular QR of both, one solve for ``(R_1 R_2^-1)'``, its singular values alone.
    n = fs.shape[-1]
    r1, r2 = np.linalg.qr(rs[:, None] @ fs + np.eye(2 * n, n, -n), mode="r").swapaxes(-1, -2)
    return np.linalg.svd(np.linalg.solve(r2, r1), compute_uv=False)


class _Problem:
    """One 2-D ``(h_b, h_e, k)``, keyed by their shapes and bytes as complex: the root ``b`` of
    ``k``, its MMSE pair ``[h b; I]`` and the pair's GSVD kernel ``[h_b b; I] = U diag(mu) W'R2``,
    ``[h_e b; I] = Q2 R2`` from the start, the rest filled on first use (a race at worst fills a
    field twice, with equal bits).  It hands out read-only arrays, and holds no caller's.

    That kernel is the problem's only one, and the solve's QL of it (:func:`decomp._kernel_ql`)
    the only triangularization: ``(W'R2) va`` is upper triangular, so ``P = va[:, :lb]`` has
    ``(W'R2)[lb:] P = 0``, and ``[h_b b P; P] = U[:, :lb] diag(mu[:lb]) X``, ``[h_e b P; P] = Q2
    W[:, :lb] X`` are QRs with ``X = (W'R2)[:lb] P``.  ``plans`` holds the wiretap plans
    :mod:`scheme` built, by mode."""

    def __init__(self, key, h_b, h_e, k):
        self.key, self.channels = key, (h_b.copy("K"), h_e.copy("K"))
        self.root = _root(k)
        self.mmse_pair = _mmse_pair(h_b, h_e, self.root)
        self.kernel = _gsvd_kernel(*self.mmse_pair, check=False)
        self.plans = {}
        _freeze(self.root, *self.mmse_pair, *self.kernel[:2], *self.kernel[3:])

    @cached_property
    def capacity(self):
        # ``capacity_bits`` and ``lb``, for the capacity call, the region and the broadcast plan.
        return _capacity(self.kernel[0])

    @cached_property
    def solved(self):
        # The result, ``f = b [0, va[:, :lb]]`` (``f f' = k_star``, inactive columns exactly 0)
        # and the kernel's QL ``(va, mu d, d)``, by ``_optimal``.
        return _optimal(self.root, *self.capacity, *self.kernel)

    @cached_property
    def k_star_pair(self):
        return _freeze(*_mmse_pair(*self.channels, self.solved[1]))

    @cached_property
    def k_star_svd(self):
        # Bob's thin SVD of ``[h_b f; I]``, which ``svd_bob`` and ``gmd_bob`` share.
        return _freeze(*np.linalg.svd(self.k_star_pair[0], full_matrices=False))


def _problem(h_b, h_e, kbar, name):
    # The kept problem if its key matches, else a new one, kept once built: never one that
    # raises.  A kept ``kbar`` passed its check, so only a new one is checked, as ``name``.
    global _last
    k = np.asarray(kbar, dtype=complex)
    h_b, h_e = np.asarray(h_b, dtype=complex), np.asarray(h_e, dtype=complex)
    key = (h_b.shape, h_b.tobytes(), h_e.shape, h_e.tobytes(), k.shape, k.tobytes())
    if (last := _last) and last.key == key:
        return last
    _last = problem = _Problem(key, h_b, h_e, _as_square(k, name))
    return problem


def channel_gsv(h_b, h_e, k):
    """Channel-pair GSVs: the GSVs of the two effective MMSE matrices.

    ``k`` is one ``(n, n)`` covariance, giving ``n`` values, or a
    ``(B, n, n)`` stack, giving ``(B, n)`` values; each row equals the call
    on its own covariance bit for bit, and one stacked call costs far less
    than ``B`` single ones.
    """
    k = np.asarray(k, dtype=complex)
    if k.ndim == 2:
        return _problem(h_b, h_e, k, "covariance").kernel[0]
    return _factor_kernel(h_b, h_e, matrix_sqrt(k))[0]


def secrecy_capacity_cov(h_b, h_e, kbar):
    """Secrecy capacity under the covariance constraint ``kbar``.

    The capacity sums the log of the squared channel-pair GSVs of the
    constraint itself over the ``lb`` active streams, those with ``mu^2 > 1 +
    LB_GSV_TOL``, read off the GSVD kernel ``g_b = U diag(mu) W' R2`` of the
    effective MMSE matrices (so ``gsv`` equals :func:`channel_gsv` bit for
    bit).  The optimal covariance and every plan keep those ``lb`` directions
    and no other, so the plans' secret rates sum to it: the kernel's one QL,
    which the ``gsvd`` and broadcast plans read, makes ``(W' R2) va`` upper
    triangular, so ``P = va[:, :lb]`` spans the null space of rows ``lb:``
    of ``W' R2``, and ``k_star = (b P)(b P)'`` with ``b`` the root of ``kbar``.
    """
    return _problem(h_b, h_e, kbar, "constraint").solved[0]


def _optimal(b, capacity, lb, mu, u, q2, wh, r2):
    ql = _freeze(*_kernel_ql(mu, wh @ r2))
    active = b @ ql[0][:, :lb]
    f = np.zeros(b.shape, dtype=complex)
    f[:, mu.size - lb:] = active
    k_star = _hermitize(active @ _adjoint(active))
    _freeze(k_star, f)
    return SecrecyResult(gsv=mu, lb=lb, capacity_bits=capacity, k_star=k_star), f, ql


def verify_truncation(h_b, h_e, kbar):
    """Check that the optimal covariance clips the GSVs at 1.

    The GSVs under ``k_star`` must match those under the constraint for the
    active streams and equal 1 for the rest; deviations are reported, not
    raised.
    """
    res = secrecy_capacity_cov(h_b, h_e, kbar)
    truncated = channel_gsv(h_b, h_e, res.k_star)
    expected = np.where(np.arange(truncated.size) < res.lb, res.gsv, 1.0)
    deviation = float(np.max(np.abs(truncated - expected)))
    return TruncationReport(ok=deviation <= _TRUNCATION_TOL, max_deviation=deviation,
                            lb=res.lb, gsv_constraint=res.gsv, gsv_truncated=truncated)


def _sample_below(b, rng, count):
    # ``count`` random Hermitian contractions (Haar eigenbasis, eigenvalues
    # uniform on [0, 1]) sandwiched between square-root factors of the
    # constraint: all the Gaussians of the stack are drawn, then all its
    # uniforms.
    n = b.shape[0]
    q = haar_unitary(n, rng, count)
    w = (q * rng.uniform(0.0, 1.0, (count, n))[:, None, :]) @ _adjoint(q)
    return _hermitize(b @ w @ _adjoint(b))


def sample_constrained_covariance(kbar, rng):
    """Draw a covariance in the order interval between 0 and ``kbar``."""
    kbar = _as_square(kbar, "constraint")
    return _sample_below(matrix_sqrt(kbar), rng, 1)[0]


def gsv_monotonicity_check(h_b, h_e, kbar, samples, seed):
    """Sample covariances below the constraint; log-GSVs must shrink.

    For every sampled ``k`` in the order interval the i-th sorted
    ``|log gsv|`` under the constraint must dominate the one under ``k``
    (slack 1e-8); violations are reported with a witness, the first sample
    of the largest violation.  Samples are drawn and evaluated as stacks of
    up to ``STACK_CHUNK``: each stack's Haar unitaries come from one block
    of Gaussians and one stacked QR, then its uniform eigenvalues follow.
    """
    if samples < 1:
        raise DomainError("at least one sample is required")
    problem = _problem(h_b, h_e, kbar, "constraint")
    reference = np.abs(np.log2(problem.kernel[0]))
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    witness = None
    for start in range(0, samples, STACK_CHUNK):
        ks = _sample_below(problem.root, rng, min(STACK_CHUNK, samples - start))
        slack = np.min(reference - np.abs(np.log2(channel_gsv(h_b, h_e, ks))), axis=-1)
        violations += int(np.sum(slack < -1e-8))
        i = np.argmin(slack)
        if slack[i] < -1e-8 and -slack[i] > worst:
            worst = float(-slack[i])
            witness = ks[i]
    return MonotonicityReport(
        ok=violations == 0,
        samples=samples,
        violations=violations,
        max_violation=worst,
        witness=witness,
    )


def _broadcast_problem(h_b, h_c, kbar):
    # A broadcast pair's problem, refused (see :func:`broadcast_region`) if a GSV was lost to 0.
    problem = _problem(h_b, h_c, kbar, "covariance")
    if not problem.kernel[0][-1] > 0.0:  # the smallest
        raise DomainError("a channel-pair GSV is out of range: the kernel lost it to 0")
    return problem


def broadcast_region(h_b, h_c, kbar):
    """Rectangular capacity region of the two-user confidential broadcast.

    The first corner sums the log-squared GSVs of the active streams, as the
    secrecy capacity does, the second the negative ones, read off the capacity
    call's root and GSVD kernel of the problem; swapping the channel roles
    inverts the GSVs and swaps the corners.  A GSV
    lost to 0 (``[h b; I]`` has full rank, so all are positive) raises :class:`DomainError`.
    """
    problem = _broadcast_problem(h_b, h_c, kbar)
    mu = problem.kernel[0]
    return BroadcastRegion(
        rb_max=problem.capacity[0],
        rc_max=float(np.sum(np.maximum(-2.0 * np.log2(mu), 0.0))),
        gsv=mu,
    )


def scalar_secrecy_capacity(h_b, h_e):
    """Single-antenna unit-power secrecy capacity in bits."""
    gain = (1.0 + abs(h_b) ** 2) / (1.0 + abs(h_e) ** 2)
    return max(0.0, float(np.log2(gain)))


def _overflow(kind, flag):
    raise DomainError("total power is out of range: the power search's factors overflow a double")


def power_constrained_capacity(h_b, h_e, power, budget=400, seed=0):
    """Best-effort secrecy capacity under a total power constraint.

    Maximizes the covariance-constrained capacity over trace-``power``
    constraints by random restarts plus a local (1+1) evolution search.
    Each candidate is a factor ``f`` with ``|f|_F^2 = power``, ranked by
    ``sum max(2 log2 gsv, 0)`` over the GSVs of ``[h_b f; I]``, ``[h_e f;
    I]``, which are those of ``f f'``, so no candidate is rooted: they are read
    off the channels' ``n x n`` R factors, by one stacked triangular QR of both
    ``[R f; I]``, one solve and singular values alone per stack.  From the
    start ``sqrt(power / n) I``, ``budget // 4`` random restarts are ranked
    in stacks, then steps around the incumbent factor, ranked speculatively
    in stacks as if each failed; the result equals a one-at-a-time search's.
    ``kbar`` is the best ``f f'`` at trace ``power``, made Hermitian, or
    exactly ``I power / n`` if nothing beats the start or rounding would put
    the bound below it.  The bound is the capacity of ``kbar`` by
    :func:`secrecy_capacity_cov`, the search's only root, so it re-evaluates
    bit for bit.  ``evaluations`` equals ``budget``; a larger budget can end
    lower, as it shifts the random stream of the steps.  A power past half
    the double range, or overflowing the search, raises :class:`DomainError`.
    """
    if isinstance(power, bool) or not isinstance(power, (int, float, np.integer, np.floating)) \
            or not 0 < power < np.inf:
        raise DomainError("total power must be a positive finite number")
    h_b, h_e = _as_matrix(h_b, "h_b"), _as_matrix(h_e, "h_e")
    if h_b.shape[1] != h_e.shape[1]:
        raise DomainError("h_b and h_e must be 2-D with the same number of columns")
    if isinstance(budget, bool) or not isinstance(budget, (int, np.integer)) or budget < 1:
        raise DomainError("budget must be at least 1 and an integer")
    if power > np.finfo(float).max / 2.0:  # ``kbar + kbar'`` doubles entries up to ``power``
        _overflow("overflow", None)
    with np.errstate(over="call", invalid="call", call=_overflow):
        return _power_search(h_b, h_e, power, budget, seed)


def _power_search(h_b, h_e, power, budget, seed):
    # The search of :func:`power_constrained_capacity` on its checked arguments.
    n = h_b.shape[1]
    rng = np.random.default_rng(seed)
    # The start and its factor, which is ``matrix_sqrt`` of the start bit for bit.
    isotropic = np.eye(n, dtype=complex) * (power / n)
    iso_f = np.eye(n, dtype=complex) * np.sqrt(power / n)

    # The start is ranked by the certifying call's kernel and sum, so a bound that falls back to
    # it re-evaluates bit for bit.  Candidates are ranked by ``sum 2 log2 max(mu, 1)``, which is
    # ``sum max(2 log2 mu, 0)`` with no log of 0.
    start_c = best_c = _capacity(_factor_kernel(h_b, h_e, iso_f)[0])[0]
    best_f, evaluations, rs = iso_f, 1, _square_pair(h_b, h_e)

    def normalized(f):
        # Factors scaled to squared Frobenius norm ``power``; an all-zero one maps to ``iso_f``.
        # The norm is taken of ``|f| s``, ``s`` the power of two putting the top entry in [1, 2):
        # exact, so the bits are the plain norm's, yet no square overflows (and ``norm2 >= 1``).
        a = np.abs(f)
        s = np.ldexp(1.0, 1 - np.frexp(a.max(axis=(-2, -1), keepdims=True))[1])
        norm2 = np.square(a * s).sum(axis=(-2, -1), keepdims=True)
        scaled = f * (s * np.sqrt(power / np.maximum(norm2, 1.0)))
        return scaled if norm2.all() else np.where(norm2 > 0.0, scaled, iso_f)

    def consider(fs, first=False):
        # Rank a factor, or a stack of them in order (with ``first``, only up to the first
        # improvement).  Returns the index of the last improvement, or -1.
        nonlocal best_c, best_f, evaluations
        fs = fs.reshape(-1, n, n)
        try:
            mu = _candidate_gsv(rs, fs)
        except DomainError:
            # A candidate past the first improvement must not fail the
            # stack: take the candidates one at a time instead.
            if not first or len(fs) == 1:
                raise
            return next((i for i, f in enumerate(fs) if consider(f) >= 0), -1)
        last = -1
        for i, c in enumerate(np.sum(2.0 * np.log2(np.maximum(mu, 1.0)), axis=-1)):
            evaluations += 1
            if c > best_c:
                best_c, best_f, last = c, fs[i], i
                if first:
                    break
        return last

    # Beamforming along the strongest generalized eigendirection of the two
    # links is the natural single-stream candidate.  A Gram that overflows
    # makes the pencil non-finite, and ``eig`` skips the candidate.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            pencil = np.linalg.solve(np.eye(n) + h_e.conj().T @ h_e,
                                     np.eye(n) + h_b.conj().T @ h_b)
        w, vecs = np.linalg.eig(pencil)
        if evaluations < budget:
            consider(normalized(np.outer(vecs[:, np.argmax(np.real(w))], np.eye(1, n)[0])))
    except np.linalg.LinAlgError:
        pass

    # Exploration: random factors, each drawn as its real then its imaginary part.
    explore = max(0, min(budget - evaluations, budget // 4))
    for start in range(0, explore, STACK_CHUNK):
        z = rng.standard_normal((min(STACK_CHUNK, explore - start), 2, n, n))
        consider(normalized(z[:, 0] + 1j * z[:, 1]))

    # Refinement: (1+1) evolution steps around the incumbent factor with an adapted size.  A
    # step's noise, and its size while none succeeds, do not depend on the incumbent, so the next
    # ``_REFINE_BATCH`` are ranked as one stack.  Noise is drawn in stream order, ``STACK_CHUNK``
    # steps at most at a time, and ``noise[used:]``, drawn past the first improvement, is kept.
    step, scale = 0.5, np.sqrt(power / (2.0 * n))
    noise, used = np.empty((0, n, n), dtype=complex), 0
    while evaluations < budget:
        width = min(_REFINE_BATCH, budget - evaluations)
        if len(noise) - used < width:
            z = rng.standard_normal((min(STACK_CHUNK, budget - evaluations), 2, n, n))
            noise, used = np.concatenate([noise[used:], z[:, 0] + 1j * z[:, 1]]), 0
        steps = np.empty(width)
        for j in range(width):
            steps[j] = step
            step = min(max(step * 0.87, 1e-9), 2.0)
        moves = (steps * scale)[:, None, None] * noise[used:used + width]
        hit = consider(normalized(best_f + moves), first=True)
        if hit >= 0:
            step = min(max(steps[hit] * 1.8, 1e-9), 2.0)
        used += hit + 1 if hit >= 0 else width

    # Improvements are strict, so ``best_c > start_c`` exactly when one was found.  A marginal
    # one can re-evaluate below the start by rounding; the start is kept then.
    k = best_f @ _adjoint(best_f)
    kbar = _hermitize(k * (power / np.real(np.trace(k)))) if best_c > start_c else isotropic
    bound = secrecy_capacity_cov(h_b, h_e, kbar).capacity_bits
    if bound < start_c:
        kbar, bound = isotropic, start_c
    return PowerSearchResult(capacity_lower_bound=bound, kbar=kbar, evaluations=evaluations)
