"""Unitary single- and joint-matrix triangularizations.

Covers QR/QL, SVD, the generalized triangular decomposition (GTD) with a
prescribed diagonal, the geometric mean decomposition (GMD), generalized
singular values, the GSVD in diagonal and triangular form, and joint
triangularization of a matrix pair under an arbitrary right unitary factor.

Conventions used throughout:

* only full-column-rank matrices with at least as many rows as columns are
  accepted;
* triangular factors carry strictly positive real diagonals, with phases
  absorbed into the unitary factors;
* triangular shape is exact: entries below the diagonal are stored as
  zeros, not left as rounding noise.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MajorizationError, NumericalFailure, RankDeficient

#: Relative tolerance for reconstruction residuals guaranteed by this module.
RECONSTRUCTION_RTOL = 1e-9
#: Relative slack used when testing multiplicative majorization.
MAJORIZATION_RTOL = 1e-9
#: Diagonal entries below ``RANK_RTOL * ||A||_2`` flag rank deficiency.
RANK_RTOL = 1e-12

_UNITARY_ATOL = 1e-8
#: The ``n x n`` boolean masks below the diagonal, by ``n``.
_STRICTLY_LOWER = functools.cache(lambda n: np.tri(n, n, -1, dtype=bool))
#: The refusal of a GSVD precoder whose kernel or QL overflows a double (see :func:`_range_rule`).
_GSVD_RANGE = "problem is out of range: its GSVD precoder overflows a double"


@dataclass(frozen=True)
class GtdFactors:
    """Factors ``a = u @ t @ v.conj().T`` with generalized upper-triangular t."""

    u: np.ndarray
    t: np.ndarray
    v: np.ndarray

    @property
    def diagonal(self):
        """Real positive diagonal of the triangular factor."""
        return np.real(np.diag(self.t))

    def reconstruct(self):
        return self.u @ self.t @ self.v.conj().T


@dataclass(frozen=True)
class QlFactors:
    """Factors ``a = u @ l`` with lower-triangular l and positive diagonal."""

    u: np.ndarray
    l: np.ndarray

    @property
    def diagonal(self):
        return np.real(np.diag(self.l))

    def reconstruct(self):
        return self.u @ self.l


@dataclass(frozen=True)
class GsvdDiagonalFactors:
    """Diagonal-form GSVD ``a_k = u_k @ l_k @ x.conj().T``.

    ``l1`` and ``l2`` are generalized diagonal with positive diagonals
    normalized so that ``l1'l1 + l2'l2 = I``; the diagonal ratios are the
    generalized singular values in non-increasing order.
    """

    u1: np.ndarray
    u2: np.ndarray
    x: np.ndarray
    l1: np.ndarray
    l2: np.ndarray

    @property
    def gsv(self):
        return np.real(np.diag(self.l1)) / np.real(np.diag(self.l2))


@dataclass(frozen=True)
class JointTriangularization:
    """Shared-right-unitary triangularization of a matrix pair.

    ``a_k = u_k @ t_k @ va.conj().T`` with both ``t_k`` generalized upper
    triangular; ``diag1`` and ``diag2`` are their positive diagonals.
    """

    u1: np.ndarray
    u2: np.ndarray
    va: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    diag1: np.ndarray
    diag2: np.ndarray

    @property
    def diag_ratios(self):
        return self.diag1 / self.diag2


def _as_matrix(a, name="matrix", stacked=False):
    # ``stacked`` also admits a (..., m, n) stack of matrices.
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-2] < 1 or a.shape[-1] < 1:
        raise DomainError(f"{name} must be a 2-D array with positive dimensions")
    if not np.isfinite(a).all():
        raise DomainError(f"{name} entries must be finite")
    return a


def _require_tall(a, name="matrix"):
    if a.shape[-2] < a.shape[-1]:
        raise DomainError(f"{name} must have at least as many rows as columns")


def require_unitary(q, name="matrix"):
    """Validate that ``q`` is square and unitary within ``_UNITARY_ATOL``."""
    q = _as_matrix(q, name)
    if q.shape[0] != q.shape[1]:
        raise DomainError(f"{name} must be square to be unitary")
    gram = q.conj().T @ q
    if np.max(np.abs(gram - np.eye(q.shape[0]))) > _UNITARY_ATOL:
        raise DomainError(f"{name} is not unitary within {_UNITARY_ATOL:g}")
    return q


def _range_rule(message):
    """The range rule of a solve: inside it, a step that overflows a double or makes an invalid
    value raises :class:`DomainError` with ``message``, where numpy would warn and answer with an
    inf or a NaN."""
    def refuse(kind, flag):
        raise DomainError(message)
    return np.errstate(over="call", invalid="call", call=refuse)


def _diagonal_phases(d):
    """Unit phases of ``d`` (1 where zero) and the diagonal ``|d conj(phases)|``."""
    mag = np.abs(d)  # a plain divide, the masked one's bits, when no entry is 0
    phases = d / mag if mag.all() else np.divide(d, mag, out=np.ones_like(d), where=mag > 0.0)
    return phases, np.abs(d * phases.conj())


def _positive_diagonal(u, t):
    """Rescale so diag(t) is real positive, absorbing phases into u columns, in place.  A factor
    that is not finite is refused: LAPACK returns one, with no error, when a Householder vector
    overflows a double (a column of 1e308 entries)."""
    if not (np.isfinite(u).all() and np.isfinite(t).all()):
        raise DomainError("matrix is out of range: "
                          "a Householder vector of its QR overflows a double")
    k = min(t.shape)
    # The stored diagonal is |d conj(d/|d|)|, not |d|: it is read off the
    # diagonal after the phase fix (a view of t), and differs from |d| in the
    # last bit on some inputs.
    phases, diag = _diagonal_phases(np.diag(t)[:k])
    t[:k, :] *= phases.conj()[:, None]
    u[:, :k] *= phases[None, :]
    t[np.arange(k), np.arange(k)] = diag
    return u, t


def _check_rank(a, diag, name="matrix"):
    # ||a||_2 <= ||a||_F, so clearing twice the threshold at ||a||_F passes (an inf or 0 never).
    with np.errstate(over="ignore"):
        frobenius = np.linalg.norm(a, axis=(-2, -1))
    if not (diag.min(axis=-1) > 2.0 * RANK_RTOL * frobenius).all():
        _check_full_rank(diag, np.linalg.norm(a, 2, axis=(-2, -1)), name)


def _qr_diagonal(a):
    """``qr(a).diagonal`` and ``qr(a).u[:, :n]``, bit for bit (a thin Q flips signed zeros)."""
    q, r = np.linalg.qr(a, mode="complete")
    phases, diag = _diagonal_phases(np.diag(r))
    return diag, q[:, :diag.size] * phases


def _check_full_rank(diag, scale, name="matrix"):
    # Per matrix of a stack: ``diag`` is (..., n) and ``scale`` is (...).
    scale = np.asarray(scale)
    low = diag.min(axis=-1)
    threshold = RANK_RTOL * scale
    deficient = (scale == 0.0) | (low <= threshold)
    if deficient.any():
        i = deficient.argmax()
        raise RankDeficient(f"{name} is rank deficient (diagonal {low.flat[i]:.3e} "
                            f"vs threshold {threshold.flat[i]:.3e})")


def qr(a):
    """QR decomposition, returned as :class:`GtdFactors` with ``v = I``.

    The triangular factor has a strictly positive real diagonal; a diagonal
    entry below ``1e-12 * ||a||_2`` raises :class:`RankDeficient`, and a
    factor past the double range :class:`DomainError`.
    """
    a = _as_matrix(a)
    _require_tall(a)
    u, t = _positive_diagonal(*np.linalg.qr(a, mode="complete"))
    t = np.triu(t)
    _check_rank(a, np.real(np.diag(t)))
    return GtdFactors(u=u, t=t, v=np.eye(a.shape[1], dtype=complex))


def ql(a):
    """QL decomposition ``a = u @ l`` with lower-triangular ``l``.

    Equivalent to Gram-Schmidt over the columns from last to first.  For a
    tall input the nonzero block of ``l`` sits in the top ``n`` rows.  The
    checks are those of :func:`qr`.
    """
    a = _as_matrix(a)
    _require_tall(a)
    m, n = a.shape
    q, r = np.linalg.qr(a[:, ::-1], mode="complete")
    l = np.zeros((m, n), dtype=complex)
    l[:n, :] = np.tril(r[:n, ::-1][::-1, :])
    u = np.concatenate([q[:, :n][:, ::-1], q[:, n:]], axis=1)
    u, l = _positive_diagonal(u, l)
    _check_rank(a, np.real(np.diag(l)))
    return QlFactors(u=u, l=l)


def svd(a):
    """Singular value decomposition as :class:`GtdFactors` with diagonal t."""
    a = _as_matrix(a)
    _require_tall(a)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    return GtdFactors(u=u, t=np.eye(*a.shape, dtype=complex) * s, v=vh.conj().T)


def _first_majorization_violation(x, y, rel_tol):
    """Return the 1-based first violating prefix length, or None if x >= y."""
    # Prefix-sum gaps of sorted log(x) over sorted log(y), both descending.
    gaps = np.cumsum(np.sort(np.log(x))[::-1]) - np.cumsum(np.sort(np.log(y))[::-1])
    for ell in range(len(gaps) - 1):
        if gaps[ell] < -rel_tol:
            return ell + 1
    if abs(gaps[-1]) > rel_tol:
        return len(gaps)
    return None


def majorizes(x, y, rel_tol=MAJORIZATION_RTOL):
    """Multiplicative majorization test ``x >= y``.

    True iff the sorted prefix products of ``x`` dominate those of ``y`` and
    the total products agree to relative ``rel_tol``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise DomainError("majorization needs two equal-length 1-D vectors")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise DomainError("majorization is defined for positive entries only")
    return _first_majorization_violation(x, y, rel_tol) is None


def _gtd_schedule(sigma, target):
    """The GTD construction planned on the diagonal ``sigma`` alone.

    Step ``k`` swaps streams so that positions ``k, k + 1`` bracket
    ``target[k]`` (the smallest entry >= it and the largest below it, larger
    first), then a 2x2 rotation, ``g2 = [[c, -s], [s, c]]`` on the columns and
    ``g1 = [[p, -q], [q, p]]`` on the rows, puts ``target[k]`` at ``k`` and
    ``d1 d2 / teff`` at ``k + 1``.  Both rotations are applied to the columns
    ``k, k + 1`` of two real identities, ``r2`` and ``r1``, kept as lists of
    columns that swap with the streams.  Returns ``r1``, ``r2`` and ``d``, by
    position: ``r1' diag(sigma) r2`` is upper triangular with diagonal ``d``.
    """
    d = [float(x) for x in sigma]
    n = len(d)
    r2 = [[float(i == j) for i in range(n)] for j in range(n)]
    r1 = [col[:] for col in r2]

    def swap(i, j):
        d[i], d[j] = d[j], d[i]
        r1[i], r1[j], r2[i], r2[j] = r1[j], r1[i], r2[j], r2[i]

    for k in range(n - 1):
        tk = float(target[k])
        rest = range(k, n)
        above = [i for i in rest if d[i] >= tk]
        p = min(above, key=d.__getitem__) if above else max(rest, key=d.__getitem__)
        below = [i for i in rest if d[i] < tk and i != p]
        q = (max(below, key=d.__getitem__) if below
             else min((i for i in rest if i != p), key=lambda i: abs(d[i] - tk)))
        swap(k, p)
        swap(k + 1, p if q == k else q)
        if d[k] < d[k + 1]:
            swap(k, k + 1)
        # Scaled by a power of two from d[k], which is exact, so the squares
        # neither overflow nor underflow.
        e = math.frexp(d[k])[1]
        d1, d2, tk = math.ldexp(d[k], -e), math.ldexp(d[k + 1], -e), math.ldexp(tk, -e)
        if d1 - d2 <= 1e-13 * d1:
            c, s = 1.0, 0.0
        else:
            c2 = (tk * tk - d2 * d2) / (d1 * d1 - d2 * d2)
            c = math.sqrt(min(max(c2, 0.0), 1.0))
            s = math.sqrt(max(1.0 - c * c, 0.0))
        teff = math.hypot(d1 * c, d2 * s)
        d[k], d[k + 1] = math.ldexp(teff, e), math.ldexp(d1 * d2 / teff, e)
        for r, x, y in ((r2, c, s), (r1, d1 * c / teff, d2 * s / teff)):
            r[k], r[k + 1] = ([ca * x + cb * y for ca, cb in zip(r[k], r[k + 1])],
                              [cb * x - ca * y for ca, cb in zip(r[k], r[k + 1])])
    return np.array(r1).T, np.array(r2).T, np.array(d)


def _gtd_factors(f, target):
    """The GTD of the SVD ``f``: ``u[:, :n] r1``, ``v r2`` and ``t``, the upper triangle of ``[r1'
    diag(sigma) r2; 0]`` with the schedule's diagonal ``d`` on it."""
    sigma = f.diagonal
    n = sigma.size
    r1, r2, d = _gtd_schedule(sigma, target)
    t = np.eye(*f.t.shape, dtype=complex) * d
    t[:n] += np.triu((r1.T * sigma) @ r2, 1)
    return GtdFactors(u=np.concatenate([f.u[:, :n] @ r1, f.u[:, n:]], axis=1), t=t, v=f.v @ r2)


def gtd(a, t):
    """Generalized triangular decomposition with prescribed diagonal ``t``.

    Exists iff the singular values of ``a`` multiplicatively majorize ``t``;
    otherwise :class:`MajorizationError` reports the first violating prefix.
    The construction rotates the SVD's ``u`` and ``v`` by two real factors,
    accumulated from 2x2 rotations planned on the singular values alone.
    """
    a = _as_matrix(a)
    _require_tall(a)
    target = np.asarray(t, dtype=float)
    n = a.shape[1]
    if target.shape != (n,):
        raise DomainError(f"target diagonal must have length {n}")
    if np.any(target <= 0.0):
        raise DomainError("target diagonal entries must be positive")

    f = svd(a)
    sigma = f.diagonal
    _check_full_rank(sigma, sigma[0] if sigma.size else 0.0)
    violation = _first_majorization_violation(sigma, target, MAJORIZATION_RTOL)
    if violation is not None:
        raise MajorizationError(
            f"singular values do not majorize the target diagonal "
            f"(first violating prefix length {violation})",
            prefix_index=violation)
    return _gtd_factors(f, target)


def _geometric_mean_target(sigma):
    return np.full(sigma.size, np.exp(np.log(sigma).sum() / sigma.size))  # np.mean's bits


def gmd(a):
    """Geometric mean decomposition: GTD with a constant diagonal, from one SVD."""
    f = svd(a)
    sigma = f.diagonal
    _check_full_rank(sigma, sigma[0] if sigma.size else 0.0)
    return _gtd_factors(f, _geometric_mean_target(sigma))


def _check_pair(a1, a2, stacked=False):
    a1 = _as_matrix(a1, "first matrix", stacked)
    a2 = _as_matrix(a2, "second matrix", stacked)
    if a1.shape[:-2] != a2.shape[:-2]:
        raise DomainError("matrix pair stacks must have the same shape")
    if a1.shape[-1] != a2.shape[-1]:
        raise DomainError("matrix pair must share the column count")
    _require_tall(a1, "first matrix")
    _require_tall(a2, "second matrix")
    return a1, a2


def _gsvd_kernel(a1, a2, left=False, check=True):
    """Paige-Saunders GSVD core: a QR of ``a2``, then an SVD of ``a1 R2^-1``.

    With ``a2 = Q2 [R2; 0]`` and ``a1 R2^-1 = U diag(mu) W'``, the pair is
    ``a1 = U diag(mu) W' R2`` and ``a2 = Q2[:, :n] W W' R2``.  No Gram matrix
    is formed, so the error grows with cond(R2), not its square.  Returns
    ``(mu, U, Q2, W', R2)`` with ``mu`` non-increasing.  Only ``left`` (the
    diagonal form) computes the complete ``Q2`` and square ``U``; otherwise
    ``Q2`` is None and ``U`` the thin one, from the ``raw`` QR (R transposed,
    with reflectors below its diagonal that a cached mask zeroes) and the thin
    SVD, which give the same ``R2``, ``mu`` and ``W'``.  Both inputs may be
    ``(..., m, n)`` stacks of the same shape; every factor then gains the
    leading axes, and the rank check, which ``check=False`` skips, runs per
    pair.  The SVD computes ``U`` even when only ``mu`` is used: on a stack,
    the values-only SVD differs from the per-pair call in the last bits.
    """
    n = a2.shape[-1]
    q2, r2 = np.linalg.qr(a2, mode="complete") if left else (None, np.where(
        _STRICTLY_LOWER(n), 0.0, np.linalg.qr(a2, mode="raw")[0][..., :n].swapaxes(-1, -2)))
    r2 = r2[..., :n, :]
    if check:
        _check_rank(a2, np.abs(r2.diagonal(0, -2, -1)), "second matrix of the pair")
    c = np.linalg.solve(r2.swapaxes(-1, -2), a1.swapaxes(-1, -2)).swapaxes(-1, -2)
    u, mu, wh = np.linalg.svd(c, full_matrices=left)
    return mu, u, q2, wh, r2


def gsv_values(a1, a2):
    """Generalized singular values of the pair, non-increasing.

    They are the singular values of ``a1 R2^-1``, where ``R2`` is the
    triangular QR factor of ``a2``; :class:`RankDeficient` is raised when
    ``a2`` does not have full column rank.  ``a1`` and ``a2`` may also be
    ``(..., m, n)`` stacks of the same shape, giving ``(..., n)`` values
    equal bit for bit to the per-pair calls.
    """
    a1, a2 = _check_pair(a1, a2, stacked=True)
    return _gsvd_kernel(a1, a2)[0]


def _gsv_scale(mu):
    """``sqrt(1 + mu^2)`` of GSVs ``mu >= 0`` with no overflow: it is ``mu`` from ``2^511`` up."""
    m = np.minimum(mu, 2.0 ** 511)
    return np.maximum(np.sqrt(1.0 + m * m), mu)


def gsvd_diagonal(a1, a2):
    """Diagonal-form GSVD of a full-column-rank pair, from one kernel call.

    With the kernel of :func:`gsv_values` and ``s = sqrt(1 + mu^2)`` (by
    :func:`_gsv_scale`): ``u1 = U``, ``u2 = Q2 diag(W, I)``, ``l1 = diag(mu /
    s)``, ``l2 = diag(1 / s)`` and ``x = (W' R2)' diag(s)``.  A rank-deficient
    first matrix (a zero GSV) raises :class:`RankDeficient`.
    """
    a1, a2 = _check_pair(a1, a2)
    _check_rank(a1, np.abs(np.diag(np.linalg.qr(a1, mode="r"))), "first matrix of the pair")
    mu, u, q2, wh, r2 = _gsvd_kernel(a1, a2, left=True)
    scale = _gsv_scale(mu)
    x = (wh @ r2).conj().T * scale[None, :]
    n = mu.size
    u2 = np.concatenate([q2[:, :n] @ wh.conj().T, q2[:, n:]], axis=1)
    l1 = np.eye(u.shape[0], n, dtype=complex) * (mu / scale)
    l2 = np.eye(q2.shape[0], n, dtype=complex) * (1.0 / scale)
    return GsvdDiagonalFactors(u1=u, u2=u2, x=x, l1=l1, l2=l2)


def _kernel_ql(mu, wr):
    """``va`` and the QR diagonals ``mu d``, ``d = diag(l) / s`` of ``a1 va = U diag(mu / s) l'``,
    ``a2 va = (a2 R2^-1 W) diag(1 / s) l'``, from the QL ``x = va @ l`` of a kernel's ``x = (W'
    R2)' diag(s)`` (``wr = W' R2``, ``s`` by :func:`_gsv_scale`; invertible with ``R2``), by
    :func:`_qr_diagonal` of ``x`` reversed; ``va`` is ``ql(gsvd_diagonal(a1, a2).x).u`` bit for
    bit.  Any pair ``a1 = U diag(mu) wr``, ``a2 = Q wr`` (``U``, ``Q`` with orthonormal columns)
    has these."""
    s = _gsv_scale(mu)
    diag, q = _qr_diagonal((wr.conj().T * s[None, :])[:, ::-1])
    d = diag[::-1] / s
    return q[:, ::-1], mu * d, d


def gsvd_triangular(a1, a2):
    """Triangular-form GSVD: the joint triangularization under the GSVD precoder.

    ``va`` is :func:`_kernel_ql` of the pair's rank-checked kernel; the QRs of ``a_k @ va`` by
    :func:`joint_triangularize` (which check the first matrix) have the GSVs as diagonal ratios.
    The capacity solve's QL of ``[h b; I]``'s kernel gives the plans these factors (``u1 = U``,
    ``t1 = [diag(mu / s) l'; 0]``), which reconstructs ``a1`` to about ``eps max(mu) ||R2||``
    (8.5e-13 at GSVs of 1e+-3), not rounding, and ``va[:, :lb]`` spans the optimal covariance.
    A kernel or QL that overflows a double raises :class:`DomainError` (out of range).
    """
    with _range_rule(_GSVD_RANGE):
        mu, _, _, wh, r2 = _gsvd_kernel(*_check_pair(a1, a2))
        va = _kernel_ql(mu, wh @ r2)[0]
    return joint_triangularize(a1, a2, va)


def joint_triangularize(a1, a2, va):
    """Joint triangularization of a pair under a caller-chosen right unitary.

    Both triangular factors are the QR factors of ``a_k @ va``; the product
    of each squared diagonal equals ``det(a_k' a_k)``.
    """
    a1, a2 = _check_pair(a1, a2)
    va = require_unitary(va, "right factor")
    if va.shape[0] != a1.shape[1]:
        raise DomainError("right factor dimension must match the column count")
    f1 = qr(a1 @ va)
    f2 = qr(a2 @ va)
    return JointTriangularization(
        u1=f1.u, u2=f2.u, va=va, t1=f1.t, t2=f2.t,
        diag1=f1.diagonal, diag2=f2.diagonal)


def haar_unitary(n, rng, count=None):
    """Draw an n x n unitary from the Haar distribution.

    With ``count``, draw a ``(count, n, n)`` stack: the real then the
    imaginary Gaussians of each matrix in turn, from one block, then one
    stacked QR.
    """
    shape = () if count is None else (count,)
    z = rng.standard_normal(shape + (2, n, n))
    z = (z[..., 0, :, :] + 1j * z[..., 1, :, :]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
