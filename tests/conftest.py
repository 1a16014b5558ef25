import numpy as np
import pytest
from hypothesis import settings

from wtd import decomp

#: ``--hypothesis-profile=long``: the generated CLI contract test runs this many
#: examples instead of its few seconds' worth.
settings.register_profile("long", max_examples=1500)


def complex_gaussian(rng, rows, cols):
    """Random complex matrix with i.i.d. CN(0, 1) entries."""
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_psd(rng, n, rank=None):
    """Random Hermitian PSD matrix of the given size (full rank by default)."""
    r = rank if rank is not None else n
    f = complex_gaussian(rng, n, r)
    return f @ f.conj().T


def rel_residual(actual, target):
    denom = np.linalg.norm(target)
    return np.linalg.norm(actual - target) / (denom if denom > 0 else 1.0)


def assert_unitary(q, atol=1e-9):
    gram = q.conj().T @ q
    assert np.max(np.abs(gram - np.eye(q.shape[0]))) <= atol


def assert_exact_upper_triangular(t):
    m, n = t.shape
    below = np.tril(np.ones((m, n)), -1).astype(bool)
    assert np.all(t[below] == 0.0)


def ql_product_gsvd(a1, a2):
    """Triangular GSVD by the QL-product route, independent of ``joint_triangularize``:
    a QL ``x = va @ l`` of the diagonal form's ``x`` gives ``a_k = u_k @ (l_k @ l') @ va'``."""
    f = decomp.gsvd_diagonal(a1, a2)
    q = decomp.ql(f.x)
    t1, t2 = f.l1 @ q.l.conj().T, f.l2 @ q.l.conj().T
    return decomp.JointTriangularization(u1=f.u1, u2=f.u2, va=q.u, t1=t1, t2=t2,
                                         diag1=np.real(np.diag(t1)), diag2=np.real(np.diag(t2)))


def count_calls(monkeypatch, module, names):
    """Wrap the functions ``names`` of ``module``; the returned list gets the name of
    each call."""
    calls = []
    for name in names:
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def conditional_mi_bits(cov, idx_a, idx_b, idx_c):
    """I(a; b | c) in bits of circularly-symmetric Gaussians, from per-subset
    ``slogdet`` calls; zero-variance coordinates are dropped."""
    variances = np.real(np.diag(cov))
    alive = variances > 1e-15 * max(variances.max(), 1.0)

    def logdet(indices):
        key = [i for i in indices if alive[i]]
        sub = cov[np.ix_(key, key)]
        return np.linalg.slogdet((sub + sub.conj().T) / 2.0)[1] if key else 0.0

    return (logdet(idx_a + idx_c) + logdet(idx_b + idx_c)
            - logdet(idx_a + idx_b + idx_c) - logdet(idx_c)) / np.log(2.0)


def dpc_oracle(plan, h_e):
    """``I(u_k; y_k)``, ``I(u_k; y_e | later u)`` and ``I(u_k; y_e, later u)``
    per stream of a DPC plan, from per-subset ``slogdet`` calls on covariances
    of factor rows over white ``(x, z)``: ``u = m x`` with ``y_k`` the rows
    ``[t u']`` of Bob's combined output, and ``y_e = f_e x + z_e``."""
    base = plan.base
    n = base.num_streams
    m = np.triu(base.t_tilde, 1) * plan.alpha[:, None]
    m[np.arange(n), np.arange(n)] = np.diag(base.t_tilde)
    f_e = np.asarray(h_e, dtype=complex) @ base.b_sqrt @ base.va
    n_e = f_e.shape[0]
    eav = list(range(n, n + n_e))
    rows_b = np.block([[m, np.zeros_like(base.u_tilde.T)], [base.t_tilde, base.u_tilde.conj().T]])
    rows_e = np.block([[m, np.zeros((n, n_e))], [f_e, np.eye(n_e)]])
    cov_b, cov_e = rows_b @ rows_b.conj().T, rows_e @ rows_e.conj().T
    rates_u, fictitious, leakage = np.empty((3, n))
    for k in range(n):
        tail = list(range(k + 1, n))
        rates_u[k] = conditional_mi_bits(cov_b, [k], [n + k], [])
        fictitious[k] = conditional_mi_bits(cov_e, [k], eav, tail)
        leakage[k] = conditional_mi_bits(cov_e, [k], eav + tail, [])
    return rates_u, fictitious, leakage


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
