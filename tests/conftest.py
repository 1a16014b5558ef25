import numpy as np
import pytest

from wtd import decomp


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
