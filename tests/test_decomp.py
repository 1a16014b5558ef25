import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wtd import decomp, scheme, secrecy
from wtd.errors import DomainError, MajorizationError, RankDeficient

from conftest import (
    assert_exact_upper_triangular,
    assert_unitary,
    complex_gaussian,
    ql_product_gsvd,
    random_psd,
    rel_residual,
)


def random_feasible_target(rng, sigma, mixes=6):
    """Random diagonal majorized by sigma: averaging of log-values under a
    random convex combination of permutations (doubly stochastic mixing)."""
    logs = np.log(sigma)
    n = logs.size
    weights = rng.dirichlet(np.ones(mixes))
    mixed = np.zeros(n)
    for w in weights:
        mixed += w * rng.permutation(logs)
    return np.exp(mixed)


class TestQr:
    def test_identity(self):
        f = decomp.qr(np.eye(3))
        assert np.allclose(f.u, np.eye(3), atol=1e-12)
        assert np.allclose(f.t, np.eye(3), atol=1e-12)
        assert np.allclose(f.v, np.eye(3))

    def test_positive_diagonal_matrix(self):
        f = decomp.qr(np.diag([3.0, 2.0]))
        assert np.allclose(f.u, np.eye(2), atol=1e-12)
        assert np.allclose(f.t, np.diag([3.0, 2.0]), atol=1e-12)

    def test_random_rectangular(self, rng):
        a = complex_gaussian(rng, 4, 3)
        f = decomp.qr(a)
        assert rel_residual(f.reconstruct(), a) <= 1e-9
        assert_unitary(f.u)
        assert_exact_upper_triangular(f.t)
        assert np.all(f.diagonal > 0)
        assert np.allclose(f.v, np.eye(3))

    def test_rank_deficient(self, rng):
        col = complex_gaussian(rng, 4, 1)
        a = np.concatenate([col, 2 * col, complex_gaussian(rng, 4, 1)], axis=1)
        with pytest.raises(RankDeficient):
            decomp.qr(a)

    def test_wide_rejected(self, rng):
        with pytest.raises(DomainError):
            decomp.qr(complex_gaussian(rng, 2, 3))


class TestQl:
    def test_identity(self):
        f = decomp.ql(np.eye(2))
        assert np.allclose(f.u, np.eye(2), atol=1e-12)
        assert np.allclose(f.l, np.eye(2), atol=1e-12)

    def test_exchange_matrix(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = decomp.ql(a)
        assert np.allclose(f.diagonal, [1.0, 1.0], atol=1e-12)
        assert np.allclose(np.abs(f.u), a, atol=1e-12)
        assert rel_residual(f.reconstruct(), a) <= 1e-9

    def test_random_square(self, rng):
        a = complex_gaussian(rng, 3, 3)
        f = decomp.ql(a)
        assert rel_residual(f.reconstruct(), a) <= 1e-9
        assert_unitary(f.u)
        above = np.triu(np.ones((3, 3)), 1).astype(bool)
        assert np.all(f.l[above] == 0.0)
        assert np.all(f.diagonal > 0)

    def test_random_tall(self, rng):
        a = complex_gaussian(rng, 5, 3)
        f = decomp.ql(a)
        assert rel_residual(f.reconstruct(), a) <= 1e-9
        assert_unitary(f.u)
        assert np.all(f.diagonal > 0)


def _two_norm_calls(monkeypatch):
    """Record the 2-norms taken through ``np.linalg.norm`` from here on."""
    calls = []
    norm = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


def _diag_tall(d, scale=1.0):
    # 3x2 with singular values ``scale`` and ``scale * d``: ||a||_2 = scale.
    return scale * np.array([[1.0, 0.0], [0.0, d], [0.0, 0.0]])


class TestRankCheck:
    """The threshold is ``RANK_RTOL * ||a||_2``; the 2-norm is taken only
    when the diagonal is not above twice the threshold at ``||a||_F``."""

    def test_clear_margin_takes_no_two_norm(self, monkeypatch, rng):
        calls = _two_norm_calls(monkeypatch)
        decomp.qr(complex_gaussian(rng, 4, 3))
        decomp.ql(complex_gaussian(rng, 4, 3))
        decomp.gsv_values(np.stack([complex_gaussian(rng, 5, 3) for _ in range(6)]),
                          np.stack([complex_gaussian(rng, 4, 3) for _ in range(6)]))
        decomp.gsvd_triangular(complex_gaussian(rng, 5, 3), complex_gaussian(rng, 4, 3))
        assert calls == []

    @pytest.mark.parametrize("fn", [decomp.qr, decomp.ql])
    def test_between_the_bounds_passes_on_the_two_norm(self, monkeypatch, fn):
        # 1.5e-12 is above RANK_RTOL * ||a||_2 = 1e-12 but not above
        # 2 RANK_RTOL ||a||_F, so only the 2-norm can pass it.
        calls = _two_norm_calls(monkeypatch)
        assert np.min(fn(_diag_tall(1.5e-12)).diagonal) > decomp.RANK_RTOL
        assert calls == [(3, 2)]

    @pytest.mark.parametrize("fn", [decomp.qr, decomp.ql])
    @pytest.mark.parametrize("d", [1e-12, 5e-13])
    def test_at_or_below_the_threshold_raises(self, fn, d):
        with pytest.raises(RankDeficient) as info:
            fn(_diag_tall(d))
        assert str(info.value) == (f"matrix is rank deficient (diagonal {d:.3e} "
                                   "vs threshold 1.000e-12)")

    def test_stack_names_its_deficient_member(self, rng):
        a2 = np.stack([_diag_tall(0.5), _diag_tall(1e-13, 3.0), _diag_tall(0.25, 5.0)])
        with pytest.raises(RankDeficient) as info:
            decomp.gsv_values(np.stack([complex_gaussian(rng, 4, 2) for _ in range(3)]), a2)
        assert str(info.value) == ("second matrix of the pair is rank deficient "
                                   "(diagonal 3.000e-13 vs threshold 3.000e-12)")

    @pytest.mark.parametrize("d, deficient", [(0.5, False), (1e-13, True)])
    def test_overflowing_frobenius_norm_takes_the_two_norm(self, monkeypatch, d, deficient):
        # Entries near 1e200 overflow the Frobenius norm; no warning escapes.
        calls = _two_norm_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if deficient:
                with pytest.raises(RankDeficient, match="1.000e\\+187 vs threshold 1.000e\\+188"):
                    decomp.qr(_diag_tall(d, 1e200))
            else:
                decomp.qr(_diag_tall(d, 1e200))
        assert calls == [(3, 2)]

    @pytest.mark.parametrize("fn", [decomp.qr, decomp.ql])
    def test_overflowing_householder_vector_names_the_range(self, fn):
        # LAPACK returns a NaN unitary factor, with no error, when a Householder vector
        # overflows; it is refused before any phase fix warns on it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^matrix is out of range: a Householder vector"):
                fn([[1e308], [1e308]])


class TestSvd:
    def test_diagonal(self):
        f = decomp.svd(np.diag([4.0, 1.0]))
        assert np.allclose(f.diagonal, [4.0, 1.0], atol=1e-12)

    def test_unitary_input(self, rng):
        q = decomp.haar_unitary(4, rng)
        f = decomp.svd(q)
        assert np.allclose(f.diagonal, np.ones(4), atol=1e-9)

    def test_random_matches_eigenvalues(self, rng):
        a = complex_gaussian(rng, 5, 3)
        f = decomp.svd(a)
        # Independent route: eigenvalues of the Gram matrix.
        expected = np.sqrt(np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1])
        assert np.allclose(f.diagonal, expected, rtol=1e-9, atol=1e-12)
        assert rel_residual(f.reconstruct(), a) <= 1e-9
        assert np.all(np.diff(f.diagonal) <= 1e-12)


class TestMajorizes:
    def test_basic_true(self):
        assert decomp.majorizes([4.0, 1.0], [2.0, 2.0])

    def test_basic_false(self):
        assert not decomp.majorizes([2.0, 2.0], [4.0, 1.0])

    def test_equal_vectors(self):
        assert decomp.majorizes([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])

    def test_product_mismatch(self):
        assert not decomp.majorizes([4.0, 1.0], [2.0, 2.5])

    def test_order_insensitive(self):
        assert decomp.majorizes([1.0, 4.0], [2.0, 2.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            decomp.majorizes([1.0, -2.0], [1.0, 2.0])


class TestGtd:
    def test_svd_is_extremal_case(self, rng):
        a = complex_gaussian(rng, 4, 4)
        sigma = np.linalg.svd(a, compute_uv=False)
        f = decomp.gtd(a, sigma)
        off = f.t - np.diag(np.diag(f.t))
        assert np.max(np.abs(off)) <= 1e-8 * sigma[0]
        assert rel_residual(f.reconstruct(), a) <= 1e-9

    def test_geometric_mean_target(self):
        f = decomp.gtd(np.diag([4.0, 1.0]), np.array([2.0, 2.0]))
        a = np.diag([4.0, 1.0]).astype(complex)
        assert np.allclose(f.diagonal, [2.0, 2.0], rtol=1e-10)
        assert rel_residual(f.reconstruct(), a) <= 1e-9
        assert_unitary(f.u)
        assert_unitary(f.v)

    def test_infeasible_prefix(self):
        with pytest.raises(MajorizationError) as err:
            decomp.gtd(np.diag([4.0, 1.0]), np.array([8.0, 0.5]))
        assert err.value.prefix_index == 1

    def test_random_feasible(self, rng):
        for rows, cols in [(3, 3), (5, 4), (6, 6), (8, 5)]:
            a = complex_gaussian(rng, rows, cols)
            sigma = np.linalg.svd(a, compute_uv=False)
            target = random_feasible_target(rng, sigma)
            f = decomp.gtd(a, target)
            assert np.allclose(f.diagonal, target, rtol=1e-8)
            assert rel_residual(f.reconstruct(), a) <= 1e-9
            assert_unitary(f.u)
            assert_unitary(f.v)
            assert_exact_upper_triangular(f.t)

    def test_unsorted_target_order_preserved(self, rng):
        a = complex_gaussian(rng, 4, 4)
        sigma = np.linalg.svd(a, compute_uv=False)
        target = random_feasible_target(rng, sigma)
        target = target[np.argsort(target)]  # ascending, deliberately unsorted
        f = decomp.gtd(a, target)
        assert np.allclose(f.diagonal, target, rtol=1e-8)

    def test_boundary_violation_detected(self, rng):
        # Scaling the largest value up 1% (and the smallest down, to keep the
        # product) breaks the first prefix inequality.
        for _ in range(5):
            a = complex_gaussian(rng, 5, 5)
            sigma = np.linalg.svd(a, compute_uv=False)
            bad = sigma.copy()
            bad[0] *= 1.01
            bad[-1] /= 1.01
            with pytest.raises(MajorizationError):
                decomp.gtd(a, bad)


class TestGmd:
    def test_two_by_two(self):
        f = decomp.gmd(np.diag([4.0, 1.0]))
        assert np.allclose(f.diagonal, [2.0, 2.0], rtol=1e-10)

    def test_unitary_input(self, rng):
        q = decomp.haar_unitary(3, rng)
        f = decomp.gmd(q)
        assert np.allclose(f.t, np.eye(3), atol=1e-9)

    def test_random_constant_diagonal(self, rng):
        a = complex_gaussian(rng, 4, 4)
        f = decomp.gmd(a)
        d = f.diagonal
        assert (d.max() - d.min()) / d.min() <= 1e-7
        assert rel_residual(f.reconstruct(), a) <= 1e-9


class TestGtdScale:
    """The GTD schedule scales its 2x2 steps, so singular values whose squares
    leave the double range give the scaled factors."""

    @pytest.mark.parametrize("exponent", [-700, 700])
    def test_factors_scale_with_the_input(self, rng, exponent):
        scale = 2.0 ** exponent
        for rows, cols in [(3, 2), (5, 4), (6, 6)]:
            a = complex_gaussian(rng, rows, cols)
            target = random_feasible_target(rng, np.linalg.svd(a, compute_uv=False))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                pairs = [(decomp.gmd(a), decomp.gmd(a * scale)),
                         (decomp.gtd(a, target), decomp.gtd(a * scale, target * scale))]
            for want, got in pairs:
                for name, factor in (("u", 1.0), ("t", scale), ("v", 1.0)):
                    ref, val = getattr(want, name), getattr(got, name) / factor
                    assert np.isfinite(getattr(got, name)).all(), name
                    assert np.linalg.norm(val - ref) <= 1e-12 * np.linalg.norm(ref), name


class TestGsvValues:
    def test_identical_pair(self, rng):
        a = complex_gaussian(rng, 4, 3)
        mu = decomp.gsv_values(a, a)
        assert np.allclose(mu, np.ones(3), atol=1e-9)

    def test_scalar_multiple(self, rng):
        a2 = complex_gaussian(rng, 3, 3)
        mu = decomp.gsv_values(2.0 * a2, a2)
        assert np.allclose(mu, np.full(3, 2.0), rtol=1e-9)

    def test_matches_generalized_eigenvalues(self, rng):
        a1 = complex_gaussian(rng, 5, 3)
        a2 = complex_gaussian(rng, 4, 3)
        mu = decomp.gsv_values(a1, a2)
        # Independent route: plain generalized eigenvalues of the Gram pair.
        import scipy.linalg
        vals = scipy.linalg.eigvals(a1.conj().T @ a1, a2.conj().T @ a2)
        expected = np.sqrt(np.sort(np.real(vals))[::-1])
        assert np.allclose(mu, expected, rtol=1e-8)
        assert np.all(np.diff(mu) <= 1e-12)

    def test_singular_second_matrix(self, rng):
        col = complex_gaussian(rng, 4, 1)
        a2 = np.concatenate([col, col], axis=1)
        with pytest.raises(RankDeficient):
            decomp.gsv_values(complex_gaussian(rng, 4, 2), a2)

    def test_stack_matches_per_pair_calls(self, rng):
        a1 = np.stack([complex_gaussian(rng, 5, 3) for _ in range(6)]).reshape(2, 3, 5, 3)
        a2 = np.stack([complex_gaussian(rng, 4, 3) for _ in range(6)]).reshape(2, 3, 4, 3)
        mu = decomp.gsv_values(a1, a2)
        assert mu.shape == (2, 3, 3)
        for i in np.ndindex(2, 3):
            assert np.array_equal(mu[i], decomp.gsv_values(a1[i], a2[i]))

    def test_one_singular_pair_fails_the_stack(self, rng):
        a2 = np.stack([complex_gaussian(rng, 4, 2) for _ in range(3)])
        a2[2, :, 1] = a2[2, :, 0]
        with pytest.raises(RankDeficient):
            decomp.gsv_values(complex_gaussian(rng, 4, 2)[None].repeat(3, axis=0), a2)

    def test_stack_shapes_must_match(self, rng):
        with pytest.raises(DomainError):
            decomp.gsv_values(np.zeros((2, 4, 2)) + np.eye(4, 2), np.eye(4, 2)[None].repeat(3, 0))


class TestGsvdDiagonal:
    def test_identity_pair(self):
        f = decomp.gsvd_diagonal(np.eye(2), np.eye(2))
        assert np.allclose(np.diag(f.l1), np.full(2, 1 / np.sqrt(2)), rtol=1e-12)
        assert np.allclose(np.diag(f.l2), np.full(2, 1 / np.sqrt(2)), rtol=1e-12)
        assert np.allclose(f.u1 @ f.l1 @ f.x.conj().T, np.eye(2), atol=1e-12)

    def test_ratios_match_gsv(self, rng):
        a1 = np.concatenate([np.diag([2.0, 1.0]), np.eye(2)], axis=0)
        a2 = np.concatenate([np.eye(2), np.eye(2)], axis=0)
        f = decomp.gsvd_diagonal(a1, a2)
        assert np.allclose(f.gsv, decomp.gsv_values(a1, a2), rtol=1e-9)

    def test_random_pair_invariants(self, rng):
        a1 = complex_gaussian(rng, 5, 3)
        a2 = complex_gaussian(rng, 4, 3)
        f = decomp.gsvd_diagonal(a1, a2)
        assert rel_residual(f.u1 @ f.l1 @ f.x.conj().T, a1) <= 1e-9
        assert rel_residual(f.u2 @ f.l2 @ f.x.conj().T, a2) <= 1e-9
        norm = f.l1.conj().T @ f.l1 + f.l2.conj().T @ f.l2
        assert np.max(np.abs(norm - np.eye(3))) <= 1e-9
        assert_unitary(f.u1)
        assert_unitary(f.u2)
        assert np.all(np.diff(f.gsv) <= 1e-12)


class TestGsvdTriangular:
    def test_identical_pair(self, rng):
        a = complex_gaussian(rng, 4, 3)
        jt = decomp.gsvd_triangular(a, a)
        assert np.allclose(jt.diag_ratios, np.ones(3), rtol=1e-9)

    def test_known_two_by_two(self, rng):
        a1 = complex_gaussian(rng, 2, 2)
        a2 = complex_gaussian(rng, 2, 2)
        jt = decomp.gsvd_triangular(a1, a2)
        assert np.allclose(jt.diag_ratios, decomp.gsv_values(a1, a2), rtol=1e-8)

    def test_random_pair_invariants(self, rng):
        a1 = complex_gaussian(rng, 5, 3)
        a2 = complex_gaussian(rng, 4, 3)
        jt = decomp.gsvd_triangular(a1, a2)
        assert rel_residual(jt.u1 @ jt.t1 @ jt.va.conj().T, a1) <= 1e-9
        assert rel_residual(jt.u2 @ jt.t2 @ jt.va.conj().T, a2) <= 1e-9
        assert np.allclose(jt.diag_ratios, decomp.gsv_values(a1, a2), rtol=1e-8)
        assert np.all(np.diff(jt.diag_ratios) <= 1e-10)
        assert_unitary(jt.va)
        assert_exact_upper_triangular(jt.t1)
        assert_exact_upper_triangular(jt.t2)
        assert np.all(jt.diag1 > 0)
        assert np.all(jt.diag2 > 0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_ql_product_route(self, rng, n):
        for rows1, rows2 in [(n + 2, n + 1), (n, 2 * n + 1)]:
            a1 = complex_gaussian(rng, rows1, n)
            a2 = complex_gaussian(rng, rows2, n)
            jt = decomp.gsvd_triangular(a1, a2)
            want = ql_product_gsvd(a1, a2)
            # The complement columns of u_k are any orthonormal completion.
            for name in ("t1", "t2", "diag1", "diag2", "u1", "u2"):
                got, ref = getattr(jt, name), getattr(want, name)
                if name.startswith("u"):
                    got, ref = got[:, :n], ref[:, :n]
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), (n, name)


class TestGsvdPrecoder:
    # The precoder is the unitary factor of a QL of the diagonal form's right
    # factor, bit for bit: the CLI's gsvd report builds it that way.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_va_equals_triangular_va(self, rng, n):
        for rows1, rows2 in [(n, n), (n + 2, n + 1), (2 * n, n + 3)]:
            a1 = complex_gaussian(rng, rows1, n)
            a2 = complex_gaussian(rng, rows2, n)
            va = decomp.ql(decomp.gsvd_diagonal(a1, a2).x).u
            assert np.array_equal(decomp.gsvd_triangular(a1, a2).va, va)

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_select_precoder_equals_triangular_va(self, rng, n):
        for _ in range(4):
            h_b = complex_gaussian(rng, n + 1, n)
            h_e = complex_gaussian(rng, n + 2, n)
            k = random_psd(rng, n, rank=1 + int(rng.integers(n)))
            b = secrecy.matrix_sqrt(k)
            va = decomp.gsvd_triangular(secrecy.effective_mmse_matrix(h_b, b),
                                        secrecy.effective_mmse_matrix(h_e, b)).va
            assert np.array_equal(scheme.select_precoder(h_b, h_e, b, "gsvd"), va)

    def test_rank_deficient_first_matrix_rejected(self, rng):
        a1 = complex_gaussian(rng, 4, 3)
        a1[:, 2] = a1[:, 0]
        a2 = complex_gaussian(rng, 4, 3)
        with pytest.raises(RankDeficient, match="first matrix"):
            decomp.gsvd_diagonal(a1, a2)
        with pytest.raises(RankDeficient):
            decomp.gsvd_triangular(a1, a2)

    def test_rank_deficient_second_matrix_rejected(self, rng):
        # The rank check of the pair's GSVD kernel, before any precoder is formed.
        a1 = complex_gaussian(rng, 4, 3)
        a2 = complex_gaussian(rng, 5, 3)
        a2[:, 2] = a2[:, 0]
        with pytest.raises(RankDeficient, match="second matrix of the pair"):
            decomp.gsvd_triangular(a1, a2)


KNOWN_GSV = np.array([1e3, 10.0, 1.0, 1e-3])


def known_gsv_pair(rng, condition):
    """Pair ``a_k = u_k @ c_k @ x`` with GSVs ``KNOWN_GSV`` and cond(x) = condition."""
    n = KNOWN_GSV.size
    c = KNOWN_GSV / np.sqrt(1.0 + KNOWN_GSV ** 2)
    s = 1.0 / np.sqrt(1.0 + KNOWN_GSV ** 2)
    x = (decomp.haar_unitary(n, rng) * np.geomspace(1.0, 1.0 / condition, n)[None, :]
         @ decomp.haar_unitary(n, rng))
    a1 = decomp.haar_unitary(n + 2, rng)[:, :n] * c[None, :] @ x
    a2 = decomp.haar_unitary(n + 1, rng)[:, :n] * s[None, :] @ x
    return a1, a2


class TestIllConditionedPairs:
    # Forming a'a squares cond(x) and loses the small GSVs; the QR + SVD
    # route keeps the relative error within a modest multiple of
    # eps * cond(x).  The triangular form is a QR pair, so it reconstructs
    # the pair to rounding at any condition.
    @pytest.mark.parametrize("condition", [1e2, 1e5, 1e7])
    def test_known_gsvs_recovered(self, rng, condition):
        tol = 1e-11 * condition
        for _ in range(10):
            a1, a2 = known_gsv_pair(rng, condition)
            mu = decomp.gsv_values(a1, a2)
            jt = decomp.gsvd_triangular(a1, a2)
            assert np.max(np.abs(mu - KNOWN_GSV) / KNOWN_GSV) <= tol
            assert np.max(np.abs(jt.diag_ratios - KNOWN_GSV) / KNOWN_GSV) <= tol
            assert rel_residual(jt.u1 @ jt.t1 @ jt.va.conj().T, a1) <= 1e-14
            assert rel_residual(jt.u2 @ jt.t2 @ jt.va.conj().T, a2) <= 1e-14


def test_import_leaves_scipy_unloaded():
    src = Path(decomp.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, wtd; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.strip() == "False"


class TestJointTriangularize:
    def test_identity_right_factor(self, rng):
        a1 = complex_gaussian(rng, 4, 3)
        a2 = complex_gaussian(rng, 5, 3)
        jt = decomp.joint_triangularize(a1, a2, np.eye(3))
        assert np.allclose(jt.t1, decomp.qr(a1).t, atol=1e-12)
        assert np.allclose(jt.t2, decomp.qr(a2).t, atol=1e-12)

    def test_gsvd_right_factor_reproduces_ratios(self, rng):
        # Unit phases on the columns of the GSVD precoder move into the left
        # factors: both triangular diagonals stay those of gsvd_triangular.
        a1 = complex_gaussian(rng, 4, 3)
        a2 = complex_gaussian(rng, 5, 3)
        want = decomp.gsvd_triangular(a1, a2)
        phases = np.exp(2j * np.pi * rng.uniform(size=3))
        jt = decomp.joint_triangularize(a1, a2, want.va @ np.diag(phases))
        assert np.allclose(jt.diag1, want.diag1, rtol=1e-12, atol=0.0)
        assert np.allclose(jt.diag2, want.diag2, rtol=1e-12, atol=0.0)

    def test_determinant_identity(self, rng):
        a1 = complex_gaussian(rng, 4, 3)
        a2 = complex_gaussian(rng, 5, 3)
        va = decomp.haar_unitary(3, rng)
        jt = decomp.joint_triangularize(a1, a2, va)
        for diag, a in [(jt.diag1, a1), (jt.diag2, a2)]:
            _, logdet = np.linalg.slogdet(a.conj().T @ a)
            assert np.isclose(2 * np.sum(np.log(diag)), logdet, rtol=1e-8, atol=1e-10)

    def test_non_unitary_rejected(self, rng):
        a1 = complex_gaussian(rng, 4, 3)
        a2 = complex_gaussian(rng, 5, 3)
        with pytest.raises(DomainError):
            decomp.joint_triangularize(a1, a2, 1.5 * np.eye(3))


class TestProperties:
    def test_gtd_existence_boundary(self, rng):
        # Feasibility of the construction must agree with the majorization
        # test on both sides of the boundary.
        for _ in range(20):
            a = complex_gaussian(rng, 5, 5)
            sigma = np.linalg.svd(a, compute_uv=False)
            target = random_feasible_target(rng, sigma)
            feasible = decomp.majorizes(sigma, target)
            try:
                decomp.gtd(a, target)
                built = True
            except MajorizationError:
                built = False
            assert built == feasible

    def test_diagonal_product_conservation(self, rng):
        a = complex_gaussian(rng, 5, 4)
        for _ in range(10):
            va = decomp.haar_unitary(4, rng)
            d = decomp.qr(a @ va).diagonal
            _, logdet = np.linalg.slogdet(a.conj().T @ a)
            assert np.isclose(2 * np.sum(np.log(d)), logdet, rtol=1e-8, atol=1e-10)

    def test_gsv_extremality(self, rng):
        a1 = complex_gaussian(rng, 5, 3)
        a2 = complex_gaussian(rng, 4, 3)
        mu = decomp.gsv_values(a1, a2)
        for _ in range(100):
            va = decomp.haar_unitary(3, rng)
            jt = decomp.joint_triangularize(a1, a2, va)
            assert decomp.majorizes(mu, jt.diag_ratios, rel_tol=1e-8)

    def test_gsv_ratio_inversion(self, rng):
        a1 = complex_gaussian(rng, 5, 4)
        a2 = complex_gaussian(rng, 6, 4)
        fwd = decomp.gsv_values(a1, a2)
        bwd = decomp.gsv_values(a2, a1)
        assert np.allclose(fwd * bwd[::-1], np.ones(4), rtol=1e-8)

    def test_unitarity_and_shape_across_sizes(self, rng):
        for rows, cols in [(2, 2), (4, 3), (6, 6), (8, 5)]:
            a = complex_gaussian(rng, rows, cols)
            f = decomp.qr(a)
            assert_unitary(f.u)
            assert_exact_upper_triangular(f.t)
            g = decomp.svd(a)
            assert_unitary(g.u)
            assert_unitary(g.v)


@pytest.mark.parametrize("call, named", [
    (lambda: decomp.require_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]]), "precoder"),
     "precoder entries must be finite"),
    (lambda: decomp.require_unitary(np.ones(3), "precoder"), "precoder must be a 2-D array"),
    (lambda: decomp.require_unitary(np.ones((3, 2)), "precoder"), "precoder must be square"),
    (lambda: decomp.gtd(np.eye(2), [1.0]), "target diagonal must have length 2"),
    (lambda: decomp.gtd(np.eye(2), [1.0, 0.0]), "target diagonal entries must be positive"),
    (lambda: decomp.gsv_values(np.eye(2), np.eye(3)), "matrix pair must share the column"),
    (lambda: decomp.joint_triangularize(np.eye(2), np.eye(2), np.eye(3)),
     "right factor dimension"),
])
def test_domain_error_names_the_argument(call, named):
    with pytest.raises(DomainError, match=named) as info:
        call()
    assert info.type is DomainError
