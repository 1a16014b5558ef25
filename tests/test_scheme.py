import dataclasses
import hashlib
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wtd import decomp, scheme, secrecy
from wtd.errors import DomainError, InsufficientSamples

from conftest import (complex_gaussian, conditional_mi_bits, count_calls, dpc_oracle,
                      ql_product_gsvd, random_psd)


def wiretap_instance(rng, n=3, n_b=3, n_e=2):
    return complex_gaussian(rng, n_b, n), complex_gaussian(rng, n_e, n), np.eye(n)


def use_cpus(monkeypatch, cpus, cpu_count=64, blas=None):
    """Make the simulators see ``cpus`` usable CPUs out of ``cpu_count``; with
    ``cpus=None``, a platform without ``os.sched_getaffinity``, where
    ``os.cpu_count()`` returns ``cpu_count``.  ``blas`` maps the BLAS thread
    variables to their values; by default BLAS has one thread."""
    if cpus is None:
        monkeypatch.delattr(scheme.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(scheme.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    monkeypatch.setattr(scheme.os, "cpu_count", lambda: cpu_count)
    for var in scheme._BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in ({"OPENBLAS_NUM_THREADS": "1"} if blas is None else blas).items():
        monkeypatch.setenv(var, value)


def off_diagonal_mass(t):
    off = t.copy()
    n = t.shape[1]
    off[np.arange(n), np.arange(n)] = 0.0
    return np.max(np.abs(off))


class TestSelectPrecoder:
    def test_svd_bob_diagonalizes(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        k = random_psd(rng, 3)
        va = scheme.select_precoder(h_b, h_e, secrecy.matrix_sqrt(k), "svd_bob")
        plan = scheme.build_sic_plan(h_b, secrecy.matrix_sqrt(k), va)
        g = secrecy.effective_mmse_matrix(h_b, plan.b_sqrt)
        t = decomp.qr(g @ va).t
        assert off_diagonal_mass(t) <= 1e-9

    def test_gmd_bob_constant_diagonal(self, rng):
        h_b, h_e, _ = wiretap_instance(rng)
        k = random_psd(rng, 3)
        va = scheme.select_precoder(h_b, h_e, secrecy.matrix_sqrt(k), "gmd_bob")
        plan = scheme.build_sic_plan(h_b, secrecy.matrix_sqrt(k), va)
        d = plan.diag_b
        assert d.max() / d.min() <= 1.0 + 1e-7

    def test_gmd_bob_is_the_gmd_right_factor(self, rng):
        # One thin SVD and the GMD schedule on ``v`` alone give ``gmd(g_b).v``.
        for n_b, n in [(3, 3), (5, 4), (2, 4), (8, 8)]:
            h_b, h_e = complex_gaussian(rng, n_b, n), complex_gaussian(rng, n, n)
            b = secrecy.matrix_sqrt(random_psd(rng, n))
            va = scheme.select_precoder(h_b, h_e, b, "gmd_bob")
            want = decomp.gmd(secrecy.effective_mmse_matrix(h_b, b)).v
            assert np.max(np.abs(va - want)) <= 1e-10
            d = scheme.build_sic_plan(h_b, b, va).diag_b
            assert d.max() / d.min() - 1.0 <= 1e-12

    def test_gmd_bob_is_gmd_v_bit_for_bit(self, rng):
        # ``gmd`` and the ``gmd_bob`` precoder apply the same rotation factors to the same ``v``.
        for _ in range(40):
            n, n_b = (int(k) for k in rng.integers(1, 9, 2))
            h_b, h_e = complex_gaussian(rng, n_b, n), complex_gaussian(rng, n, n)
            b = secrecy.matrix_sqrt(random_psd(rng, n))
            va = scheme.select_precoder(h_b, h_e, b, "gmd_bob")
            assert np.array_equal(va, decomp.gmd(secrecy.effective_mmse_matrix(h_b, b)).v)

    def test_svd_eve_diagonalizes_eavesdropper(self, rng):
        h_b, h_e, _ = wiretap_instance(rng)
        k = random_psd(rng, 3)
        b = secrecy.matrix_sqrt(k)
        va = scheme.select_precoder(h_b, h_e, b, "svd_eve")
        g_e = secrecy.effective_mmse_matrix(h_e, b)
        t_e = decomp.qr(g_e @ va).t
        assert off_diagonal_mass(t_e) <= 1e-9
        d = np.linalg.svd(h_e @ b, compute_uv=False)
        d = np.concatenate([d, np.zeros(3 - d.size)])
        e = decomp.qr(g_e @ va).diagonal
        assert np.allclose(e ** 2, 1.0 + d ** 2, atol=1e-9)

    def test_unknown_mode(self, rng):
        with pytest.raises(DomainError):
            scheme.select_precoder(np.eye(2), np.eye(2), np.eye(2), "zf")


class TestBuildSicPlan:
    def test_dead_channel(self):
        plan = scheme.build_sic_plan(np.zeros((2, 2)), np.eye(2), np.eye(2))
        assert np.allclose(plan.diag_b, np.ones(2), atol=1e-12)
        assert np.allclose(plan.sinr, np.zeros(2), atol=1e-12)
        assert np.allclose(plan.rates_bits, np.zeros(2), atol=1e-12)

    def test_scalar(self):
        plan = scheme.build_sic_plan(np.eye(1), np.eye(1), np.eye(1))
        assert np.isclose(plan.sinr[0], 1.0, atol=1e-12)
        assert np.isclose(plan.rates_bits[0], 1.0, atol=1e-12)

    def test_rate_sum_is_mutual_information(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        k = random_psd(rng, 3)
        va = decomp.haar_unitary(3, rng)
        plan = scheme.build_sic_plan(h_b, secrecy.matrix_sqrt(k), va)
        assert np.isclose(np.sum(plan.rates_bits), secrecy.gaussian_mi(h_b, k),
                          atol=1e-8)

    def test_feedback_matrix_identity(self, rng):
        # The effective feedback matrix equals [T] - [T]^-dagger.
        h_b = complex_gaussian(rng, 4, 3)
        k = random_psd(rng, 3)
        va = decomp.haar_unitary(3, rng)
        plan = scheme.build_sic_plan(h_b, secrecy.matrix_sqrt(k), va)
        g = secrecy.effective_mmse_matrix(h_b, plan.b_sqrt)
        t_top = decomp.qr(g @ va).t[:3, :3]
        expected = t_top - np.linalg.inv(t_top).conj().T
        assert np.max(np.abs(plan.t_tilde - expected)) <= 1e-9
        assert np.allclose(np.diag(plan.t_tilde),
                           plan.diag_b - 1.0 / plan.diag_b, atol=1e-9)
        strict = np.triu(np.ones((3, 3)), 1).astype(bool)
        assert np.max(np.abs(plan.t_tilde[strict] - t_top[strict])) <= 1e-9

    def test_sinr_diagonal_identity(self, rng):
        h_b = complex_gaussian(rng, 2, 3)
        k = random_psd(rng, 3)
        va = decomp.haar_unitary(3, rng)
        plan = scheme.build_sic_plan(h_b, secrecy.matrix_sqrt(k), va)
        assert np.allclose(plan.diag_b ** 2, 1.0 + plan.sinr, atol=1e-9)

    def test_non_unitary_precoder_rejected(self, rng):
        with pytest.raises(DomainError):
            scheme.build_sic_plan(np.eye(2), np.eye(2), 2 * np.eye(2))


class TestWideDynamicRange:
    # ``[h b; I] va`` has singular values >= 1, so a gain of 1e13 beside one
    # of 1 or 0 is no rank deficiency, though the small diagonal entry of the
    # QR is below 1e-12 of the norm.
    H_B, H_E, KBAR = np.diag([1e13, 1.0]), 0.5 * np.eye(2), np.eye(2)

    def capacity(self):
        capacity = secrecy.secrecy_capacity_cov(self.H_B, self.H_E, self.KBAR).capacity_bits
        assert np.isclose(capacity, 86.726, atol=1e-3)
        return capacity

    def test_sic_plan_builds(self):
        plan = scheme.build_sic_plan(np.diag([1e13, 0.0]), np.eye(2), np.eye(2))
        assert np.allclose(plan.diag_b, [1e13, 1.0], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_wiretap_secret_rates_sum_to_capacity(self, mode):
        plan = scheme.build_wiretap_plan(self.H_B, self.H_E, self.KBAR, mode)
        assert np.isclose(np.sum(plan.secret_rates_bits), self.capacity(), rtol=1e-12)

    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_dpc_secret_rates_sum_to_capacity(self, mode):
        # The stream of gain 1e13 has an auxiliary variance of 1e26: its rate
        # must not cancel to a zero determinant, nor the unit-gain stream
        # count as dead beside it.
        plan = scheme.build_dpc_plan(self.H_B, self.H_E, self.KBAR, mode)
        assert np.isclose(np.sum(plan.rates_bits), self.capacity(), rtol=1e-12)

    def test_broadcast_totals_hit_region_corners(self):
        plan = scheme.build_broadcast_plan(self.H_B, self.H_E, self.KBAR)
        region = secrecy.broadcast_region(self.H_B, self.H_E, self.KBAR)
        assert np.isclose(np.sum(plan.bob_rates_bits), region.rb_max, rtol=1e-12, atol=0.0)
        assert np.isclose(np.sum(plan.charlie_rates_bits), region.rc_max, rtol=1e-12, atol=0.0)
        assert np.isclose(region.rb_max, self.capacity(), rtol=1e-12)

    def test_swapped_roles(self):
        # An eavesdropper gain of 1e13: ``[h_e b; I]`` is no more rank
        # deficient than ``[h_b b; I]`` above, so nothing may raise.
        h_b, h_e = self.H_E, self.H_B
        assert secrecy.secrecy_capacity_cov(h_b, h_e, self.KBAR).capacity_bits == 0.0
        region = secrecy.broadcast_region(h_b, h_e, self.KBAR)
        assert region.rb_max == 0.0
        assert np.isclose(region.rc_max, self.capacity(), rtol=1e-12)
        search = secrecy.power_constrained_capacity(h_b, h_e, 2.0, budget=20, seed=1)
        assert search.evaluations == 20 and search.capacity_lower_bound >= 0.0
        for mode in scheme.PRECODER_MODES:
            assert np.all(scheme.build_wiretap_plan(h_b, h_e, self.KBAR, mode)
                          .secret_rates_bits == 0.0)
        assert np.all(scheme.build_dpc_plan(h_b, h_e, self.KBAR).rates_bits == 0.0)

    @pytest.mark.parametrize("gain", [1e8, 1e10, 1e11, 1e13])
    def test_leakage_within_bands(self, gain):
        # Unit-variance coordinates beside an eavesdropper gain of 1e8 or more
        # carry information: the leakage estimate must keep them.
        h_b, h_e = np.diag([10.0 * gain, 2.0]), np.diag([gain, 1.0])
        plan = scheme.build_wiretap_plan(h_b, h_e, self.KBAR, "gsvd")
        rep = scheme.simulate_leakage(plan, h_e, 100000, seed=1)
        assert np.all(rep.leakage_stderr > 0.0)
        assert rep.within_bands()


class TestOneMmsePairPerPlan:
    def test_plans_form_each_mmse_matrix_once(self, rng, monkeypatch):
        # Counts every effective MMSE matrix, the library's own included, after a
        # capacity call that kept the root, kernel and solve of the problem: the first
        # ``gsvd`` plan forms the pair of ``k_star``'s factor for the kept optimal
        # kernel, which the second one and the DPC plan read; each SVD mode forms the
        # pair once, and the broadcast plan reads the kept kernel of ``kbar``.
        calls = []
        for module in (scheme, secrecy):
            def counting(h, b, real=module.effective_mmse_matrix):
                calls.append(h)
                return real(h, b)
            monkeypatch.setattr(module, "effective_mmse_matrix", counting)
        h_b, h_e, kbar = wiretap_instance(rng)
        secrecy.secrecy_capacity_cov(h_b, h_e, 2.0 * kbar)
        secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        counts = {}
        for label, call in [
                ("gsvd", lambda: scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")),
                ("gsvd again", lambda: scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")),
                ("dpc", lambda: scheme.build_dpc_plan(h_b, h_e, kbar)),
                ("broadcast", lambda: scheme.build_broadcast_plan(h_b, h_e, kbar))] + [
                (mode, lambda mode=mode: scheme.build_wiretap_plan(h_b, h_e, kbar, mode))
                for mode in scheme.PRECODER_MODES[1:]]:
            calls.clear()
            call()
            counts[label] = len(calls)
        assert counts == {"gsvd": 2, "gsvd again": 0, "dpc": 0, "broadcast": 0,
                          "svd_eve": 2, "svd_bob": 2, "gmd_bob": 2}

    def test_no_kernel_or_qr_after_the_first_gsvd_plan(self, rng, monkeypatch):
        # The first ``gsvd`` plan on a solved problem runs one kernel (one QR of the
        # second matrix) and the QR of its QL; no QR after them.  A second ``gsvd``
        # plan and the DPC plan run neither.
        h_b, h_e, kbar = wiretap_instance(rng)
        secrecy.secrecy_capacity_cov(h_b, h_e, 2.0 * kbar)
        secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        kernels = count_calls(monkeypatch, decomp, ("_gsvd_kernel",))
        monkeypatch.setattr(secrecy, "_gsvd_kernel", decomp._gsvd_kernel)
        qrs = count_calls(monkeypatch, np.linalg, ("qr",))
        scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        assert (len(kernels), len(qrs)) == (1, 2)
        scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        scheme.build_dpc_plan(h_b, h_e, kbar)
        scheme.build_dpc_plan(h_b, h_e, kbar, mode="gsvd")
        assert (len(kernels), len(qrs)) == (1, 2)


def _qr_route_problems():
    """200 problems at n = 1..8: generic, ``lb = 0`` (a stronger eavesdropper), ``lb = n``
    (a dead one), a rank-deficient ``kbar`` and tied singular values of ``h_b`` (a
    scaled isometry), each at one of the scales ``c = 1, 1e100, 1e-100`` as ``(h c,
    K / c^2)``."""
    rng = np.random.default_rng(2424)
    problems = []
    for i in range(200):
        n, kind, c = 1 + i % 8, i % 5, (1.0, 1e100, 1e-100)[i % 3]
        h_b = complex_gaussian(rng, n + int(rng.integers(0, 3)), n)
        h_e = complex_gaussian(rng, max(1, n - 1 + int(rng.integers(0, 3))), n)
        kbar = random_psd(rng, n) / n
        if kind == 1:
            h_b = 0.1 * h_b
        elif kind == 2:
            h_e = np.zeros_like(h_e)
        elif kind == 3:
            kbar = random_psd(rng, n, max(1, n // 2))
        elif kind == 4:
            h_b = 2.0 * decomp.haar_unitary(n + 1, rng)[:, :n]
            kbar = np.eye(n)
        problems.append((h_b * c, h_e * c, kbar / c ** 2))
    return problems


def _close(got, want, scale=1.0):
    """``got`` equals ``want`` within 1e-12 of ``max(|want|, scale)``, in the 2-norm."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    return np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), scale)


def _qr_receiver(h, b, va):
    """Diagonal, combiner and feedback ``u' h b va`` of ``decomp.qr`` of ``[h b; I] va``."""
    h = np.asarray(h, dtype=complex)
    f = decomp.qr(secrecy.effective_mmse_matrix(h, b) @ va)
    u = f.u[:h.shape[0], :va.shape[0]]
    return f.diagonal, u, u.conj().T @ h @ b @ va


class TestPlansMatchTheQrRoute:
    """Each plan's factors, read off its precoder's own factorization, are the QRs of
    ``[h b; I] va`` under that precoder."""

    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_wiretap_and_dpc_plans(self, mode):
        lbs = set()
        for h_b, h_e, kbar in _qr_route_problems():
            plan = scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
            dpc = scheme.build_dpc_plan(h_b, h_e, kbar, mode)
            base, b, va = plan.base, plan.base.b_sqrt, plan.base.va
            diag_b, u, t = _qr_receiver(h_b, b, va)
            diag_e = _qr_receiver(h_e, b, va)[0]
            feedback_scale = np.linalg.norm(np.asarray(h_b) @ b)
            assert _close(base.diag_b, diag_b) and _close(plan.diag_e, diag_e)
            assert _close(base.u_tilde, u) and _close(base.t_tilde, t, feedback_scale)
            assert _close(base.rates_bits, 2.0 * np.log2(diag_b))
            assert _close(plan.fictitious_rates_bits, 2.0 * np.log2(diag_e))
            secret = np.maximum(2.0 * np.log2(diag_b / diag_e), 0.0)
            assert _close(plan.secret_rates_bits, secret)
            assert _close(base.sinr, scheme.build_sic_plan(h_b, b, va).sinr)
            live = diag_b ** 2 - 1.0 > scheme._DEAD_SNR
            assert _close(dpc.base.t_tilde, t, feedback_scale)
            assert _close(dpc.rates_bits, np.where(live, secret, 0.0))
            assert _close(dpc.fictitious_rates_bits, np.where(live, 2.0 * np.log2(diag_e), 0.0))
            lb = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).lb
            lbs.add((lb == 0, lb == kbar.shape[0]))
        assert {(True, False), (False, True), (False, False)} <= lbs

    def test_broadcast_plan(self):
        lbs = set()
        for h_b, h_c, kbar in _qr_route_problems():
            plan = scheme.build_broadcast_plan(h_b, h_c, kbar)
            b, va, lb = plan.b_sqrt, plan.va, plan.lb
            diag_b, u_b, t_b = _qr_receiver(h_b, b, va)
            diag_c, u_c, t_c = _qr_receiver(h_c, b, va)
            assert _close(plan.diag_b, diag_b) and _close(plan.diag_c, diag_c)
            assert _close(plan.bob_combiner, u_b[:, :lb])
            assert _close(plan.charlie_combiner, u_c[:, lb:])
            assert _close(plan.bob_feedback, t_b[:lb], np.linalg.norm(np.asarray(h_b) @ b))
            assert _close(plan.charlie_feedback, t_c[lb:], np.linalg.norm(np.asarray(h_c) @ b))
            ratio = 2.0 * np.log2(diag_b / diag_c)
            assert _close(plan.bob_rates_bits, np.maximum(ratio[:lb], 0.0))
            assert _close(plan.charlie_rates_bits, np.maximum(-ratio[lb:], 0.0))
            lbs.add(min(lb, 1) + (lb == kbar.shape[0]))
        assert lbs == {0, 1, 2}


class TestBuildWiretapPlan:
    def test_equal_channels(self, rng):
        h = complex_gaussian(rng, 2, 2)
        plan = scheme.build_wiretap_plan(h, h, np.eye(2), "gsvd")
        assert np.allclose(plan.secret_rates_bits, 0.0, atol=1e-8)

    def test_dead_eavesdropper_svd_bob(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        plan = scheme.build_wiretap_plan(h_b, np.zeros((2, 2)), np.eye(2), "svd_bob")
        s = np.linalg.svd(h_b, compute_uv=False)
        expected = np.log2(1.0 + s ** 2)
        assert np.allclose(np.sort(plan.secret_rates_bits), np.sort(expected),
                           atol=1e-8)
        assert np.allclose(plan.diag_e, np.ones(2), atol=1e-9)

    def test_mode_invariance(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        capacity = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).capacity_bits
        totals = []
        for mode in scheme.PRECODER_MODES:
            plan = scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
            totals.append(np.sum(plan.secret_rates_bits))
            assert plan.mode == mode
        assert np.allclose(totals, capacity, atol=1e-8)

    def test_snr_pairs(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        pairs = plan.snr_pairs
        assert np.allclose(pairs[:, 0], plan.base.diag_b ** 2 - 1.0)
        assert np.allclose(pairs[:, 1], plan.diag_e ** 2 - 1.0)


def _factor_problems():
    """Square wiretap problems at n = 2, 4, 8, under a rank-1 ``kbar``, and
    with ``lb = 0`` (a stronger eavesdropper) and ``lb = n`` (a dead one)."""
    rng = np.random.default_rng(4242)
    problems = [(complex_gaussian(rng, n, n), complex_gaussian(rng, n, n), random_psd(rng, n) / n)
                for n in (2, 4, 8)]
    problems.append((complex_gaussian(rng, 4, 4), complex_gaussian(rng, 4, 4),
                     random_psd(rng, 4, 1)))
    h = complex_gaussian(rng, 3, 3)
    return problems + [(h, 3.0 * h, np.eye(3)), (h, np.zeros((3, 3)), np.eye(3))]


class TestPlanFactor:
    """Wiretap plans build on the capacity call's factor of ``k_star``."""

    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_factor_of_optimal_covariance(self, mode):
        lbs = []
        for h_b, h_e, kbar in _factor_problems():
            res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            plan = scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
            f, n, lb = plan.base.b_sqrt, kbar.shape[0], res.lb
            lbs.append(lb)
            assert np.linalg.norm(f @ f.conj().T - res.k_star) <= 1e-10 * np.linalg.norm(res.k_star)
            assert np.all(f[:, :n - lb] == 0.0)
            if mode != "gmd_bob":
                # gmd_bob spreads the power over every stream.
                assert np.all(plan.fictitious_rates_bits[lb:] == 0.0)
        # The rank-1, lb = 0 and lb = n problems.
        assert lbs[-3:] == [1, 0, 3]


def _broadcast_oracle(h_b, h_c, kbar):
    """Broadcast plan fields read off the QL-product triangular GSVD."""
    b = secrecy.matrix_sqrt(kbar)
    jt = ql_product_gsvd(secrecy.effective_mmse_matrix(h_b, b),
                         secrecy.effective_mmse_matrix(h_c, b))
    mu = jt.diag1 / jt.diag2
    lb = int(np.sum(mu * mu > 1.0 + secrecy.LB_GSV_TOL))
    bob = jt.u1[:h_b.shape[0], :lb]
    charlie = jt.u2[:h_c.shape[0], lb:mu.size]
    return {"lb": lb, "diag_b": jt.diag1, "diag_c": jt.diag2,
            "bob_combiner": bob, "charlie_combiner": charlie,
            "bob_feedback": bob.conj().T @ h_b @ b @ jt.va,
            "charlie_feedback": charlie.conj().T @ h_c @ b @ jt.va}


class TestBroadcastRoute:
    def test_matches_triangular_gsvd(self, rng):
        h = complex_gaussian(rng, 5, 4)
        cases = [(h, complex_gaussian(rng, 3, 4), random_psd(rng, 4) / 4) for _ in range(10)]
        cases += [(np.zeros((5, 4)), h[:3], np.eye(4)), (h, np.zeros((3, 4)), np.eye(4))]
        lbs = []
        for h_b, h_c, kbar in cases:
            plan = scheme.build_broadcast_plan(h_b, h_c, kbar)
            expected = _broadcast_oracle(h_b, h_c, kbar)
            assert plan.lb == expected.pop("lb")
            lbs.append(plan.lb)
            for name, want in expected.items():
                got = getattr(plan, name)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
        assert lbs[-2:] == [0, 4]


class TestBuildDpcPlan:
    def test_alpha_zero_for_unit_gain(self):
        plan = scheme.build_dpc_plan(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        assert np.allclose(plan.alpha, 0.0, atol=1e-12)

    def test_no_interference_mode(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar, mode="svd_bob")
        b = plan.base.diag_b
        assert np.allclose(plan.rates_u_bits, 2 * np.log2(b), atol=1e-9)
        assert np.max(np.abs(plan.presubtraction_rows)) <= 1e-9

    def test_rates_match_sic_path(self, rng):
        for _ in range(5):
            h_b, h_e, kbar = wiretap_instance(rng)
            plan = scheme.build_dpc_plan(h_b, h_e, kbar)
            wiretap = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
            assert np.allclose(plan.rates_bits, wiretap.secret_rates_bits,
                               atol=1e-9)
            assert np.allclose(plan.fictitious_rates_bits,
                               2 * np.log2(plan.diag_e), atol=1e-9)

    def test_auxiliary_rate_closed_form(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar)
        tt = plan.base.t_tilde
        b = plan.base.diag_b
        q = np.array([np.sum(np.abs(tt[k, k + 1:]) ** 2) for k in range(b.size)])
        assert np.allclose(plan.rates_u_bits, np.log2(b ** 2 + q), atol=1e-9)

    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_small_gains_keep_their_streams(self, mode):
        # A stream's u_k has variance 1e-16 here, a real one: the dead-stream cut is
        # relative to the rounding of b_k, not absolute.
        h_b, h_e, kbar = 1e-4 * np.eye(2), 0.5e-4 * np.eye(2), np.eye(2)
        capacity = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).capacity_bits
        assert np.isclose(capacity, 2.164e-8, rtol=1e-3)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar, mode)
        assert abs(np.sum(plan.rates_bits) - capacity) <= 1e-6 * capacity

    @pytest.mark.parametrize("mode", ["gsvd", "svd_eve", "svd_bob"])
    def test_inactive_streams_carry_exactly_zero(self, mode):
        for h_b, h_e, kbar in _factor_problems():
            plan = scheme.build_dpc_plan(h_b, h_e, kbar, mode)
            lb = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).lb
            for name in ("rates_bits", "fictitious_rates_bits", "rates_u_bits"):
                assert np.all(getattr(plan, name)[lb:] == 0.0), name

    def test_alpha_range(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar)
        assert np.all(plan.alpha >= 0.0)
        assert np.all(plan.alpha < 1.0)


def _dpc_oracle_problems():
    """n = 1..8 with n_e below and above n, plus lb = 0, lb = n and a rank-1 kbar."""
    rng = np.random.default_rng(5150)
    problems = []
    for n in range(1, 9):
        for n_e in (max(n - 1, 1), n + 2):
            problems.append((complex_gaussian(rng, n + 1, n), complex_gaussian(rng, n_e, n),
                             random_psd(rng, n) / n))
    h = complex_gaussian(rng, 4, 4)
    problems += [(h, 3.0 * h, np.eye(4)), (h, np.zeros((3, 4)), np.eye(4)),
                 (h, 0.3 * complex_gaussian(rng, 5, 4), random_psd(rng, 4, 1))]
    return problems


class TestDpcOracle:
    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_log_determinants_match_slogdet_oracle(self, mode):
        lbs = []
        for h_b, h_e, kbar in _dpc_oracle_problems():
            plan = scheme.build_dpc_plan(h_b, h_e, kbar, mode)
            rates_u, fictitious, leakage = dpc_oracle(plan, h_e)
            assert np.max(np.abs(plan.rates_u_bits - rates_u)) <= 1e-12
            assert np.max(np.abs(plan.fictitious_rates_bits - fictitious)) <= 1e-12
            want = np.maximum(rates_u - leakage, 0.0)
            assert np.max(np.abs(plan.rates_bits - want)) <= 1e-12
            lbs.append(secrecy.secrecy_capacity_cov(h_b, h_e, kbar).lb)
        # The lb = 0, lb = n and rank-1 problems.
        assert lbs[-3:] == [0, 4, 1]


class TestBuildBroadcastPlan:
    def test_dead_second_user(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        plan = scheme.build_broadcast_plan(h_b, np.zeros((2, 2)), np.eye(2))
        assert plan.lc == 0
        assert np.isclose(np.sum(plan.bob_rates_bits),
                          secrecy.gaussian_mi(h_b, np.eye(2)), atol=1e-8)

    def test_equal_channels(self, rng):
        h = complex_gaussian(rng, 2, 2)
        plan = scheme.build_broadcast_plan(h, h, np.eye(2))
        assert np.sum(plan.bob_rates_bits) <= 1e-8
        assert np.sum(plan.charlie_rates_bits) <= 1e-8

    def test_totals_hit_both_corners(self, rng):
        for _ in range(5):
            h_b = complex_gaussian(rng, 2, 2)
            h_c = complex_gaussian(rng, 2, 2)
            kbar = random_psd(rng, 2)
            plan = scheme.build_broadcast_plan(h_b, h_c, kbar)
            region = secrecy.broadcast_region(h_b, h_c, kbar)
            assert np.isclose(np.sum(plan.bob_rates_bits), region.rb_max, atol=1e-8)
            assert np.isclose(np.sum(plan.charlie_rates_bits), region.rc_max,
                              atol=1e-8)

    def test_combiner_shapes(self, rng):
        h_b = complex_gaussian(rng, 4, 3)
        h_c = complex_gaussian(rng, 2, 3)
        plan = scheme.build_broadcast_plan(h_b, h_c, np.eye(3))
        assert plan.bob_combiner.shape == (4, plan.lb)
        assert plan.charlie_combiner.shape == (2, plan.lc)
        assert plan.lb + plan.lc == 3


def _nine_calls(h_b, h_e, kbar):
    """The capacity, GSV, region and plan calls of one problem, by label."""
    calls = {"capacity": lambda: secrecy.secrecy_capacity_cov(h_b, h_e, kbar),
             "gsv": lambda: secrecy.channel_gsv(h_b, h_e, kbar),
             "region": lambda: secrecy.broadcast_region(h_b, h_e, kbar),
             "dpc": lambda: scheme.build_dpc_plan(h_b, h_e, kbar),
             "broadcast": lambda: scheme.build_broadcast_plan(h_b, h_e, kbar)}
    for mode in scheme.PRECODER_MODES:
        calls[mode] = lambda mode=mode: scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
    return calls


def _bits(result):
    """Field digests of a result dataclass, or of the bytes of an array."""
    if dataclasses.is_dataclass(result):
        return _golden_digests(result)
    return hashlib.sha256(result.tobytes()).hexdigest()


class TestSolveMemo:
    """The calls on one problem share its root, GSVD kernel and capacity solve."""

    def test_cold_and_warm_calls_are_bit_identical(self):
        for h_b, h_e, kbar in _factor_problems() + [wiretap_instance(np.random.default_rng(7))]:
            other = (h_b, h_e, 2.0 * kbar + np.eye(kbar.shape[0]))
            for label, call in _nine_calls(h_b, h_e, kbar).items():
                secrecy.secrecy_capacity_cov(*other)
                cold = _bits(call())
                # Warm: after every call on the same problem.
                for warm in _nine_calls(h_b, h_e, kbar).values():
                    warm()
                assert _bits(call()) == cold, label

    def test_returned_arrays_are_read_only(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        arrays = [secrecy.secrecy_capacity_cov(h_b, h_e, kbar).gsv,
                  secrecy.secrecy_capacity_cov(h_b, h_e, kbar).k_star,
                  secrecy.channel_gsv(h_b, h_e, kbar),
                  scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd").base.b_sqrt,
                  scheme.build_broadcast_plan(h_b, h_e, kbar).b_sqrt]
        before = {label: _bits(call()) for label, call in _nine_calls(h_b, h_e, kbar).items()}
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0
        after = {label: _bits(call()) for label, call in _nine_calls(h_b, h_e, kbar).items()}
        assert after == before

    def test_a_gsv_call_first_leaves_one_solve_for_every_call(self, rng, monkeypatch):
        # The capacity-first order gives the reference bits; after a GSV call the
        # first plan adds the capacity solve to the kept root and kernel, and the
        # ``gsvd`` plan the kernel and QL of ``k_star``'s factor; the broadcast plan
        # takes the QL of the kept kernel of ``kbar``.
        h_b, h_e, kbar = wiretap_instance(rng)
        want = {label: _bits(call()) for label, call in _nine_calls(h_b, h_e, kbar).items()}
        secrecy.secrecy_capacity_cov(h_b, h_e, kbar + np.eye(kbar.shape[0]))
        calls = count_calls(monkeypatch, secrecy, ("matrix_sqrt", "_gsvd_kernel", "_kernel_ql"))
        plan_calls = count_calls(monkeypatch, scheme, ("_kernel_ql",))
        order = ["gsv", "gsvd"] + [label for label in want if label not in ("gsv", "gsvd")]
        calls_on_problem = _nine_calls(h_b, h_e, kbar)
        assert {label: _bits(calls_on_problem[label]()) for label in order} == want
        assert sorted(calls + plan_calls) == ["_gsvd_kernel", "_gsvd_kernel", "_kernel_ql",
                                              "_kernel_ql", "matrix_sqrt"]
        plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        assert len(calls + plan_calls) == 5
        for a in (plan.base.b_sqrt, plan.base.va, plan.base.u_tilde,
                  secrecy.secrecy_capacity_cov(h_b, h_e, kbar).k_star,
                  *secrecy._last.k_star_kernel):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0

    def test_an_optimal_kernel_never_joins_another_problem(self, rng, monkeypatch):
        # As if another thread kept its problem while this plan formed its optimal kernel.
        mine, other, third = [wiretap_instance(rng) for _ in range(3)]
        want = [_bits(scheme.build_wiretap_plan(*p, "gsvd")) for p in (mine, other)]
        secrecy.secrecy_capacity_cov(*third)
        secrecy.secrecy_capacity_cov(*mine)
        kernel_ql = secrecy._kernel_ql

        def interleaved(*args):
            monkeypatch.setattr(secrecy, "_kernel_ql", kernel_ql)
            secrecy.secrecy_capacity_cov(*other)
            return kernel_ql(*args)

        monkeypatch.setattr(secrecy, "_kernel_ql", interleaved)
        assert _bits(scheme.build_wiretap_plan(*mine, "gsvd")) == want[0]
        assert _bits(scheme.build_wiretap_plan(*other, "gsvd")) == want[1]

    def test_broadcast_precoder_is_the_gsvd_precoder_of_the_pair(self, rng):
        h_b, h_c = complex_gaussian(rng, 4, 3), complex_gaussian(rng, 2, 3)
        for kbar in [random_psd(rng, 3), random_psd(rng, 3, 1), random_psd(rng, 3, 2),
                     np.zeros((3, 3))]:
            b = secrecy.matrix_sqrt(kbar)
            va = scheme.select_precoder(h_b, h_c, b, "gsvd")
            assert np.array_equal(scheme.build_broadcast_plan(h_b, h_c, kbar).va, va)

    def test_a_gsv_lost_to_zero_is_refused_by_the_broadcast_plan(self):
        # The region's check, before any overflow of the diagonals or log of the 0.
        h_b = np.array([[3.73783907e169, 3.88947911e168, -3.07600693e169]])
        h_c = np.array([[-3.12195599e295, 1.50185864e295, -6.88618242e295]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="out of range: the kernel lost it to 0"):
                scheme.build_broadcast_plan(h_b, h_c, np.eye(3))

    def test_stacked_kbar_is_refused_by_the_broadcast_plan(self, rng):
        with pytest.raises(DomainError, match="covariance must be a square matrix"):
            scheme.build_broadcast_plan(np.eye(2), np.eye(2), np.stack([np.eye(2)] * 2))


class TestSimulateSic:
    def test_dead_channel(self):
        plan = scheme.build_sic_plan(np.zeros((2, 2)), np.eye(2), np.eye(2))
        rep = scheme.simulate_sic(plan, np.zeros((2, 2)), 2000, seed=0)
        assert np.all(rep.sinr_empirical <= 1e-6)

    def test_scalar_unit_gain(self):
        plan = scheme.build_sic_plan(np.eye(1), np.eye(1), np.eye(1))
        rep = scheme.simulate_sic(plan, np.eye(1), 100000, seed=1)
        assert abs(rep.sinr_empirical[0] - 1.0) <= 0.03

    def test_genie_matches_analytic(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        k = random_psd(rng, 3)
        va = decomp.haar_unitary(3, rng)
        plan = scheme.build_sic_plan(h_b, secrecy.matrix_sqrt(k), va)
        rep = scheme.simulate_sic(plan, h_b, 100000, seed=2, genie=True)
        active = plan.sinr > 1e-9
        assert np.all(rep.sinr_rel_error[active] <= 0.02)
        assert rep.within_bands()

    def test_reproducible(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        plan = scheme.build_sic_plan(h_b, np.eye(2), np.eye(2))
        a = scheme.simulate_sic(plan, h_b, 30000, seed=5)
        b = scheme.simulate_sic(plan, h_b, 30000, seed=5)
        assert np.array_equal(a.sinr_empirical, b.sinr_empirical)

    def test_thread_count_does_not_change_results(self, rng, monkeypatch):
        h_b = complex_gaussian(rng, 2, 2)
        plan = scheme.build_sic_plan(h_b, np.eye(2), np.eye(2))
        use_cpus(monkeypatch, 1)
        baseline = scheme.simulate_sic(plan, h_b, 50000, seed=5)
        use_cpus(monkeypatch, 4)
        threaded = scheme.simulate_sic(plan, h_b, 50000, seed=5)
        assert np.array_equal(baseline.sinr_empirical, threaded.sinr_empirical)

    @pytest.mark.parametrize("cpus, cpu_count, samples, workers", [
        (2, 8, 5 * 16384, 2),
        (4, 8, 3 * 16384, 3),
        (1, 8, 5 * 16384, 1),
        (4, 8, 100, 1),
        (None, 4, 5 * 16384, 4),
        (None, None, 5 * 16384, 1),
    ])
    def test_thread_pool_is_capped(self, rng, monkeypatch, cpus, cpu_count, samples, workers):
        # The pool is faked: a chunk runs when its result is taken, so the
        # chunks submitted and not yet taken are the ones alive at once.
        seen, waiting, peak = [], [], [0]

        class Deferred:
            def __init__(self, fn, args):
                self.call = lambda: fn(*args)
                waiting.append(self)
                peak[0] = max(peak[0], len(waiting))

            def result(self):
                waiting.remove(self)
                return self.call()

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return Deferred(fn, args)

        h_b = complex_gaussian(rng, 2, 2)
        plan = scheme.build_sic_plan(h_b, np.eye(2), np.eye(2))
        baseline = scheme.simulate_sic(plan, h_b, samples, seed=5)
        monkeypatch.setattr(scheme, "ThreadPoolExecutor", RecordingPool)
        use_cpus(monkeypatch, cpus, cpu_count)
        capped = scheme.simulate_sic(plan, h_b, samples, seed=5)
        assert seen == [workers]
        assert waiting == [] and peak[0] == min(len(scheme._chunks(samples)),
                                                   scheme._IN_FLIGHT * workers)
        assert np.array_equal(baseline.sinr_empirical, capped.sinr_empirical)

    @pytest.mark.parametrize("blas, workers", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "3"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4),
        ({"MKL_NUM_THREADS": "two", "OMP_NUM_THREADS": "1"}, 5),
    ])
    def test_pool_leaves_blas_its_cpus(self, rng, monkeypatch, blas, workers):
        # BLAS takes the first positive count of its thread variables, else
        # every CPU, so of 8 CPUs the pool gets one per BLAS thread count.
        seen = []

        def recording_pool(max_workers):
            seen.append(max_workers)
            return ThreadPoolExecutor(max_workers=1)

        h_b = complex_gaussian(rng, 2, 2)
        plan = scheme.build_sic_plan(h_b, np.eye(2), np.eye(2))
        monkeypatch.setattr(scheme, "ThreadPoolExecutor", recording_pool)
        use_cpus(monkeypatch, 8, blas=blas)
        scheme.simulate_sic(plan, h_b, 5 * 16384, seed=5)
        assert seen == [workers]

    def test_non_genie_runs(self, rng):
        h_b = 3.0 * complex_gaussian(rng, 3, 3)
        plan = scheme.build_sic_plan(h_b, np.eye(3), np.eye(3))
        rep = scheme.simulate_sic(plan, h_b, 20000, seed=3, genie=False)
        assert not rep.genie
        assert np.all(np.isfinite(rep.sinr_empirical))

    def test_last_non_genie_stream_equals_genie(self, rng):
        # The last stream is decoded first, before anything is fed back.
        h_b = 3.0 * complex_gaussian(rng, 3, 3)
        plan = scheme.build_sic_plan(h_b, np.eye(3), decomp.haar_unitary(3, rng))
        genie = scheme.simulate_sic(plan, h_b, 20000, seed=4, genie=True)
        decided = scheme.simulate_sic(plan, h_b, 20000, seed=4, genie=False)
        assert decided.sinr_empirical[-1] == genie.sinr_empirical[-1]

    def test_rejects_zero_samples(self, rng):
        plan = scheme.build_sic_plan(np.eye(2), np.eye(2), np.eye(2))
        with pytest.raises(DomainError):
            scheme.simulate_sic(plan, np.eye(2), 0, seed=0)


class TestSimulateLeakage:
    def test_dead_eavesdropper(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        h_e = np.zeros((2, 2))
        plan = scheme.build_wiretap_plan(h_b, h_e, np.eye(2), "gsvd")
        rep = scheme.simulate_leakage(plan, h_e, 20000, seed=0)
        assert np.all(np.abs(rep.leakage_bits) <= 0.01)

    def test_memory_is_flat_in_samples(self, monkeypatch):
        # Each chunk's block Grams are added to running totals, not kept to
        # the end: summing 512 chunks must hold no more than summing 64.
        h = np.ones((1, 1))
        plan = scheme.build_wiretap_plan(h, h, np.eye(1), "gsvd")
        use_cpus(monkeypatch, 1)
        scheme.simulate_leakage(plan, h, scheme._CHUNK, seed=1)  # one-time allocations
        peaks = []
        for chunks in (64, 512):
            tracemalloc.start()
            try:
                scheme.simulate_leakage(plan, h, chunks * scheme._CHUNK, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024, peaks

    def test_exact_covariance_oracle(self, rng):
        # The conditional-MI formula on the *analytic* covariance must equal
        # the fictitious rates exactly; the empirical estimate approaches it.
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        base = plan.base
        f = h_e @ base.b_sqrt @ base.va
        n, n_e = 3, h_e.shape[0]
        cov = np.block([
            [np.eye(n), f.conj().T],
            [f, f @ f.conj().T + np.eye(n_e)],
        ])
        eav = list(range(n, n + n_e))
        for k in range(n):
            tail = list(range(k + 1, n))
            exact = conditional_mi_bits(cov, [k], eav, tail)
            assert np.isclose(exact, 2 * np.log2(plan.diag_e[k]), atol=1e-9)

    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_exact_factor_gives_fictitious_rates(self, mode):
        # The leakage route on the exact (x, z) covariance, I, returns the
        # fictitious rates.
        for h_b, h_e, kbar in _factor_problems():
            plan = scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
            f = h_e @ plan.base.b_sqrt @ plan.base.va
            leak = scheme._leakage_bits(f, np.eye(sum(f.shape)))
            assert np.max(np.abs(leak - 2.0 * np.log2(plan.diag_e))) <= 1e-12

    def test_empirical_matches_expected(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        rep = scheme.simulate_leakage(plan, h_e, 100000, seed=11)
        expected = rep.leakage_expected
        active = expected > 0.1
        rel = np.abs(rep.leakage_bits - expected)[active] / expected[active]
        assert np.all(rel <= 0.03)
        assert rep.within_bands()

    def test_insufficient_samples(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        with pytest.raises(InsufficientSamples):
            scheme.simulate_leakage(plan, h_e, 10, seed=0)

    def test_insufficient_samples_names_samples(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        with pytest.raises(InsufficientSamples, match="'samples' must be at least 250"):
            scheme.simulate_leakage(plan, h_e, 249, seed=0)

    def test_scalar_unit_eavesdropper_gain(self):
        # d = 1 on the single stream, so the leakage is one bit.
        h_b = np.array([[3.0]])
        h_e = np.array([[1.0]])
        plan = scheme.build_wiretap_plan(h_b, h_e, np.eye(1), "svd_eve")
        assert np.isclose(plan.fictitious_rates_bits[0], 1.0, atol=1e-12)
        rep = scheme.simulate_leakage(plan, h_e, 100000, seed=21)
        assert abs(rep.leakage_bits[0] - 1.0) <= 0.03


class TestSimulateDpc:
    def test_matches_sic_when_no_interference(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar, mode="svd_bob")
        dpc = scheme.simulate_dpc(plan, h_b, 50000, seed=7)
        sic = scheme.simulate_sic(plan.base, h_b, 50000, seed=7, genie=True)
        assert np.allclose(dpc.sinr_empirical, sic.sinr_empirical, rtol=1e-9)

    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_equals_genie_sic(self, rng, mode):
        # Ideal presubtraction and genie cancellation see the same residuals.
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar, mode=mode)
        dpc = scheme.simulate_dpc(plan, h_b, 40000, seed=7)
        sic = scheme.simulate_sic(plan.base, h_b, 40000, seed=7, genie=True)
        assert np.array_equal(dpc.sinr_empirical, sic.sinr_empirical)
        assert np.array_equal(dpc.sinr_analytic, plan.base.diag_b ** 2 - 1.0)

    def test_alpha_is_mmse_minimizer(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar, mode="gsvd")
        rep = scheme.simulate_dpc(plan, h_b, 100000, seed=8)
        assert rep.extras["alpha_bracket_ok"]
        active = plan.alpha > 1e-9
        assert np.all(rep.extras["alpha_residual"][active]
                      < rep.extras["alpha_residual_below"][active])
        assert np.all(rep.extras["alpha_residual"][active]
                      < rep.extras["alpha_residual_above"][active])

    def test_sinr_matches_analytic(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar)
        rep = scheme.simulate_dpc(plan, h_b, 100000, seed=9)
        active = rep.sinr_analytic > 1e-9
        assert np.all(rep.sinr_rel_error[active] <= 0.02)
        assert rep.within_bands()


class TestSimulateBroadcast:
    def test_per_user_sinrs(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        h_c = complex_gaussian(rng, 2, 3)
        plan = scheme.build_broadcast_plan(h_b, h_c, np.eye(3))
        rep = scheme.simulate_broadcast(plan, h_b, h_c, 100000, seed=10)
        active = rep.sinr_analytic > 1e-9
        assert np.all(rep.sinr_rel_error[active] <= 0.02)
        assert rep.within_bands()
        assert rep.extras["lb"] == plan.lb

    @pytest.mark.parametrize("silent, lb", [("bob", 0), ("charlie", 3)])
    def test_single_user_plan(self, rng, monkeypatch, silent, lb):
        h_b = complex_gaussian(rng, 3, 3)
        h_c = complex_gaussian(rng, 2, 3)
        if silent == "bob":
            h_b = np.zeros_like(h_b)
        else:
            h_c = np.zeros_like(h_c)
        plan = scheme.build_broadcast_plan(h_b, h_c, np.eye(3))
        assert (plan.lb, plan.lc) == (lb, 3 - lb)
        use_cpus(monkeypatch, 1)
        rep = scheme.simulate_broadcast(plan, h_b, h_c, 100000, seed=12)
        diag = plan.diag_b if lb else plan.diag_c
        assert np.array_equal(rep.sinr_analytic, diag ** 2 - 1.0)
        active = rep.sinr_analytic > 1e-9
        assert np.all(rep.sinr_rel_error[active] <= 0.02)
        assert rep.within_bands()
        use_cpus(monkeypatch, 2)
        threaded = scheme.simulate_broadcast(plan, h_b, h_c, 100000, seed=12)
        assert np.array_equal(rep.sinr_empirical, threaded.sinr_empirical)


def _gaussian_rows(seed, kind, streams, chunk_index, size):
    """CN(0, 1) rows, one Philox substream per (seed, kind, stream, chunk);
    each gives its row's real parts, then its imaginary parts."""
    out = np.empty((streams, size), dtype=complex)
    for s in range(streams):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence((seed, kind, s, chunk_index))))
        parts = gen.standard_normal((2, size))
        out[s] = parts[0] + 1j * parts[1]
    return out * np.sqrt(0.5)


def _sample_decode(receivers, n, samples, seed, recon=None):
    """``scheme._decode`` as a per-sample cancellation loop, chunk by chunk."""
    power_x, power_w = np.zeros(n), np.zeros(n)
    cross_xw = np.zeros(n, dtype=complex)
    for chunk_index, size in enumerate(scheme._chunks(samples)):
        x = _gaussian_rows(seed, scheme._KIND_SYMBOL, n, chunk_index, size)
        fed = x if recon is None else np.zeros_like(x)
        for combiner, front, feedback, first, noise_kind in receivers:
            z = _gaussian_rows(seed, noise_kind, front.shape[0], chunk_index, size)
            observed = combiner.conj().T @ (front @ x + z)
            for j in range(feedback.shape[0] - 1, -1, -1):
                i = first + j
                w = observed[j] - feedback[j, i + 1:] @ fed[i + 1:]
                if recon is not None:
                    fed[i] = recon[i] * w
                w = w - feedback[j, i] * x[i]
                power_x[i] += np.sum(np.abs(x[i]) ** 2)
                power_w[i] += np.sum(np.abs(w) ** 2)
                cross_xw[i] += np.sum(x[i] * np.conj(w))
    gain = np.concatenate([np.abs(np.diag(feedback[:, first:])) ** 2
                           for _, _, feedback, first, _ in receivers])
    return gain, power_x, power_w, cross_xw


class TestSampleDecoderOracle:
    """The Gram route of ``scheme._decode`` against a per-sample loop."""

    @pytest.mark.parametrize("mode", scheme.PRECODER_MODES)
    def test_reports_match_per_sample_loop(self, monkeypatch, mode):
        rng = np.random.default_rng(6006)
        problems = [(complex_gaussian(rng, n + 1, n), complex_gaussian(rng, n, n),
                     random_psd(rng, n) / n) for n in range(1, 5)]

        def values():
            out = []
            for h_b, h_e, kbar in problems:
                dpc = scheme.build_dpc_plan(h_b, h_e, kbar, mode)
                reports = [scheme.simulate_sic(dpc.base, h_b, 40000, 3, genie)
                           for genie in (True, False)]
                reports.append(scheme.simulate_dpc(dpc, h_b, 40000, 3))
                reports.append(scheme.simulate_broadcast(
                    scheme.build_broadcast_plan(h_b, h_e, kbar), h_b, h_e, 40000, 3))
                out += [rep.sinr_empirical for rep in reports]
                out += [reports[2].extras[key] for key in
                        ("alpha_residual", "alpha_residual_below", "alpha_residual_above")]
            return out

        gram = values()
        monkeypatch.setattr(scheme, "_decode", _sample_decode)
        for got, want in zip(gram, values(), strict=True):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _golden_reports():
    """Simulator reports pinned bit for bit by :class:`TestGoldenReports`.

    40,000 samples make two full chunks and a partial last one.  The
    wiretap problem has ``n_b != n_e``; the broadcast problems cover
    ``lb = 0``, ``0 < lb < n`` and ``lb = n``.  The plans come from LAPACK,
    so another numpy or BLAS build may move the last bits of the values.
    """
    rng = np.random.default_rng(7001)
    h_b, h_e = complex_gaussian(rng, 4, 3), complex_gaussian(rng, 2, 3)
    plan = scheme.build_wiretap_plan(h_b, h_e, np.eye(3), "gsvd")
    dpc = scheme.build_dpc_plan(h_b, h_e, np.eye(3))
    reports = {
        "sic_genie": scheme.simulate_sic(plan.base, h_b, 40000, seed=35),
        "sic_decided": scheme.simulate_sic(plan.base, h_b, 40000, seed=35, genie=False),
        "leakage": scheme.simulate_leakage(plan, h_e, 40000, seed=12),
        "dpc": scheme.simulate_dpc(dpc, h_b, 40000, seed=35),
    }
    h_b, h_c = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 2, 3)
    for name, pair in [("broadcast_lb0", (np.zeros_like(h_b), h_c)),
                       ("broadcast_mixed", (h_b, h_c)),
                       ("broadcast_lbn", (h_b, np.zeros_like(h_c)))]:
        bc = scheme.build_broadcast_plan(*pair, np.eye(3))
        reports[name] = scheme.simulate_broadcast(bc, *pair, 40000, seed=14)
    return reports


def _golden_fields(rep):
    fields = {"sinr_empirical": rep.sinr_empirical, "sinr_stderr": rep.sinr_stderr,
              "mi_bits": rep.mi_bits}
    if rep.leakage_bits is not None:
        fields.update(leakage_bits=rep.leakage_bits, leakage_stderr=rep.leakage_stderr)
    if rep.scheme == "dpc":
        # The cross sums reach a report only through the alpha residuals.
        fields.update({k: rep.extras[k] for k in ("alpha_residual", "alpha_residual_below",
                                                  "alpha_residual_above")})
    return {k: [float(v).hex() for v in np.atleast_1d(value)] for k, value in fields.items()}


#: ``float.hex`` of the fields.  All seven were re-recorded when every
#: simulator began to read its sums off one Gram of its draws: they moved in
#: their last bits (at most 5.2e-16 relative, and 3e-16 bits on the leakages).
#: The SINR fields (and the DPC alpha residuals) moved again, by at most 1.0e-15
#: relative, when the plans began to read their factors off the precoder's own
#: factorization.
GOLDEN_REPORTS = {
    "sic_genie": {
        "sinr_empirical": ["0x1.b7a5e92a72ffdp+1", "0x1.6a2e212d92d08p+1", "0x0.0p+0"],
        "sinr_stderr": ["0x1.8dec8cf3b7a38p-6", "0x1.47cedf0b99387p-6", "0x0.0p+0"],
        "mi_bits": ["0x1.05815fd7a9acep+2"],
    },
    "sic_decided": {
        "sinr_empirical": ["0x1.38ee327e18b2bp+1", "0x1.6a2e212d92d08p+1", "0x0.0p+0"],
        "sinr_stderr": ["0x1.1b3b793a575c3p-6", "0x1.47cedf0b99387p-6", "0x0.0p+0"],
        "mi_bits": ["0x1.dc5c97c1fd07fp+1"],
    },
    "leakage": {
        "sinr_empirical": ["0x1.b54d661ec09abp+1", "0x1.6c348a314cb1fp+1", "0x0.0p+0"],
        "sinr_stderr": ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
        "mi_bits": ["0x1.03e6f05585dc0p+1"],
        "leakage_bits": ["0x1.f579200183a95p-2", "0x1.8a69a1f4af97ap+0", "0x1.7dad7ecd7ce40p-14"],
        "leakage_stderr": [
            "0x1.1ab22a028bc39p-8", "0x1.0af7bafcf07cep-8", "0x1.450520aa29c60p-13",
        ],
    },
    "dpc": {
        "sinr_empirical": ["0x1.b7a5e92a72ffdp+1", "0x1.6a2e212d92d08p+1", "0x0.0p+0"],
        "sinr_stderr": ["0x1.8dec8cf3b7a38p-6", "0x1.47cedf0b99387p-6", "0x0.0p+0"],
        "mi_bits": ["0x1.05815fd7a9acep+2"],
        "alpha_residual": ["0x1.3198c7de57cbdp-1", "0x1.18d061e266ae7p-1", "0x0.0p+0"],
        "alpha_residual_below": ["0x1.3c10babe2d0ccp-1", "0x1.20703844fa287p-1", "0x0.0p+0"],
        "alpha_residual_above": ["0x1.3c46074d14beap-1", "0x1.213a28fc83efcp-1", "0x0.0p+0"],
    },
    "broadcast_lb0": {
        "sinr_empirical": [
            "0x1.146810c48ebc2p-103", "0x1.54758a0d6546dp+1", "0x1.1dfa4791fceadp+2",
        ],
        "sinr_stderr": ["0x1.f4596694d3014p-111", "0x1.3425ffda034ccp-6", "0x1.02d66187a3df9p-5"],
        "mi_bits": ["0x1.14aa5e0fe1907p+2"],
    },
    "broadcast_mixed": {
        "sinr_empirical": ["0x1.e5f4855ff4f09p+2", "0x1.17e37d92fb0acp+2", "0x1.07274c34614e1p+2"],
        "sinr_stderr": ["0x1.b7d61e718813fp-5", "0x1.faa70d680e109p-6", "0x1.dc5bd5bd5388dp-6"],
        "mi_bits": ["0x1.f87fa8e8958b2p+2"],
    },
    "broadcast_lbn": {
        "sinr_empirical": ["0x1.9839b4f213075p+3", "0x1.85bbb2760588ap+1", "0x1.12d02ff4bf7c1p-3"],
        "sinr_stderr": ["0x1.717bc4ad9ea3fp-4", "0x1.60bf082483c5ap-6", "0x1.f1770ff648cc5p-11"],
        "mi_bits": ["0x1.7eb56377c998fp+2"],
    },
}


class TestGoldenReports:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_reports_are_bit_identical(self, monkeypatch, cpus):
        use_cpus(monkeypatch, cpus)
        reports = _golden_reports()
        assert (reports["broadcast_lb0"].extras["lb"], reports["broadcast_mixed"].extras["lb"],
                reports["broadcast_lbn"].extras["lb"]) == (0, 2, 3)
        assert {name: _golden_fields(rep) for name, rep in reports.items()} == GOLDEN_REPORTS


def _golden_plans():
    """Capacity, plan and power-search results pinned by :class:`TestGoldenPlans`.

    The problems are square at n = 2, 4 and 8 with a random ``kbar``, plus a
    4x4 pair under a rank-1 ``kbar``.  Like the reports, the values come
    from LAPACK, so another numpy or BLAS build may move their last bits.
    """
    rng = np.random.default_rng(9001)
    results = {}
    for n, rank in [(2, None), (4, None), (8, None), (4, 1)]:
        h_b, h_e = complex_gaussian(rng, n, n), complex_gaussian(rng, n, n)
        kbar = random_psd(rng, n, rank) / n
        name = f"n{n}" if rank is None else f"n{n}_rank{rank}"
        results[f"{name}_capacity"] = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        for mode in scheme.PRECODER_MODES:
            results[f"{name}_wiretap_{mode}"] = scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
        results[f"{name}_dpc"] = scheme.build_dpc_plan(h_b, h_e, kbar)
        results[f"{name}_broadcast"] = scheme.build_broadcast_plan(h_b, h_e, kbar)
    results["n4_power"] = secrecy.power_constrained_capacity(
        complex_gaussian(rng, 4, 4), complex_gaussian(rng, 3, 4), 2.0, budget=60, seed=5)
    return results


def _golden_digests(result, prefix=""):
    """sha256 (first 16 hex digits) of the bytes of every field, nested plans flattened."""
    out = {}
    for item in dataclasses.fields(result):
        value = getattr(result, item.name)
        if dataclasses.is_dataclass(value):
            out.update(_golden_digests(value, f"{prefix}{item.name}."))
        else:
            data = value.encode() if isinstance(value, str) else np.asarray(value).tobytes()
            out[prefix + item.name] = hashlib.sha256(data).hexdigest()[:16]
    return out


#: Field digests of :func:`_golden_plans`.  Every wiretap, DPC and broadcast
#: entry was re-recorded when the plans began to build on the capacity call's
#: factor of ``k_star`` and on one QR per receiver; the capacity entries and
#: ``n4_power`` kept their bits.  The ``*_wiretap_gmd_bob`` entries at n >= 4
#: and the rates of every ``*_dpc`` entry were re-recorded again when the GMD
#: precoder began to plan its rotations on the singular values alone and the
#: DPC rates to read conditional variances off QRs instead of ``slogdet``.
#: They moved once more, by at most 2.2e-15 bits, when the DPC plan began to
#: take them in closed form from the wiretap plan it builds on.  ``n4_power``
#: was re-recorded when the power search began to rank candidates on their own
#: factors: its bound went from 4.413693557123825 to 4.465190869281963 bits.
#: Every wiretap, DPC and broadcast entry moved by rounding (at most 1.4e-14
#: relative) when each plan began to read its factors off its precoder's own
#: factorization instead of a QR.
GOLDEN_PLANS = {
    "n2_capacity": {
        "gsv": "1439496734e55dc3", "lb": "7c9fa136d4413fa6",
        "capacity_bits": "4dfaec4a6066d3c7", "k_star": "e00381e5e7bf6859",
    },
    "n2_wiretap_gsvd": {
        "base.va": "282194ea47e31527", "base.b_sqrt": "6eb9836c41efe84a",
        "base.u_tilde": "8ba532a95c9ac59d", "base.t_tilde": "addc55c7891d9b46",
        "base.diag_b": "19062dbd692a1210", "base.sinr": "a604c3aad156e209",
        "base.rates_bits": "38cd73c1737536db", "diag_e": "0fc071baecf1a712",
        "secret_rates_bits": "7d5ab64ccc339c71", "fictitious_rates_bits": "b111478e3abfc667",
        "mode": "ce714a5f246ce96c",
    },
    "n2_wiretap_svd_eve": {
        "base.va": "f063aa5b7fadf303", "base.b_sqrt": "6eb9836c41efe84a",
        "base.u_tilde": "c6a9dd3e061b675b", "base.t_tilde": "06516b35e103ca37",
        "base.diag_b": "19062dbd692a1210", "base.sinr": "a604c3aad156e209",
        "base.rates_bits": "38cd73c1737536db", "diag_e": "0fc071baecf1a712",
        "secret_rates_bits": "7d5ab64ccc339c71", "fictitious_rates_bits": "b111478e3abfc667",
        "mode": "c73ddb487405eaa4",
    },
    "n2_wiretap_svd_bob": {
        "base.va": "c24935314c7a024a", "base.b_sqrt": "6eb9836c41efe84a",
        "base.u_tilde": "411fd834bd48dd82", "base.t_tilde": "68fb6dbd6f42b8d0",
        "base.diag_b": "607b3dd82a0278f2", "base.sinr": "d3238c8c6d80440c",
        "base.rates_bits": "b7912ca83fec0203", "diag_e": "31c1b66e6f96984f",
        "secret_rates_bits": "ec6dfd3597be9987", "fictitious_rates_bits": "5bd2895c434af85a",
        "mode": "5d59e8d2fd898c63",
    },
    "n2_wiretap_gmd_bob": {
        "base.va": "e83e07180e4abed7", "base.b_sqrt": "6eb9836c41efe84a",
        "base.u_tilde": "e85c65cdfde17195", "base.t_tilde": "161842e1f93e55f4",
        "base.diag_b": "305111620c3daac2", "base.sinr": "64b1ce8c7571dca4",
        "base.rates_bits": "37e5eeb326e19bef", "diag_e": "0f48841ab6c71aeb",
        "secret_rates_bits": "ad158ac245072659", "fictitious_rates_bits": "9bea642871a112f7",
        "mode": "31a090f4630fe02d",
    },
    "n2_dpc": {
        "base.va": "282194ea47e31527", "base.b_sqrt": "6eb9836c41efe84a",
        "base.u_tilde": "8ba532a95c9ac59d", "base.t_tilde": "addc55c7891d9b46",
        "base.diag_b": "19062dbd692a1210", "base.sinr": "a604c3aad156e209",
        "base.rates_bits": "38cd73c1737536db", "diag_e": "0fc071baecf1a712",
        "alpha": "254eb9c80cc21812", "rates_bits": "7d5ab64ccc339c71",
        "fictitious_rates_bits": "b111478e3abfc667", "rates_u_bits": "a653ede6d52bfa60",
    },
    "n2_broadcast": {
        "lb": "7c9fa136d4413fa6", "lc": "7c9fa136d4413fa6", "va": "f1e42fa886e6f1c2",
        "b_sqrt": "8068cd47ce6fa401", "diag_b": "a9efc4cad0c29008",
        "diag_c": "356b5390abf786e3", "bob_combiner": "9511d3510637a235",
        "charlie_combiner": "4532e42ed49964ba", "bob_feedback": "3123af147b1d334d",
        "charlie_feedback": "05570a773da8fef9", "bob_rates_bits": "4dfaec4a6066d3c7",
        "charlie_rates_bits": "275a072fd3d50afb",
    },
    "n4_capacity": {
        "gsv": "25a5eaa32f14075d", "lb": "d86e8112f3c4c444",
        "capacity_bits": "6c2a5a61e9def542", "k_star": "49fbf045f49ca349",
    },
    "n4_wiretap_gsvd": {
        "base.va": "8e01612501560e80", "base.b_sqrt": "b4dc02daebd78ff9",
        "base.u_tilde": "92b21f399e155260", "base.t_tilde": "9819382ff589aaec",
        "base.diag_b": "209c52142dda93ce", "base.sinr": "41741df79f2c39f8",
        "base.rates_bits": "e07a0149930c2765", "diag_e": "bf9753a216fffdf6",
        "secret_rates_bits": "3b8a92f1a9c475f9", "fictitious_rates_bits": "b74316430da9e217",
        "mode": "ce714a5f246ce96c",
    },
    "n4_wiretap_svd_eve": {
        "base.va": "813c7d92676eb5f3", "base.b_sqrt": "b4dc02daebd78ff9",
        "base.u_tilde": "d09a80e711b3e3cd", "base.t_tilde": "b47539bdd21605cf",
        "base.diag_b": "17812008a2ec4fad", "base.sinr": "b55ab65bf0e97ad4",
        "base.rates_bits": "c8053d7fa3915db0", "diag_e": "faf9730362b86b32",
        "secret_rates_bits": "3dbe8a782d22a3d6", "fictitious_rates_bits": "c23376d123a90bf8",
        "mode": "c73ddb487405eaa4",
    },
    "n4_wiretap_svd_bob": {
        "base.va": "81e43edfaf5f3790", "base.b_sqrt": "b4dc02daebd78ff9",
        "base.u_tilde": "951c31288ef4cebb", "base.t_tilde": "4bef82a65e12b13a",
        "base.diag_b": "004c7c9a741a5ca3", "base.sinr": "07653657d3453725",
        "base.rates_bits": "83418b985b651867", "diag_e": "3bc56fc9c7f6f4be",
        "secret_rates_bits": "5bbee256aaf98a83", "fictitious_rates_bits": "0c6ddb78373728a2",
        "mode": "5d59e8d2fd898c63",
    },
    "n4_wiretap_gmd_bob": {
        "base.va": "d90575bd7676e6c9", "base.b_sqrt": "b4dc02daebd78ff9",
        "base.u_tilde": "90af6c6686177b43", "base.t_tilde": "662bee95b2c60fe6",
        "base.diag_b": "79b6f2c1b4e9808c", "base.sinr": "d6ee68081370b4d6",
        "base.rates_bits": "a3011f66e9a83fd4", "diag_e": "7de92319c2114f8c",
        "secret_rates_bits": "9a4ab4ad80717dd7", "fictitious_rates_bits": "8c3b37aecf47347b",
        "mode": "31a090f4630fe02d",
    },
    "n4_dpc": {
        "base.va": "8e01612501560e80", "base.b_sqrt": "b4dc02daebd78ff9",
        "base.u_tilde": "92b21f399e155260", "base.t_tilde": "9819382ff589aaec",
        "base.diag_b": "209c52142dda93ce", "base.sinr": "41741df79f2c39f8",
        "base.rates_bits": "e07a0149930c2765", "diag_e": "bf9753a216fffdf6",
        "alpha": "af2c654cd8bd265d", "rates_bits": "3b8a92f1a9c475f9",
        "fictitious_rates_bits": "b74316430da9e217", "rates_u_bits": "69d21a6e62b5dfca",
    },
    "n4_broadcast": {
        "lb": "d86e8112f3c4c444", "lc": "d86e8112f3c4c444", "va": "e0dd6b07fdf14725",
        "b_sqrt": "955d50ca6953993e", "diag_b": "6beb0dbcce79e617",
        "diag_c": "591359a73e705884", "bob_combiner": "9868d321ea80ba18",
        "charlie_combiner": "b76a687d65b02bec", "bob_feedback": "e6c0dbc38738de06",
        "charlie_feedback": "fdf885ca19aa47a1", "bob_rates_bits": "1ad2eac3aa198458",
        "charlie_rates_bits": "5fadf12e888c741c",
    },
    "n8_capacity": {
        "gsv": "d9261c775f89c8a2", "lb": "35be322d094f9d15",
        "capacity_bits": "d5ec263322feb780", "k_star": "2a9b73dacc0c6137",
    },
    "n8_wiretap_gsvd": {
        "base.va": "bd0e125db4fdad94", "base.b_sqrt": "2cd85208db2f7ec9",
        "base.u_tilde": "000286aa426542ec", "base.t_tilde": "e23c787e24faf9ec",
        "base.diag_b": "147378f82508aa0a", "base.sinr": "ea0abfa72d8b4fce",
        "base.rates_bits": "9d4aba4d5716c3ac", "diag_e": "6f69ffd5d8647dd6",
        "secret_rates_bits": "5ce98714c41c91c9", "fictitious_rates_bits": "539faaca67e389d2",
        "mode": "ce714a5f246ce96c",
    },
    "n8_wiretap_svd_eve": {
        "base.va": "8fa350c779480090", "base.b_sqrt": "2cd85208db2f7ec9",
        "base.u_tilde": "8647b57965daec27", "base.t_tilde": "28ec106b27df4791",
        "base.diag_b": "9420c7eaaac6e874", "base.sinr": "eb58239029f8f91b",
        "base.rates_bits": "43185ad4bd7192d0", "diag_e": "b1ecb71797991054",
        "secret_rates_bits": "7bbfe9be9531fc21", "fictitious_rates_bits": "311050784a5ded5d",
        "mode": "c73ddb487405eaa4",
    },
    "n8_wiretap_svd_bob": {
        "base.va": "aedaa36b61434619", "base.b_sqrt": "2cd85208db2f7ec9",
        "base.u_tilde": "924c18276ff2dda9", "base.t_tilde": "941ee1deacee4308",
        "base.diag_b": "a0d50f122bf568c9", "base.sinr": "1d4136e342b41529",
        "base.rates_bits": "0bffc6233688643e", "diag_e": "21e63c9cc523b66d",
        "secret_rates_bits": "1630b5da9ea3b755", "fictitious_rates_bits": "700544de038a942e",
        "mode": "5d59e8d2fd898c63",
    },
    "n8_wiretap_gmd_bob": {
        "base.va": "57cfd27ab2979df6", "base.b_sqrt": "2cd85208db2f7ec9",
        "base.u_tilde": "5e742930244ba785", "base.t_tilde": "61befc60ca25ea7f",
        "base.diag_b": "2cf5204bcd00a123", "base.sinr": "9769ce45e9b8fb61",
        "base.rates_bits": "f5a4b5726dd1fa61", "diag_e": "f686daee74833fd8",
        "secret_rates_bits": "feb17ac274493d99", "fictitious_rates_bits": "0135eeeb8cc1b116",
        "mode": "31a090f4630fe02d",
    },
    "n8_dpc": {
        "base.va": "bd0e125db4fdad94", "base.b_sqrt": "2cd85208db2f7ec9",
        "base.u_tilde": "000286aa426542ec", "base.t_tilde": "e23c787e24faf9ec",
        "base.diag_b": "147378f82508aa0a", "base.sinr": "ea0abfa72d8b4fce",
        "base.rates_bits": "9d4aba4d5716c3ac", "diag_e": "6f69ffd5d8647dd6",
        "alpha": "3fffbb8fd736563b", "rates_bits": "5ce98714c41c91c9",
        "fictitious_rates_bits": "539faaca67e389d2", "rates_u_bits": "ac4d510c020a5b08",
    },
    "n8_broadcast": {
        "lb": "35be322d094f9d15", "lc": "f13ee6ed54ea2aae", "va": "d6e17055533708be",
        "b_sqrt": "787e32d6c3258428", "diag_b": "7f07ab530ca8c320",
        "diag_c": "ff8dae65224432dc", "bob_combiner": "9f5f393a2e7e7039",
        "charlie_combiner": "4d9eadaec9ae0d08", "bob_feedback": "6a0279cf93f234c5",
        "charlie_feedback": "ba318d8e95d9ff11", "bob_rates_bits": "11679b65f3e3cc90",
        "charlie_rates_bits": "eab18e3b12a9dfad",
    },
    "n4_rank1_capacity": {
        "gsv": "b9164819e91b5e5d", "lb": "7c9fa136d4413fa6",
        "capacity_bits": "02f53c0f98940728", "k_star": "73248eb556cccd27",
    },
    "n4_rank1_wiretap_gsvd": {
        "base.va": "c64dc64c03146b64", "base.b_sqrt": "a691cde7a32080dd",
        "base.u_tilde": "a9b031077f9f2a55", "base.t_tilde": "18bc92d26237314a",
        "base.diag_b": "ae777f1dad825081", "base.sinr": "fe39c675daaf7bba",
        "base.rates_bits": "3c177bdd5c86b099", "diag_e": "49e63971e0ea58c6",
        "secret_rates_bits": "57c854a4b6bc9788", "fictitious_rates_bits": "3b6dfc90cb07a32d",
        "mode": "ce714a5f246ce96c",
    },
    "n4_rank1_wiretap_svd_eve": {
        "base.va": "008ea5de5ce191b4", "base.b_sqrt": "a691cde7a32080dd",
        "base.u_tilde": "26df75eccf25a7a3", "base.t_tilde": "151ec0eed38bb052",
        "base.diag_b": "305f8ea3f969a2cb", "base.sinr": "6b2acb0961ead67d",
        "base.rates_bits": "5f60ec2a2e970c8d", "diag_e": "49e63971e0ea58c6",
        "secret_rates_bits": "d7002b00a18fdf86", "fictitious_rates_bits": "3b6dfc90cb07a32d",
        "mode": "c73ddb487405eaa4",
    },
    "n4_rank1_wiretap_svd_bob": {
        "base.va": "7b339108d5b8b439", "base.b_sqrt": "a691cde7a32080dd",
        "base.u_tilde": "c9c0f3461b58f384", "base.t_tilde": "76ae6c46c6f59feb",
        "base.diag_b": "305f8ea3f969a2cb", "base.sinr": "f88df3daa2f2da40",
        "base.rates_bits": "5f60ec2a2e970c8d", "diag_e": "49e63971e0ea58c6",
        "secret_rates_bits": "d7002b00a18fdf86", "fictitious_rates_bits": "3b6dfc90cb07a32d",
        "mode": "5d59e8d2fd898c63",
    },
    "n4_rank1_wiretap_gmd_bob": {
        "base.va": "897fb0f90d605fe3", "base.b_sqrt": "a691cde7a32080dd",
        "base.u_tilde": "877f7c9845d80052", "base.t_tilde": "6b8ecceab6d7d127",
        "base.diag_b": "5de185477dc1a4f4", "base.sinr": "948bbed94a58af4f",
        "base.rates_bits": "28b496119d42c213", "diag_e": "7ad8824d7cbcd290",
        "secret_rates_bits": "206d6855f3a218f2", "fictitious_rates_bits": "8c0ab46a506dad7b",
        "mode": "31a090f4630fe02d",
    },
    "n4_rank1_dpc": {
        "base.va": "c64dc64c03146b64", "base.b_sqrt": "a691cde7a32080dd",
        "base.u_tilde": "a9b031077f9f2a55", "base.t_tilde": "18bc92d26237314a",
        "base.diag_b": "ae777f1dad825081", "base.sinr": "fe39c675daaf7bba",
        "base.rates_bits": "3c177bdd5c86b099", "diag_e": "49e63971e0ea58c6",
        "alpha": "06091edb304b57d4", "rates_bits": "57c854a4b6bc9788",
        "fictitious_rates_bits": "3b6dfc90cb07a32d", "rates_u_bits": "3c177bdd5c86b099",
    },
    "n4_rank1_broadcast": {
        "lb": "7c9fa136d4413fa6", "lc": "35be322d094f9d15", "va": "de7c6ba3b5c54e0d",
        "b_sqrt": "82266aa35e18d857", "diag_b": "9f01a637f71a8a8b",
        "diag_c": "fa8df4d5359f07ef", "bob_combiner": "9f7c5c3c7e4f65a0",
        "charlie_combiner": "3147f96a892a5bd9", "bob_feedback": "6176ea4837ebd56e",
        "charlie_feedback": "dff14f9a9451c496", "bob_rates_bits": "02f53c0f98940728",
        "charlie_rates_bits": "25ef4d723daf9acc",
    },
    "n4_power": {
        "capacity_lower_bound": "d8fc6b77781afab7", "kbar": "4e7ed278b8c468be",
        "evaluations": "3fe8adee83a670dd",
    },
}


class TestGoldenPlans:
    def test_results_are_bit_identical(self):
        results = _golden_plans()
        assert [results[f"{n}_capacity"].lb for n in ("n2", "n4", "n8", "n4_rank1")] == [
            1, 2, 3, 1]
        assert {name: _golden_digests(res) for name, res in results.items()} == GOLDEN_PLANS


def test_sic_plan_precoder_dimension_named():
    with pytest.raises(DomainError, match="precoder dimension must match") as info:
        scheme.build_sic_plan(np.eye(2), np.eye(2), np.eye(3))
    assert info.type is DomainError
