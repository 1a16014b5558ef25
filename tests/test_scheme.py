import dataclasses
import hashlib
import sys
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
    variables to their values; by default BLAS has one thread.  The kept draw
    is cleared, so the next simulator call draws on those CPUs."""
    monkeypatch.setattr(scheme, "_last_draw", None)
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
        # capacity call that kept the root, kernel, QL and solve of the problem: no plan
        # forms one, as every mode reads ``h_b f va = [(h_b b) P v, 0]`` off the kept pair
        # of ``kbar`` and its own factor ``v`` of the QL's active block; a second plan of a
        # mode and the DPC plan reuse the kept plan, and the broadcast plan reads the
        # products ``h b`` of the kept pair.
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
        assert counts == {"gsvd": 0, "gsvd again": 0, "dpc": 0, "broadcast": 0,
                          "svd_eve": 0, "svd_bob": 0, "gmd_bob": 0}

    @pytest.mark.parametrize("first", scheme.PRECODER_MODES)
    def test_the_four_modes_share_one_block_and_one_bob_svd(self, rng, monkeypatch, first):
        # Whichever mode comes first, the four form no MMSE pair, run no GSVD kernel and take
        # two ``lb x lb`` SVDs of the kept QL's active block: Bob's of ``diag(mu[:lb]) X``
        # once (``svd_bob`` and ``gmd_bob`` share it) and Eve's of ``X`` (``svd_eve``); a DPC
        # plan of each mode after them runs nothing.
        h_b, h_e, kbar = wiretap_instance(rng)
        secrecy.secrecy_capacity_cov(h_b, h_e, 2.0 * kbar)
        lb = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).lb
        pairs = count_calls(monkeypatch, secrecy, ("_mmse_pair", "_gsvd_kernel", "_factor_kernel"))
        svds = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            svds.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        modes = list(scheme.PRECODER_MODES)
        for mode in modes[modes.index(first):] + modes[:modes.index(first)]:
            scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
        assert pairs == [] and lb == 2
        assert svds == [(lb, lb)] * 2
        for mode in modes:
            scheme.build_dpc_plan(h_b, h_e, kbar, mode)
        assert (len(pairs), len(svds)) == (0, 2)

    def test_no_kernel_or_qr_after_the_first_gsvd_plan(self, rng, monkeypatch):
        # After a capacity call the ``gsvd`` plan runs no GSVD kernel, by either name, no
        # ``_factor_kernel``, no QL and no ``np.linalg`` factorization at all: the capacity
        # call's QL of the kernel already made ``(W'R2)[:lb] P`` triangular.  A second
        # ``gsvd`` plan and the DPC plan run nothing either.
        h_b, h_e, kbar = wiretap_instance(rng)
        secrecy.secrecy_capacity_cov(h_b, h_e, 2.0 * kbar)
        secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        kernels = count_calls(monkeypatch, decomp, ("_gsvd_kernel", "_kernel_ql"))
        solves = count_calls(monkeypatch, secrecy,
                             ("_gsvd_kernel", "_factor_kernel", "_kernel_ql"))
        factorizations = count_calls(monkeypatch, np.linalg,
                                     ("qr", "svd", "solve", "eigh", "cholesky", "inv"))
        for call in [lambda: scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd"),
                     lambda: scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd"),
                     lambda: scheme.build_dpc_plan(h_b, h_e, kbar),
                     lambda: scheme.build_dpc_plan(h_b, h_e, kbar, mode="gsvd")]:
            call()
            assert (kernels, solves, factorizations) == ([], [], [])

    def test_arrays_shared_with_the_kept_problem_are_read_only(self, rng):
        # A kept wiretap plan is handed out again, so none of its arrays may change; the
        # DPC plan shares its base, and the broadcast plan the root and kernel.
        h_b, h_e, kbar = wiretap_instance(rng)
        plans = [scheme.build_wiretap_plan(h_b, h_e, kbar, mode) for mode in scheme.PRECODER_MODES]
        dpc = scheme.build_dpc_plan(h_b, h_e, kbar)
        broadcast = scheme.build_broadcast_plan(h_b, h_e, kbar)
        problem = secrecy._last
        shared = [a for plan in plans for a in (*vars(plan.base).values(), plan.diag_e,
                                                 plan.secret_rates_bits,
                                                 plan.fictitious_rates_bits)]
        shared += [*vars(dpc.base).values(), dpc.diag_e, broadcast.b_sqrt,
                   broadcast.bob_combiner]
        shared += [*problem.block, *problem.bob_svd, *problem.mmse_pair, problem.f, *problem.ql]
        for a in shared:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 7.0
        assert dpc.base is plans[0].base
        assert scheme.build_wiretap_plan(h_b, h_e, kbar, "svd_bob") is plans[2]


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


def _mmse_singular_values(h, b):
    """Singular values of ``[h b; I]`` (``effective_mmse_matrix``), non-increasing: the
    diagonal an SVD mode reads off the whole pair."""
    return np.linalg.svd(secrecy.effective_mmse_matrix(h, b), compute_uv=False)


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
            # The whole-pair route: the active block's SVD and unit inactive streams are the
            # SVD of ``[h f; I]``.
            if mode in ("svd_bob", "svd_eve"):
                h, diag = (h_b, base.diag_b) if mode == "svd_bob" else (h_e, plan.diag_e)
                assert _close(diag, _mmse_singular_values(h, b))
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


def _rotated_problems():
    """120 problems at n = 2..6, each with a change of coordinates ``(U_b h_b V, U_e h_e V, V' K
    V)`` of it: a weak legitimate channel on every fifth (``lb`` down to 0), a rank-deficient
    ``kbar`` on every third and a wide eavesdropper (``m_e < n``, often ``< lb``) on every
    fourth."""
    rng = np.random.default_rng(3131)
    for i in range(120):
        n = 2 + i % 5
        m_b = int(rng.integers(n - 1, n + 2)) if i % 7 else n
        m_e = int(rng.integers(1, n)) if i % 4 == 0 else int(rng.integers(n - 1, n + 2))
        rank = int(rng.integers(1, n)) if i % 3 == 0 else n
        h_b = (0.7 if i % 5 == 1 else 2.0) * complex_gaussian(rng, m_b, n)
        h_e = complex_gaussian(rng, m_e, n)
        kbar = random_psd(rng, n, rank) / n
        u_b, u_e, v = (decomp.haar_unitary(k, rng) for k in (m_b, m_e, n))
        yield i, (h_b, h_e, kbar), (u_b @ h_b @ v, u_e @ h_e @ v, v.conj().T @ kbar @ v)


#: The problems of :func:`_rotated_problems` whose ``X`` has tied singular values, all of them
#: exactly 1: the wide eavesdroppers with ``lb - m_e >= 2``.  No rule fixes ``svd_eve``'s basis
#: inside the tie, so Bob's QR diagonal under it is any of a continuum.
TIED_SVD_EVE = [4, 8, 28, 32, 52, 64, 68, 92, 112]


def test_plans_are_functions_of_the_problem():
    # Per-stream secret and fictitious rates do not move, beyond rounding, under a unitary
    # change of coordinates of the problem, in every mode: ``gmd_bob``'s Eve diagonal depends
    # on the relative phases of Bob's singular vectors, which the phase rule fixes.  A mode's
    # problem whose diagonalized side has tied values is counted apart, and must be named.
    ties, lbs = {mode: [] for mode in scheme.PRECODER_MODES}, set()
    for i, problem, rotated in _rotated_problems():
        res = secrecy.secrecy_capacity_cov(*problem)
        lb = res.lb
        plans = {mode: [scheme.build_wiretap_plan(*p, mode) for p in (problem, rotated)]
                 for mode in scheme.PRECODER_MODES}
        bob = plans["svd_bob"][0].base.diag_b[:lb]
        for mode, (plan, moved) in plans.items():
            side = np.sort({"gsvd": res.gsv[:lb], "svd_eve": plan.diag_e[:lb]}.get(mode, bob))
            if np.any(np.diff(side) <= 1e-8 * side[-1:]):
                ties[mode].append(i)
                continue
            for name in ("secret_rates_bits", "fictitious_rates_bits"):
                diff = np.abs(getattr(plan, name) - getattr(moved, name))
                assert np.all(diff <= 1e-9 * res.capacity_bits), (i, mode, name, diff.max())
        lbs.add((lb == 0, lb == problem[2].shape[0], lb > problem[1].shape[0]))
    assert ties == {"gsvd": [], "svd_eve": TIED_SVD_EVE, "svd_bob": [], "gmd_bob": []}
    assert {(True, False, False), (False, True, False), (False, False, True)} <= lbs


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
        # The capacity-first order gives the reference bits; a GSV call first builds the
        # whole problem: it roots ``kbar`` and runs the problem's only GSVD kernel and the
        # capacity solve's QL of it, which every plan reads.  No call runs a second
        # kernel, a second QL or ``_factor_kernel``, and the nine take three SVDs: the
        # kernel's of the ``(m + n) x n`` pair and two of the QL's ``lb x lb`` active block,
        # Eve's of ``svd_eve`` and Bob's, which ``svd_bob`` and ``gmd_bob`` share.
        h_b, h_e, kbar = wiretap_instance(rng)
        want = {label: _bits(call()) for label, call in _nine_calls(h_b, h_e, kbar).items()}
        lb = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).lb
        secrecy.secrecy_capacity_cov(h_b, h_e, kbar + np.eye(kbar.shape[0]))
        calls = count_calls(monkeypatch, secrecy, ("_root", "_gsvd_kernel", "_kernel_ql",
                                                   "_factor_kernel"))
        plan_calls = count_calls(monkeypatch, scheme, ("_kernel_ql", "_factor_kernel"))
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
            svds.append(a.shape), svd(a, *args, **kwargs))[1])
        order = ["gsv", "gsvd"] + [label for label in want if label not in ("gsv", "gsvd")]
        calls_on_problem = _nine_calls(h_b, h_e, kbar)
        assert {label: _bits(calls_on_problem[label]()) for label in order} == want
        assert sorted(calls + plan_calls) == ["_gsvd_kernel", "_kernel_ql", "_root"]
        assert svds == [(h_b.shape[0] + h_b.shape[1], h_b.shape[1]), (lb, lb), (lb, lb)]
        plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
        assert (len(calls + plan_calls), len(svds)) == (3, 3)
        for a in (plan.base.b_sqrt, plan.base.va, plan.base.u_tilde, plan.base.diag_b,
                  plan.diag_e, secrecy.secrecy_capacity_cov(h_b, h_e, kbar).k_star,
                  *secrecy._last.ql):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0

    def test_an_optimal_kernel_never_joins_another_problem(self, rng, monkeypatch):
        # As if another thread kept its problem while this plan's problem was built: the other
        # problem is kept in the middle of this one's solve, between its kernel and its QL.
        mine, other, third = [wiretap_instance(rng) for _ in range(3)]
        want = [_bits(scheme.build_wiretap_plan(*p, "gsvd")) for p in (mine, other)]
        secrecy.secrecy_capacity_cov(*third)
        kernel_ql, interleavings = secrecy._kernel_ql, []

        def interleaved(*args):
            monkeypatch.setattr(secrecy, "_kernel_ql", kernel_ql)
            secrecy.secrecy_capacity_cov(*other)
            interleavings.append(secrecy._last)
            return kernel_ql(*args)

        monkeypatch.setattr(secrecy, "_kernel_ql", interleaved)
        assert _bits(scheme.build_wiretap_plan(*mine, "gsvd")) == want[0]
        assert len(interleavings) == 1 and secrecy._last is not interleavings[0]
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

    def test_reproducible(self, rng, monkeypatch):
        h_b = complex_gaussian(rng, 2, 2)
        plan = scheme.build_sic_plan(h_b, np.eye(2), np.eye(2))
        a = scheme.simulate_sic(plan, h_b, 30000, seed=5)
        monkeypatch.setattr(scheme, "_last_draw", None)  # so the second call draws too
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


def _simulation_plans(rng, n_e=2):
    """A 3-stream problem's channels (``n_e`` antennas at Eve, 3 at Bob) and its ``gsvd``
    wiretap, DPC and broadcast plans."""
    h_b, h_e, kbar = wiretap_instance(rng, n_e=n_e)
    return (h_b, h_e, scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd"),
            scheme.build_dpc_plan(h_b, h_e, kbar), scheme.build_broadcast_plan(h_b, h_e, kbar))


#: One simulator call per kind on :func:`_simulation_plans`, the second receiver as Eve/Charlie.
SIMULATORS = {
    "sic": lambda p, samples, seed: scheme.simulate_sic(p[2].base, p[0], samples, seed),
    "sic_decided": lambda p, samples, seed: scheme.simulate_sic(p[2].base, p[0], samples, seed,
                                                                genie=False),
    "dpc": lambda p, samples, seed: scheme.simulate_dpc(p[3], p[0], samples, seed),
    "leakage": lambda p, samples, seed: scheme.simulate_leakage(p[2], p[1], samples, seed),
    "broadcast": lambda p, samples, seed: scheme.simulate_broadcast(p[4], p[0], p[1], samples,
                                                                    seed),
}


def _report_values(rep):
    """Every field of a report by name, its extras flattened in."""
    values = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "extras"}
    return {**values, **rep.extras}


def _report_bytes(rep):
    return {name: np.asarray(value).tobytes() for name, value in _report_values(rep).items()}


def _no_pool(max_workers):
    raise AssertionError("the call drew again")


class TestKeptDraw:
    @pytest.mark.parametrize("kind", SIMULATORS)
    def test_a_repeat_draws_nothing_and_keeps_the_bits(self, rng, monkeypatch, kind):
        plans = _simulation_plans(rng)
        use_cpus(monkeypatch, 2)
        fresh = SIMULATORS[kind](plans, 20000, 7)
        monkeypatch.setattr(scheme, "ThreadPoolExecutor", _no_pool)
        assert _report_bytes(SIMULATORS[kind](plans, 20000, 7)) == _report_bytes(fresh)

    def test_sic_decided_sic_and_dpc_share_one_draw(self, rng, monkeypatch):
        # The three read Bob's rows; leakage reads Eve's, n_e = 2 of them against n_b = 3, so it
        # draws again.
        plans = _simulation_plans(rng)
        fresh = {}
        for kind in ("sic_decided", "dpc"):
            use_cpus(monkeypatch, 1)
            fresh[kind] = _report_bytes(SIMULATORS[kind](plans, 20000, 7))
        SIMULATORS["sic"](plans, 20000, 7)
        with monkeypatch.context() as patched:
            patched.setattr(scheme, "ThreadPoolExecutor", _no_pool)
            for kind in ("sic_decided", "dpc"):
                assert _report_bytes(SIMULATORS[kind](plans, 20000, 7)) == fresh[kind]
            with pytest.raises(AssertionError, match="drew again"):
                SIMULATORS["leakage"](plans, 20000, 7)

    def test_leakage_and_dpc_read_sics_draw_when_eve_has_bobs_antenna_count(self, rng,
                                                                           monkeypatch):
        plans = _simulation_plans(rng, n_e=3)
        fresh = {}
        for kind in ("leakage", "dpc"):
            use_cpus(monkeypatch, 1)
            fresh[kind] = _report_bytes(SIMULATORS[kind](plans, 20000, 7))
        SIMULATORS["sic"](plans, 20000, 7)
        monkeypatch.setattr(scheme, "ThreadPoolExecutor", _no_pool)
        assert {kind: _report_bytes(SIMULATORS[kind](plans, 20000, 7)) for kind in fresh} == fresh

    @pytest.mark.parametrize("n_e", [2, 3])
    def test_reports_do_not_depend_on_call_order(self, rng, monkeypatch, n_e):
        plans = _simulation_plans(rng, n_e)
        order = ("sic", "sic_decided", "leakage", "dpc", "broadcast")  # as mc_verify runs them
        use_cpus(monkeypatch, 1)
        forward = {kind: _report_bytes(SIMULATORS[kind](plans, 20000, 7)) for kind in order}
        use_cpus(monkeypatch, 1)
        reverse = {kind: _report_bytes(SIMULATORS[kind](plans, 20000, 7)) for kind in order[::-1]}
        alone = {}
        for kind in order:
            use_cpus(monkeypatch, 1)
            alone[kind] = _report_bytes(SIMULATORS[kind](plans, 20000, 7))
        assert forward == reverse == alone

    @pytest.mark.parametrize("change", [
        {"seed": 8}, {"samples": 20001},
        {"groups": [(0, 3), (1, 3)]}, {"groups": [(0, 3), (2, 2)]},
    ], ids=["seed", "samples", "row count", "row kind"])
    def test_a_change_of_any_key_draws_again(self, monkeypatch, change):
        use_cpus(monkeypatch, 1)
        pools = []

        def counting_pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(scheme, "ThreadPoolExecutor", counting_pool)
        call = {"groups": [(0, 3), (1, 2)], "samples": 20000, "seed": 7}
        kept = scheme._accumulate(**call)
        assert scheme._accumulate(**call) is kept and pools == [1]
        changed = scheme._accumulate(**{**call, **change})
        assert pools == [1, 1]
        assert scheme._last_draw[1] is changed and changed is not kept

    @pytest.mark.parametrize("kind", SIMULATORS)
    def test_the_kept_arrays_are_read_only_and_no_report_holds_them(self, rng, monkeypatch,
                                                                    kind):
        plans = _simulation_plans(rng)
        use_cpus(monkeypatch, 1)
        reports = [SIMULATORS[kind](plans, 20000, 7) for _ in range(2)]
        kept = scheme._last_draw[1]
        for array in kept:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        for rep in reports:
            for name, value in _report_values(rep).items():
                assert not any(np.shares_memory(value, array) for array in kept), name

    def test_a_call_that_raises_mid_pool_keeps_the_earlier_draw(self, monkeypatch):
        use_cpus(monkeypatch, 1)
        groups, samples = [(0, 2), (1, 2)], 3 * scheme._CHUNK
        scheme._accumulate(groups, samples, 7)
        kept = scheme._last_draw

        def failing(chunk, size):
            raise RuntimeError("chunk 1 failed")

        class FailingPool(ThreadPoolExecutor):
            def submit(self, fn, chunk, size):
                return super().submit(failing if chunk == 1 else fn, chunk, size)

        monkeypatch.setattr(scheme, "ThreadPoolExecutor", FailingPool)
        with pytest.raises(RuntimeError, match="chunk 1 failed"):
            scheme._accumulate(groups, samples, 8)
        assert scheme._last_draw is kept
        assert scheme._accumulate(groups, samples, 7) is kept[1]

    def test_threads_drawing_different_seeds_get_their_own_bits(self, rng, monkeypatch):
        # More threads than CPUs, switching often, so each reads the entry another just kept.
        plans = _simulation_plans(rng)
        samples, seeds = 2 * scheme._CHUNK, (1, 2, 3, 4)
        want = {}
        for seed in seeds:
            use_cpus(monkeypatch, 1)
            want[seed] = _report_bytes(SIMULATORS["sic"](plans, samples, seed))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(SIMULATORS["sic"], plans, samples, seed)
                           for seed in seeds * 3]
                got = [_report_bytes(future.result(timeout=60)) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[seed] for seed in seeds * 3]


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
#: factorization.  All but the broadcast reports moved by sampling noise when the
#: ``gsvd`` plan began to read ``k_star``'s factors off the constraint's kernel:
#: its ``va`` is a second kernel's up to a phase per column, which turns each
#: stream's symbols, so the ``sic``, ``leakage`` and ``dpc`` estimates are those
#: of another draw of the same law (SINRs at most 0.3 % apart, leakages 0.4 %).
#: The broadcast reports moved by rounding (at most 4.7e-16 relative, and 1e-31
#: absolute on the dead first stream of ``broadcast_lb0``).  The ``sic_genie``,
#: ``sic_decided``, ``leakage`` and ``dpc`` reports moved by rounding (at most
#: 1.1e-15 relative, and 2.2e-14 on the leakage standard errors) when the active
#: basis began to be read off the QL of the constraint's kernel, whose triangular
#: block the ``gsvd`` plan keeps as it is; the broadcast reports kept their bits.
#: ``sic_genie``, ``sic_decided``, ``dpc``, ``broadcast_lb0`` and ``broadcast_mixed``
#: moved by rounding (at most 3.8e-16 relative) when every draw began to sum its
#: Gram per block on the leakage check's grid, and the decoders to sum the blocks;
#: ``leakage`` and ``broadcast_lbn`` kept their bits.
GOLDEN_REPORTS = {
    "sic_genie": {
        "sinr_empirical": ["0x1.b7a5e92a72ffbp+1", "0x1.6b1e964263251p+1", "0x0.0p+0"],
        "sinr_stderr": ["0x1.8dec8cf3b7a36p-6", "0x1.48a88227bc850p-6", "0x0.0p+0"],
        "mi_bits": ["0x1.05ae9fe871b74p+2"],
    },
    "sic_decided": {
        "sinr_empirical": ["0x1.38a9af4f72553p+1", "0x1.6b1e964263251p+1", "0x0.0p+0"],
        "sinr_stderr": ["0x1.1afd769281e00p-6", "0x1.48a88227bc850p-6", "0x0.0p+0"],
        "mi_bits": ["0x1.dc9a641e4e8fbp+1"],
    },
    "leakage": {
        "sinr_empirical": ["0x1.b54d661ec09a9p+1", "0x1.6c348a314cb27p+1", "0x0.0p+0"],
        "sinr_stderr": ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
        "mi_bits": ["0x1.0434b4b17b1c7p+1"],
        "leakage_bits": ["0x1.f23a7f3ed132ap-2", "0x1.8bd698f1f0668p+0", "0x1.0c28546173c40p-14"],
        "leakage_stderr": [
            "0x1.5e5565010be54p-8", "0x1.934dff390bdf4p-8", "0x1.c1ef6a3bae4a1p-13",
        ],
    },
    "dpc": {
        "sinr_empirical": ["0x1.b7a5e92a72ffbp+1", "0x1.6b1e964263251p+1", "0x0.0p+0"],
        "sinr_stderr": ["0x1.8dec8cf3b7a36p-6", "0x1.48a88227bc850p-6", "0x0.0p+0"],
        "mi_bits": ["0x1.05ae9fe871b74p+2"],
        "alpha_residual": ["0x1.32893723b7000p-1", "0x1.181dfcc6f3046p-1", "0x0.0p+0"],
        "alpha_residual_below": ["0x1.3d330c8facae7p-1", "0x1.1fd1d18e46610p-1", "0x0.0p+0"],
        "alpha_residual_above": ["0x1.3cf42651bbfa2p-1", "0x1.20734aef118fcp-1", "0x0.0p+0"],
    },
    "broadcast_lb0": {
        "sinr_empirical": [
            "0x1.8e081529ec2a4p-103", "0x1.54758a0d6546dp+1", "0x1.1dfa4791fceaep+2",
        ],
        "sinr_stderr": ["0x1.6841ce5e062e6p-110", "0x1.3425ffda034ccp-6", "0x1.02d66187a3dfap-5"],
        "mi_bits": ["0x1.14aa5e0fe1907p+2"],
    },
    "broadcast_mixed": {
        "sinr_empirical": ["0x1.e5f4855ff4f0ep+2", "0x1.17e37d92fb0aep+2", "0x1.07274c34614e1p+2"],
        "sinr_stderr": ["0x1.b7d61e7188143p-5", "0x1.faa70d680e10dp-6", "0x1.dc5bd5bd5388dp-6"],
        "mi_bits": ["0x1.f87fa8e8958b4p+2"],
    },
    "broadcast_lbn": {
        "sinr_empirical": ["0x1.9839b4f213077p+3", "0x1.85bbb2760588ap+1", "0x1.12d02ff4bf7c3p-3"],
        "sinr_stderr": ["0x1.717bc4ad9ea41p-4", "0x1.60bf082483c5ap-6", "0x1.f1770ff648cc9p-11"],
        "mi_bits": ["0x1.7eb56377c9990p+2"],
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
#: factorization instead of a QR.  They moved again when the SINRs began to be read
#: off the diagonal as ``(d - 1)(d + 1)``, the feedbacks off the products ``h b
#: va`` the plans already hold, and the ``gsvd`` plan's factors of ``k_star`` off
#: the constraint's kernel: every field by rounding (at most 2.0e-15 relative),
#: except the ``gsvd`` wiretap and DPC entries' ``va``, ``u_tilde`` and
#: ``t_tilde``, which a second kernel gives up to a phase per column of ``va``.
#: Every capacity (``k_star``, by rounding), wiretap and DPC entry moved when the
#: active basis ``P`` began to be the QL precoder's first ``lb`` columns instead of
#: a complete QR's last ones: ``b_sqrt = b [0, P]`` spans the same directions in
#: another basis, the ``gsvd`` plan's ``va`` is the fixed embedding of the identity,
#: and the diagonals and rates moved by rounding (at most 2.9e-14 relative), except
#: the SVD modes' factors inside tied singular values (the ``n - lb`` unit ones of
#: ``[h f; I]``) and the ``n4`` and ``n8`` ``gmd_bob`` per-stream rates (up to 18 %),
#: whose sums hold.  The broadcast entries and ``n4_power`` kept their bits.
#: Only ``{n2, n4, n8, n4_rank1}_wiretap_{svd_eve, svd_bob, gmd_bob}`` moved when the
#: SVD modes began to be built from the kept QL's ``lb x lb`` active block, with Bob's
#: singular vectors phased by Eve's Gram: ``va``, ``u_tilde`` and ``t_tilde`` (another
#: basis of the same streams) and the diagonals and rates by rounding (at most 7e-15
#: relative), except ``n8_wiretap_gmd_bob``'s per-stream rates (secret up to 15 %,
#: fictitious up to 42 %), which rounding had chosen and the phase rule now fixes; its
#: sums hold.  The capacity, ``gsvd``, DPC and broadcast entries and ``n4_power`` kept
#: their bits.
GOLDEN_PLANS = {
    "n2_capacity": {
        "gsv": "1439496734e55dc3", "lb": "7c9fa136d4413fa6",
        "capacity_bits": "4dfaec4a6066d3c7", "k_star": "f85ede0987dc1811",
    },
    "n2_wiretap_gsvd": {
        "base.va": "33c11b461fe67e71", "base.b_sqrt": "6abb44e5d5164307",
        "base.u_tilde": "38b0b8f237f5859a", "base.t_tilde": "46547a9790c3cbaa",
        "base.diag_b": "19062dbd692a1210", "base.sinr": "7c5137df234fa2a4",
        "base.rates_bits": "38cd73c1737536db", "diag_e": "31c1b66e6f96984f",
        "secret_rates_bits": "ca8a43efa1942080", "fictitious_rates_bits": "5bd2895c434af85a",
        "mode": "ce714a5f246ce96c",
    },
    "n2_wiretap_svd_eve": {
        "base.va": "6e8ebc74d47c1896", "base.b_sqrt": "6abb44e5d5164307",
        "base.u_tilde": "38b0b8f237f5859a", "base.t_tilde": "46547a9790c3cbaa",
        "base.diag_b": "c387dc0b6e17e281", "base.sinr": "10d76251749baa3a",
        "base.rates_bits": "d2979ce72ebd55d6", "diag_e": "2afd1d7e2fa9bc9d",
        "secret_rates_bits": "ca8a43efa1942080", "fictitious_rates_bits": "18a0052a63ddca65",
        "mode": "c73ddb487405eaa4",
    },
    "n2_wiretap_svd_bob": {
        "base.va": "6e8ebc74d47c1896", "base.b_sqrt": "6abb44e5d5164307",
        "base.u_tilde": "38b0b8f237f5859a", "base.t_tilde": "46547a9790c3cbaa",
        "base.diag_b": "c387dc0b6e17e281", "base.sinr": "10d76251749baa3a",
        "base.rates_bits": "d2979ce72ebd55d6", "diag_e": "2afd1d7e2fa9bc9d",
        "secret_rates_bits": "ca8a43efa1942080", "fictitious_rates_bits": "18a0052a63ddca65",
        "mode": "5d59e8d2fd898c63",
    },
    "n2_wiretap_gmd_bob": {
        "base.va": "fd564e68443c15a1", "base.b_sqrt": "6abb44e5d5164307",
        "base.u_tilde": "9ce0e9fafcef65c3", "base.t_tilde": "d0f9076a9638c231",
        "base.diag_b": "5e847fc8fe8ec6f1", "base.sinr": "0b00411430d5bbae",
        "base.rates_bits": "67fe991f12259f65", "diag_e": "d53962514c931f88",
        "secret_rates_bits": "b2209a1d83fa9236", "fictitious_rates_bits": "a0fd031058c06681",
        "mode": "31a090f4630fe02d",
    },
    "n2_dpc": {
        "base.va": "33c11b461fe67e71", "base.b_sqrt": "6abb44e5d5164307",
        "base.u_tilde": "38b0b8f237f5859a", "base.t_tilde": "46547a9790c3cbaa",
        "base.diag_b": "19062dbd692a1210", "base.sinr": "7c5137df234fa2a4",
        "base.rates_bits": "38cd73c1737536db", "diag_e": "31c1b66e6f96984f",
        "alpha": "254eb9c80cc21812", "rates_bits": "ca8a43efa1942080",
        "fictitious_rates_bits": "5bd2895c434af85a", "rates_u_bits": "38cd73c1737536db",
    },
    "n2_broadcast": {
        "lb": "7c9fa136d4413fa6", "lc": "7c9fa136d4413fa6", "va": "f1e42fa886e6f1c2",
        "b_sqrt": "8068cd47ce6fa401", "diag_b": "a9efc4cad0c29008",
        "diag_c": "356b5390abf786e3", "bob_combiner": "9511d3510637a235",
        "charlie_combiner": "4532e42ed49964ba", "bob_feedback": "971e0170fe16bf41",
        "charlie_feedback": "2402dc753df6a319", "bob_rates_bits": "4dfaec4a6066d3c7",
        "charlie_rates_bits": "275a072fd3d50afb",
    },
    "n4_capacity": {
        "gsv": "25a5eaa32f14075d", "lb": "d86e8112f3c4c444",
        "capacity_bits": "6c2a5a61e9def542", "k_star": "ae5b64a16f3ab45d",
    },
    "n4_wiretap_gsvd": {
        "base.va": "bf707c5d517f9c9d", "base.b_sqrt": "e98dcadbe2c6e661",
        "base.u_tilde": "2a9e6f0d94cd7812", "base.t_tilde": "9006b19fb698d357",
        "base.diag_b": "9bc30be4ee278c0c", "base.sinr": "a71b39b8998208cc",
        "base.rates_bits": "8ed58388daefcacb", "diag_e": "963b1d5e8c14c3c0",
        "secret_rates_bits": "df646c467e847f5c", "fictitious_rates_bits": "b99f3c1155c2cee9",
        "mode": "ce714a5f246ce96c",
    },
    "n4_wiretap_svd_eve": {
        "base.va": "37f104e3f73f2bcf", "base.b_sqrt": "e98dcadbe2c6e661",
        "base.u_tilde": "bc8ad5a14eea347c", "base.t_tilde": "bedec78d2eedb203",
        "base.diag_b": "6110306a2f078fe5", "base.sinr": "70687df510d26baf",
        "base.rates_bits": "d209a25e622981c1", "diag_e": "a483dc562a0e4338",
        "secret_rates_bits": "053043f0d2e813e1", "fictitious_rates_bits": "b51904df6e7ecbef",
        "mode": "c73ddb487405eaa4",
    },
    "n4_wiretap_svd_bob": {
        "base.va": "b2102061d68608b8", "base.b_sqrt": "e98dcadbe2c6e661",
        "base.u_tilde": "42e0c8ddef2bf99e", "base.t_tilde": "66958dc5ba9fbc4c",
        "base.diag_b": "353768bc0e65a4d6", "base.sinr": "dc18b28c3c0f3f00",
        "base.rates_bits": "8ddf49858e88a91c", "diag_e": "a757f9a9c745e9a5",
        "secret_rates_bits": "f686fc64304fb99d", "fictitious_rates_bits": "ecfeb26171e0733b",
        "mode": "5d59e8d2fd898c63",
    },
    "n4_wiretap_gmd_bob": {
        "base.va": "f1f9dc9349d36373", "base.b_sqrt": "e98dcadbe2c6e661",
        "base.u_tilde": "890749c301c07cbc", "base.t_tilde": "1e163929e13df3ab",
        "base.diag_b": "f38749fccdfc5240", "base.sinr": "1939e85323e3ec40",
        "base.rates_bits": "4fe0dc3d84e33768", "diag_e": "4a9161f0fc039b6d",
        "secret_rates_bits": "5c37e6615836fe90", "fictitious_rates_bits": "0d4a8f455b2dfe06",
        "mode": "31a090f4630fe02d",
    },
    "n4_dpc": {
        "base.va": "bf707c5d517f9c9d", "base.b_sqrt": "e98dcadbe2c6e661",
        "base.u_tilde": "2a9e6f0d94cd7812", "base.t_tilde": "9006b19fb698d357",
        "base.diag_b": "9bc30be4ee278c0c", "base.sinr": "a71b39b8998208cc",
        "base.rates_bits": "8ed58388daefcacb", "diag_e": "963b1d5e8c14c3c0",
        "alpha": "4bae110a36283976", "rates_bits": "df646c467e847f5c",
        "fictitious_rates_bits": "b99f3c1155c2cee9", "rates_u_bits": "addc49165d0e1602",
    },
    "n4_broadcast": {
        "lb": "d86e8112f3c4c444", "lc": "d86e8112f3c4c444", "va": "e0dd6b07fdf14725",
        "b_sqrt": "955d50ca6953993e", "diag_b": "6beb0dbcce79e617",
        "diag_c": "591359a73e705884", "bob_combiner": "9868d321ea80ba18",
        "charlie_combiner": "b76a687d65b02bec", "bob_feedback": "04c40bfad2c4b88b",
        "charlie_feedback": "fb507e6008837634", "bob_rates_bits": "1ad2eac3aa198458",
        "charlie_rates_bits": "5fadf12e888c741c",
    },
    "n8_capacity": {
        "gsv": "d9261c775f89c8a2", "lb": "35be322d094f9d15",
        "capacity_bits": "d5ec263322feb780", "k_star": "ff9c7b0e2c259926",
    },
    "n8_wiretap_gsvd": {
        "base.va": "f67443e6c454c481", "base.b_sqrt": "c061d81a66e8db38",
        "base.u_tilde": "d8e1f43e75b19547", "base.t_tilde": "369e418ff7d42ed5",
        "base.diag_b": "b7ee020134be7a43", "base.sinr": "ab5683f8e02e85d7",
        "base.rates_bits": "7debe547057cc91c", "diag_e": "d0b0844f4f92ae21",
        "secret_rates_bits": "ce460e7991725953", "fictitious_rates_bits": "cefb0fdb6c49f5dd",
        "mode": "ce714a5f246ce96c",
    },
    "n8_wiretap_svd_eve": {
        "base.va": "c557c3171450c018", "base.b_sqrt": "c061d81a66e8db38",
        "base.u_tilde": "a63615ced802721a", "base.t_tilde": "464650386573141b",
        "base.diag_b": "cf0b9b60acf9d43d", "base.sinr": "924f15c31765feb4",
        "base.rates_bits": "9a91c256a7692607", "diag_e": "a4497e0714f982ec",
        "secret_rates_bits": "8bcba47794ee1fbf", "fictitious_rates_bits": "3575b359258e1927",
        "mode": "c73ddb487405eaa4",
    },
    "n8_wiretap_svd_bob": {
        "base.va": "d6cba0bd47c420c0", "base.b_sqrt": "c061d81a66e8db38",
        "base.u_tilde": "3b9dd3fb5110b66d", "base.t_tilde": "c8bbbd822e60830e",
        "base.diag_b": "c440e441374734b4", "base.sinr": "292f66b726cae73d",
        "base.rates_bits": "7d658d8f768b4076", "diag_e": "8f74b93fcfad466f",
        "secret_rates_bits": "6b7c7eb1b485433f", "fictitious_rates_bits": "49adf92ab1a2d619",
        "mode": "5d59e8d2fd898c63",
    },
    "n8_wiretap_gmd_bob": {
        "base.va": "b319ababd86a39f0", "base.b_sqrt": "c061d81a66e8db38",
        "base.u_tilde": "6ec98ce5c08e9168", "base.t_tilde": "f2d782ce032d3c81",
        "base.diag_b": "cccbed083539465b", "base.sinr": "06d7000c8d759f8b",
        "base.rates_bits": "9631d972b45c454e", "diag_e": "50cb47dac26f8ca8",
        "secret_rates_bits": "ac65f26631a7bd6f", "fictitious_rates_bits": "4517b7d91d6b75ba",
        "mode": "31a090f4630fe02d",
    },
    "n8_dpc": {
        "base.va": "f67443e6c454c481", "base.b_sqrt": "c061d81a66e8db38",
        "base.u_tilde": "d8e1f43e75b19547", "base.t_tilde": "369e418ff7d42ed5",
        "base.diag_b": "b7ee020134be7a43", "base.sinr": "ab5683f8e02e85d7",
        "base.rates_bits": "7debe547057cc91c", "diag_e": "d0b0844f4f92ae21",
        "alpha": "e51d3ec841924b96", "rates_bits": "ce460e7991725953",
        "fictitious_rates_bits": "cefb0fdb6c49f5dd", "rates_u_bits": "2bab74a84353fa4b",
    },
    "n8_broadcast": {
        "lb": "35be322d094f9d15", "lc": "f13ee6ed54ea2aae", "va": "d6e17055533708be",
        "b_sqrt": "787e32d6c3258428", "diag_b": "7f07ab530ca8c320",
        "diag_c": "ff8dae65224432dc", "bob_combiner": "9f5f393a2e7e7039",
        "charlie_combiner": "4d9eadaec9ae0d08", "bob_feedback": "e1332228e2b36a59",
        "charlie_feedback": "7410cdd4930a7706", "bob_rates_bits": "11679b65f3e3cc90",
        "charlie_rates_bits": "eab18e3b12a9dfad",
    },
    "n4_rank1_capacity": {
        "gsv": "b9164819e91b5e5d", "lb": "7c9fa136d4413fa6",
        "capacity_bits": "02f53c0f98940728", "k_star": "4cc16cd4530c2a4b",
    },
    "n4_rank1_wiretap_gsvd": {
        "base.va": "bd683db03864dc1b", "base.b_sqrt": "069fb6ac150c8227",
        "base.u_tilde": "bdb36a92247b5ba3", "base.t_tilde": "75ceebe4e8a1c991",
        "base.diag_b": "ae777f1dad825081", "base.sinr": "6b2acb0961ead67d",
        "base.rates_bits": "3c177bdd5c86b099", "diag_e": "49e63971e0ea58c6",
        "secret_rates_bits": "57c854a4b6bc9788", "fictitious_rates_bits": "3b6dfc90cb07a32d",
        "mode": "ce714a5f246ce96c",
    },
    "n4_rank1_wiretap_svd_eve": {
        "base.va": "e64e9e5a9175c380", "base.b_sqrt": "069fb6ac150c8227",
        "base.u_tilde": "ee3a2d4de4e699ed", "base.t_tilde": "72c73c0827e2c1b8",
        "base.diag_b": "305f8ea3f969a2cb", "base.sinr": "f240c1257724db23",
        "base.rates_bits": "5f60ec2a2e970c8d", "diag_e": "49e63971e0ea58c6",
        "secret_rates_bits": "d7002b00a18fdf86", "fictitious_rates_bits": "3b6dfc90cb07a32d",
        "mode": "c73ddb487405eaa4",
    },
    "n4_rank1_wiretap_svd_bob": {
        "base.va": "ad3c55aeff662733", "base.b_sqrt": "069fb6ac150c8227",
        "base.u_tilde": "ee3a2d4de4e699ed", "base.t_tilde": "f25b95bbfb59315d",
        "base.diag_b": "ae777f1dad825081", "base.sinr": "6b2acb0961ead67d",
        "base.rates_bits": "3c177bdd5c86b099", "diag_e": "f36623339902b34c",
        "secret_rates_bits": "81642093e8e19785", "fictitious_rates_bits": "135dced0c1f1c769",
        "mode": "5d59e8d2fd898c63",
    },
    "n4_rank1_wiretap_gmd_bob": {
        "base.va": "7fcfb1df1b8c914a", "base.b_sqrt": "069fb6ac150c8227",
        "base.u_tilde": "366f7b0a288de1af", "base.t_tilde": "3396819f7d8a5764",
        "base.diag_b": "644be4b6501f1326", "base.sinr": "3b63ebacf8736b1e",
        "base.rates_bits": "3f5066f8df168ff4", "diag_e": "ed756d44d7c8d128",
        "secret_rates_bits": "8b055d7649b783ce", "fictitious_rates_bits": "a044e3fb2d0702d1",
        "mode": "31a090f4630fe02d",
    },
    "n4_rank1_dpc": {
        "base.va": "bd683db03864dc1b", "base.b_sqrt": "069fb6ac150c8227",
        "base.u_tilde": "bdb36a92247b5ba3", "base.t_tilde": "75ceebe4e8a1c991",
        "base.diag_b": "ae777f1dad825081", "base.sinr": "6b2acb0961ead67d",
        "base.rates_bits": "3c177bdd5c86b099", "diag_e": "49e63971e0ea58c6",
        "alpha": "06091edb304b57d4", "rates_bits": "57c854a4b6bc9788",
        "fictitious_rates_bits": "3b6dfc90cb07a32d", "rates_u_bits": "3c177bdd5c86b099",
    },
    "n4_rank1_broadcast": {
        "lb": "7c9fa136d4413fa6", "lc": "35be322d094f9d15", "va": "de7c6ba3b5c54e0d",
        "b_sqrt": "82266aa35e18d857", "diag_b": "9f01a637f71a8a8b",
        "diag_c": "fa8df4d5359f07ef", "bob_combiner": "9f7c5c3c7e4f65a0",
        "charlie_combiner": "3147f96a892a5bd9", "bob_feedback": "38180f21b85f096b",
        "charlie_feedback": "f5d91dce786de64d", "bob_rates_bits": "02f53c0f98940728",
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
