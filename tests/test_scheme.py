import dataclasses
import hashlib

import numpy as np
import pytest

from wtd import decomp, scheme, secrecy
from wtd.errors import DomainError, InsufficientSamples

from conftest import complex_gaussian, random_psd


def wiretap_instance(rng, n=3, n_b=3, n_e=2):
    return complex_gaussian(rng, n_b, n), complex_gaussian(rng, n_e, n), np.eye(n)


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

    def test_epsilon_backoff(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        nominal = scheme.build_wiretap_plan(h_b, h_e, kbar, "svd_eve")
        backed = scheme.build_wiretap_plan(h_b, h_e, kbar, "svd_eve", epsilon=0.01)
        active = nominal.secret_rates_bits > 0.05
        assert np.allclose(backed.secret_rates_bits[active],
                           nominal.secret_rates_bits[active] - 0.02, atol=1e-10)
        assert np.allclose(backed.fictitious_rates_bits,
                           nominal.fictitious_rates_bits + 0.01, atol=1e-10)


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

    def test_alpha_range(self, rng):
        h_b, h_e, kbar = wiretap_instance(rng)
        plan = scheme.build_dpc_plan(h_b, h_e, kbar)
        assert np.all(plan.alpha >= 0.0)
        assert np.all(plan.alpha < 1.0)


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
        baseline = scheme.simulate_sic(plan, h_b, 50000, seed=5)
        monkeypatch.setenv("WTD_THREADS", "4")
        threaded = scheme.simulate_sic(plan, h_b, 50000, seed=5)
        assert np.array_equal(baseline.sinr_empirical, threaded.sinr_empirical)

    @pytest.mark.parametrize("threads, cpus, samples, workers", [
        ("1000000", 2, 5 * 16384, [2]),
        ("1000000", 8, 3 * 16384, [3]),
        ("2", 8, 5 * 16384, [2]),
        ("1000000", 8, 100, []),
        ("1000000", None, 5 * 16384, []),
    ])
    def test_thread_pool_is_capped(self, rng, monkeypatch, threads, cpus, samples, workers):
        # The pool is faked, so no thread starts whatever WTD_THREADS says.
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        h_b = complex_gaussian(rng, 2, 2)
        plan = scheme.build_sic_plan(h_b, np.eye(2), np.eye(2))
        baseline = scheme.simulate_sic(plan, h_b, samples, seed=5)
        monkeypatch.setattr(scheme, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(scheme.os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("WTD_THREADS", threads)
        capped = scheme.simulate_sic(plan, h_b, samples, seed=5)
        assert seen == workers
        assert np.array_equal(baseline.sinr_empirical, capped.sinr_empirical)

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
        from wtd.scheme import _conditional_mi_bits
        eav = list(range(n, n + n_e))
        for k in range(n):
            tail = list(range(k + 1, n))
            exact = _conditional_mi_bits(cov, [k], eav, tail)
            assert np.isclose(exact, 2 * np.log2(plan.diag_e[k]), atol=1e-9)

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
        monkeypatch.setenv("WTD_THREADS", "1")
        rep = scheme.simulate_broadcast(plan, h_b, h_c, 100000, seed=12)
        diag = plan.diag_b if lb else plan.diag_c
        assert np.array_equal(rep.sinr_analytic, diag ** 2 - 1.0)
        active = rep.sinr_analytic > 1e-9
        assert np.all(rep.sinr_rel_error[active] <= 0.02)
        assert rep.within_bands()
        monkeypatch.setenv("WTD_THREADS", "2")
        threaded = scheme.simulate_broadcast(plan, h_b, h_c, 100000, seed=12)
        assert np.array_equal(rep.sinr_empirical, threaded.sinr_empirical)


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
    # At seed 35, swapping a scalar and an array factor in the decoder moves
    # the last bits of all three reports.
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


#: ``float.hex`` of the fields, recorded before the decoder ran on reused buffers.
GOLDEN_REPORTS = {
    "sic_genie": {
        "sinr_empirical": [
            "0x1.b7a5e92a72ff7p+1", "0x1.6cb462d7b7b42p+1", "0x1.a4da473e542c5p-53",
        ],
        "sinr_stderr": ["0x1.8dec8cf3b7a32p-6", "0x1.4a17cbbf26614p-6", "0x1.7ce98ed81783cp-60"],
        "mi_bits": ["0x1.05facb2f8720dp+2"],
    },
    "sic_decided": {
        "sinr_empirical": [
            "0x1.37c02525dcd1bp+1", "0x1.6cb462d7b416bp+1", "0x1.a4da473e542c5p-53",
        ],
        "sinr_stderr": ["0x1.1a2a1650aec62p-6", "0x1.4a17cbbf231bap-6", "0x1.7ce98ed81783cp-60"],
        "mi_bits": ["0x1.dcd0c29b49351p+1"],
    },
    "leakage": {
        "sinr_empirical": [
            "0x1.b54d661ec09a6p+1", "0x1.6c348a314cb1fp+1", "0x1.a311eee95d505p-53",
        ],
        "sinr_stderr": ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
        "mi_bits": ["0x1.02eceb5262b87p+1"],
        "leakage_bits": ["0x1.ed9a93d806f30p-2", "0x1.8a6ca767a76c5p+0", "0x1.a291c711f679fp-14"],
        "leakage_stderr": [
            "0x1.086d71ba5e3c2p-8", "0x1.b9f6fcf0f219fp-8", "0x1.f80fe0c1d3544p-13",
        ],
    },
    "dpc": {
        "sinr_empirical": [
            "0x1.b7a5e92a72ff7p+1", "0x1.6cb462d7b7b42p+1", "0x1.a4da473e542c5p-53",
        ],
        "sinr_stderr": ["0x1.8dec8cf3b7a32p-6", "0x1.4a17cbbf26614p-6", "0x1.7ce98ed81783cp-60"],
        "mi_bits": ["0x1.05facb2f8720dp+2"],
        "alpha_residual": [
            "0x1.33af4c8b229a7p-1", "0x1.19137a76f29f3p-1", "0x1.5845917bbfb64p-105",
        ],
        "alpha_residual_below": [
            "0x1.3e96260bbecccp-1", "0x1.213dcca28c42cp-1", "0x1.5845917bbfb64p-105",
        ],
        "alpha_residual_above": [
            "0x1.3dc91f812c28bp-1", "0x1.20d281e7b5974p-1", "0x1.5845917bbfb64p-105",
        ],
    },
    "broadcast_lb0": {
        "sinr_empirical": [
            "0x1.10b12459d8fc9p-103", "0x1.54758a0d6546ep+1", "0x1.1dfa4791fceadp+2",
        ],
        "sinr_stderr": ["0x1.eda00b9896778p-111", "0x1.3425ffda034cdp-6", "0x1.02d66187a3df9p-5"],
        "mi_bits": ["0x1.14aa5e0fe1908p+2"],
    },
    "broadcast_mixed": {
        "sinr_empirical": [
            "0x1.e5f4855ff4f0bp+2", "0x1.17e37d92fb0adp+2", "0x1.07274c34614e1p+2",
        ],
        "sinr_stderr": ["0x1.b7d61e7188141p-5", "0x1.faa70d680e10bp-6", "0x1.dc5bd5bd5388dp-6"],
        "mi_bits": ["0x1.f87fa8e8958b2p+2"],
    },
    "broadcast_lbn": {
        "sinr_empirical": [
            "0x1.9839b4f213076p+3", "0x1.85bbb2760588ap+1", "0x1.12d02ff4bf7c0p-3",
        ],
        "sinr_stderr": ["0x1.717bc4ad9ea40p-4", "0x1.60bf082483c5ap-6", "0x1.f1770ff648cc3p-11"],
        "mi_bits": ["0x1.7eb56377c998fp+2"],
    },
}


class TestGoldenReports:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_reports_are_bit_identical(self, monkeypatch, threads):
        monkeypatch.setenv("WTD_THREADS", threads)
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


#: Field digests of :func:`_golden_plans`, recorded before the capacity and
#: plan paths stopped computing the factors they do not read.
GOLDEN_PLANS = {
    "n2_capacity": {
        "gsv": "1439496734e55dc3", "lb": "7c9fa136d4413fa6",
        "capacity_bits": "4dfaec4a6066d3c7", "k_star": "e00381e5e7bf6859",
    },
    "n2_wiretap_gsvd": {
        "base.va": "1eec575752ce5e3d", "base.b_sqrt": "c18ea7527a88bf80",
        "base.u_tilde": "ca7ef87c49d91427", "base.t_tilde": "95f841e264a1547a",
        "base.diag_b": "5f682400af4f9781", "base.sinr": "f29e02edebbc1edb",
        "base.rates_bits": "8f4f9b20cfa29383", "diag_e": "8d13706c7483c163",
        "secret_rates_bits": "7d5ab64ccc339c71", "fictitious_rates_bits": "2e19fd48ae414b7f",
        "mode": "ce714a5f246ce96c",
    },
    "n2_wiretap_svd_eve": {
        "base.va": "d33c774fc887822d", "base.b_sqrt": "c18ea7527a88bf80",
        "base.u_tilde": "1c9e5212108d810a", "base.t_tilde": "f96068acea36f06a",
        "base.diag_b": "892dba61a51d5683", "base.sinr": "c2932e387110fd05",
        "base.rates_bits": "c879ead03d962c86", "diag_e": "0fc071baecf1a712",
        "secret_rates_bits": "35356b1ec53f2bdb", "fictitious_rates_bits": "b111478e3abfc667",
        "mode": "c73ddb487405eaa4",
    },
    "n2_wiretap_svd_bob": {
        "base.va": "8141b24303e65105", "base.b_sqrt": "c18ea7527a88bf80",
        "base.u_tilde": "5ff537afe44ea5bf", "base.t_tilde": "abb112d0404bdaae",
        "base.diag_b": "5f682400af4f9781", "base.sinr": "b9c569f43051b0ce",
        "base.rates_bits": "8f4f9b20cfa29383", "diag_e": "8d13706c7483c163",
        "secret_rates_bits": "7d5ab64ccc339c71", "fictitious_rates_bits": "2e19fd48ae414b7f",
        "mode": "5d59e8d2fd898c63",
    },
    "n2_wiretap_gmd_bob": {
        "base.va": "dcb934de6d4c9458", "base.b_sqrt": "c18ea7527a88bf80",
        "base.u_tilde": "3572dbbfa31dd351", "base.t_tilde": "23a9dd8745cd8c1b",
        "base.diag_b": "30662b9cb5542d21", "base.sinr": "7d41d2fd74a58606",
        "base.rates_bits": "7ea084ab9e2ca00d", "diag_e": "872f8b006a4bb731",
        "secret_rates_bits": "e2454d87809e5859", "fictitious_rates_bits": "8d13f0b6618962e5",
        "mode": "31a090f4630fe02d",
    },
    "n2_dpc": {
        "base.va": "1eec575752ce5e3d", "base.b_sqrt": "c18ea7527a88bf80",
        "base.u_tilde": "ca7ef87c49d91427", "base.t_tilde": "95f841e264a1547a",
        "base.diag_b": "5f682400af4f9781", "base.sinr": "f29e02edebbc1edb",
        "base.rates_bits": "8f4f9b20cfa29383", "diag_e": "8d13706c7483c163",
        "alpha": "35b01021fecb567a", "rates_bits": "2cad5de13aa1277a",
        "fictitious_rates_bits": "d2056233ee77e0fc", "rates_u_bits": "c243c5b06efe52c5",
    },
    "n2_broadcast": {
        "lb": "7c9fa136d4413fa6", "lc": "7c9fa136d4413fa6", "va": "f1e42fa886e6f1c2",
        "b_sqrt": "8068cd47ce6fa401", "diag_b": "3507a7b66becd9f1",
        "diag_c": "356b5390abf786e3", "bob_combiner": "9511d3510637a235",
        "charlie_combiner": "e91871c0e46b8f07", "bob_feedback": "3123af147b1d334d",
        "charlie_feedback": "05570a773da8fef9", "bob_rates_bits": "4dfaec4a6066d3c7",
        "charlie_rates_bits": "f7195465f31a2a8e",
    },
    "n4_capacity": {
        "gsv": "25a5eaa32f14075d", "lb": "d86e8112f3c4c444",
        "capacity_bits": "6c2a5a61e9def542", "k_star": "49fbf045f49ca349",
    },
    "n4_wiretap_gsvd": {
        "base.va": "58dc6475017c7a97", "base.b_sqrt": "e54d93374fdd6e01",
        "base.u_tilde": "59c863e5942f92e7", "base.t_tilde": "621cb0361416a0da",
        "base.diag_b": "e51d35a952ca3d4d", "base.sinr": "9fc792f86abfdf9f",
        "base.rates_bits": "4108f0fd15261cad", "diag_e": "94e38a8aa42cb8d5",
        "secret_rates_bits": "c4d8c759aed22df0", "fictitious_rates_bits": "6c0cb1ef92f06a26",
        "mode": "ce714a5f246ce96c",
    },
    "n4_wiretap_svd_eve": {
        "base.va": "f50f4486a4e31fb5", "base.b_sqrt": "e54d93374fdd6e01",
        "base.u_tilde": "b13b1806e567e8ae", "base.t_tilde": "56e137998164cae2",
        "base.diag_b": "6233361a4d8b089a", "base.sinr": "5f64eb083138388a",
        "base.rates_bits": "a4b1f710dfccce4f", "diag_e": "037b3b9c0f90e964",
        "secret_rates_bits": "1d18fb19dacec55b", "fictitious_rates_bits": "7feb0a402b25d974",
        "mode": "c73ddb487405eaa4",
    },
    "n4_wiretap_svd_bob": {
        "base.va": "745dfc6bd62816ce", "base.b_sqrt": "e54d93374fdd6e01",
        "base.u_tilde": "229a6a009eb5449d", "base.t_tilde": "0b5e28e5fa823a28",
        "base.diag_b": "de0376b93e7207e8", "base.sinr": "df1c6c39f6262f77",
        "base.rates_bits": "98db1331768fe2e3", "diag_e": "3ed554b1efc2f259",
        "secret_rates_bits": "bc39c4449f34a51f", "fictitious_rates_bits": "60aa4d0f34b0feff",
        "mode": "5d59e8d2fd898c63",
    },
    "n4_wiretap_gmd_bob": {
        "base.va": "728ae69464ec1c75", "base.b_sqrt": "e54d93374fdd6e01",
        "base.u_tilde": "e2eda2681153ad6f", "base.t_tilde": "363c356e167f1366",
        "base.diag_b": "55f459121b51eca4", "base.sinr": "fb4c1bf7a622dfe0",
        "base.rates_bits": "1a265699af3b3ed4", "diag_e": "6eda3633d08ffae5",
        "secret_rates_bits": "f4da7168a23b1d5b", "fictitious_rates_bits": "b60a2508025c57fd",
        "mode": "31a090f4630fe02d",
    },
    "n4_dpc": {
        "base.va": "58dc6475017c7a97", "base.b_sqrt": "e54d93374fdd6e01",
        "base.u_tilde": "59c863e5942f92e7", "base.t_tilde": "621cb0361416a0da",
        "base.diag_b": "e51d35a952ca3d4d", "base.sinr": "9fc792f86abfdf9f",
        "base.rates_bits": "4108f0fd15261cad", "diag_e": "94e38a8aa42cb8d5",
        "alpha": "5433d1e3b5461d3e", "rates_bits": "cf8299dbb69f1369",
        "fictitious_rates_bits": "29b83f84d2be0b19", "rates_u_bits": "3066e54575060a61",
    },
    "n4_broadcast": {
        "lb": "d86e8112f3c4c444", "lc": "d86e8112f3c4c444", "va": "e0dd6b07fdf14725",
        "b_sqrt": "955d50ca6953993e", "diag_b": "6beb0dbcce79e617",
        "diag_c": "eac078e62bc06e10", "bob_combiner": "9868d321ea80ba18",
        "charlie_combiner": "3388095f9b791d77", "bob_feedback": "e6c0dbc38738de06",
        "charlie_feedback": "3c7fc806c3df7e71", "bob_rates_bits": "92e35c1f31387dd0",
        "charlie_rates_bits": "c1718eea9cfa53f3",
    },
    "n8_capacity": {
        "gsv": "d9261c775f89c8a2", "lb": "35be322d094f9d15",
        "capacity_bits": "d5ec263322feb780", "k_star": "2a9b73dacc0c6137",
    },
    "n8_wiretap_gsvd": {
        "base.va": "e30e6b90f2a19a65", "base.b_sqrt": "3d38d569ec61bb85",
        "base.u_tilde": "9ad965ad843de2ce", "base.t_tilde": "6f978e2a6ffb6ec3",
        "base.diag_b": "89ffa18071d0f0a8", "base.sinr": "ab53613a0b56b3d6",
        "base.rates_bits": "339c01818dcd7933", "diag_e": "ba2d17f6b64548bb",
        "secret_rates_bits": "e6088b30fae0e655", "fictitious_rates_bits": "8e3d615872800a7f",
        "mode": "ce714a5f246ce96c",
    },
    "n8_wiretap_svd_eve": {
        "base.va": "9684aeeeab9e5041", "base.b_sqrt": "3d38d569ec61bb85",
        "base.u_tilde": "3662428486f67a28", "base.t_tilde": "6691802dd14ccbb3",
        "base.diag_b": "1deac7d0fd10e4b0", "base.sinr": "3d103d9ed595d9b8",
        "base.rates_bits": "7e4f8e6a03b74695", "diag_e": "cff593d0a0c46cf8",
        "secret_rates_bits": "a9769fed6c21fe1d", "fictitious_rates_bits": "3be710129fa686fa",
        "mode": "c73ddb487405eaa4",
    },
    "n8_wiretap_svd_bob": {
        "base.va": "6f75ed31cdba2085", "base.b_sqrt": "3d38d569ec61bb85",
        "base.u_tilde": "9d7be69b61bfa6fa", "base.t_tilde": "225dfa0eadbaaa9a",
        "base.diag_b": "e7c6ecd2c958f273", "base.sinr": "5215110854d6bd27",
        "base.rates_bits": "30cbd53f4fd481d7", "diag_e": "494aee97da063dcb",
        "secret_rates_bits": "e4de156939e77a81", "fictitious_rates_bits": "c057f0dcf057b793",
        "mode": "5d59e8d2fd898c63",
    },
    "n8_wiretap_gmd_bob": {
        "base.va": "113c17d4bd7ec953", "base.b_sqrt": "3d38d569ec61bb85",
        "base.u_tilde": "c79c0e4ea16537b5", "base.t_tilde": "21777de833f3dcab",
        "base.diag_b": "b072b95977914307", "base.sinr": "91cb4aec397b8767",
        "base.rates_bits": "60835823691a758e", "diag_e": "45d740f89f722a6e",
        "secret_rates_bits": "da814b6f59faad7e", "fictitious_rates_bits": "9c0a6718fdbabc56",
        "mode": "31a090f4630fe02d",
    },
    "n8_dpc": {
        "base.va": "e30e6b90f2a19a65", "base.b_sqrt": "3d38d569ec61bb85",
        "base.u_tilde": "9ad965ad843de2ce", "base.t_tilde": "6f978e2a6ffb6ec3",
        "base.diag_b": "89ffa18071d0f0a8", "base.sinr": "ab53613a0b56b3d6",
        "base.rates_bits": "339c01818dcd7933", "diag_e": "ba2d17f6b64548bb",
        "alpha": "93b9a08d84220e88", "rates_bits": "c58006d6d00f05bd",
        "fictitious_rates_bits": "d3b1c4ea9ad69b4b", "rates_u_bits": "076921d608795a81",
    },
    "n8_broadcast": {
        "lb": "35be322d094f9d15", "lc": "f13ee6ed54ea2aae", "va": "d6e17055533708be",
        "b_sqrt": "787e32d6c3258428", "diag_b": "e471b888b11219a3",
        "diag_c": "ff8dae65224432dc", "bob_combiner": "9f5f393a2e7e7039",
        "charlie_combiner": "6d40a2d61aa9310f", "bob_feedback": "6a0279cf93f234c5",
        "charlie_feedback": "5a3cb1235e2d8d02", "bob_rates_bits": "11679b65f3e3cc90",
        "charlie_rates_bits": "845b025e37f33e1c",
    },
    "n4_rank1_capacity": {
        "gsv": "8fe7f98bba311d52", "lb": "7c9fa136d4413fa6",
        "capacity_bits": "588200f3e3b316dd", "k_star": "1329b537e4f7c3da",
    },
    "n4_rank1_wiretap_gsvd": {
        "base.va": "e36119b966a7489f", "base.b_sqrt": "489c71ab01edbb6e",
        "base.u_tilde": "b6e7c39b3100213e", "base.t_tilde": "13edf7cafb6b3b23",
        "base.diag_b": "cd1a1f458098f520", "base.sinr": "fcbd34b92398e4a4",
        "base.rates_bits": "11950f786f405ca5", "diag_e": "1f57138e49eb9806",
        "secret_rates_bits": "5a86e07fcccb1d8b", "fictitious_rates_bits": "86b8c908eb891ecc",
        "mode": "ce714a5f246ce96c",
    },
    "n4_rank1_wiretap_svd_eve": {
        "base.va": "e5f17ddaaa7cbb44", "base.b_sqrt": "489c71ab01edbb6e",
        "base.u_tilde": "0bf0eaf3bcc7d279", "base.t_tilde": "6881c83039c0dd59",
        "base.diag_b": "4f74565e65adbb7f", "base.sinr": "8b119d9b0abf2474",
        "base.rates_bits": "9483883afca03b22", "diag_e": "411a3acccf26e544",
        "secret_rates_bits": "5a86e07fcccb1d8b", "fictitious_rates_bits": "17c811abe949b30f",
        "mode": "c73ddb487405eaa4",
    },
    "n4_rank1_wiretap_svd_bob": {
        "base.va": "0db09e47db5f6d6b", "base.b_sqrt": "489c71ab01edbb6e",
        "base.u_tilde": "1710fd7893ea8f10", "base.t_tilde": "e3f0fdba9dbacf31",
        "base.diag_b": "0487c1f54fb53d75", "base.sinr": "717b5abe11e7ca83",
        "base.rates_bits": "f82d71fa3503f1b6", "diag_e": "13a02deab3b76ad7",
        "secret_rates_bits": "e1079c0954a46ec6", "fictitious_rates_bits": "043a1e6873aea6d6",
        "mode": "5d59e8d2fd898c63",
    },
    "n4_rank1_wiretap_gmd_bob": {
        "base.va": "e790f094465cba73", "base.b_sqrt": "489c71ab01edbb6e",
        "base.u_tilde": "7b3d909624119280", "base.t_tilde": "717ff708ade82c59",
        "base.diag_b": "5738a5c87b7d7827", "base.sinr": "32244a2fa1c0e1b6",
        "base.rates_bits": "c9febb3ab610f4d9", "diag_e": "22714ffe5f4fc1e9",
        "secret_rates_bits": "c909fb81675df72a", "fictitious_rates_bits": "e642fbd895718378",
        "mode": "31a090f4630fe02d",
    },
    "n4_rank1_dpc": {
        "base.va": "e36119b966a7489f", "base.b_sqrt": "489c71ab01edbb6e",
        "base.u_tilde": "b6e7c39b3100213e", "base.t_tilde": "13edf7cafb6b3b23",
        "base.diag_b": "cd1a1f458098f520", "base.sinr": "fcbd34b92398e4a4",
        "base.rates_bits": "11950f786f405ca5", "diag_e": "1f57138e49eb9806",
        "alpha": "bb2853f1d9ea2c63", "rates_bits": "cb6bfd267993b907",
        "fictitious_rates_bits": "edce2a9f7caba0d8", "rates_u_bits": "2b6aef91e580aeb2",
    },
    "n4_rank1_broadcast": {
        "lb": "7c9fa136d4413fa6", "lc": "35be322d094f9d15", "va": "04ddefc2da67a3a8",
        "b_sqrt": "32adeeda2fa124bf", "diag_b": "ea0f1f64d210b230",
        "diag_c": "aca59f02184bfd54", "bob_combiner": "fd205eb61229bef3",
        "charlie_combiner": "0aa0a2e8095560e7", "bob_feedback": "2eb942fd09792468",
        "charlie_feedback": "42f8068c1a8c1543", "bob_rates_bits": "6843716cce0c86f7",
        "charlie_rates_bits": "a9aad1bc1696afac",
    },
    "n4_power": {
        "capacity_lower_bound": "52cbd6dd1ba32b65", "kbar": "9f36ffc267b5d39b",
        "evaluations": "3fe8adee83a670dd",
    },
}


class TestGoldenPlans:
    def test_results_are_bit_identical(self):
        results = _golden_plans()
        assert [results[f"{n}_capacity"].lb for n in ("n2", "n4", "n8", "n4_rank1")] == [
            1, 2, 3, 1]
        assert {name: _golden_digests(res) for name, res in results.items()} == GOLDEN_PLANS
