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
#: The wiretap and DPC reports, whose plans root a rank-deficient optimal
#: covariance, were re-recorded when ``matrix_sqrt`` began zeroing
#: rounding-level eigenvalues.
GOLDEN_REPORTS = {
    "sic_genie": {
        "sinr_empirical": [
            "0x1.b7a5e92a73000p+1", "0x1.6cb462d7ba279p+1", "0x1.e5da7e7aa5622p-92",
        ],
        "sinr_stderr": ["0x1.8dec8cf3b7a3ap-6", "0x1.4a17cbbf28992p-6", "0x1.b7be8fe0f030ep-99"],
        "mi_bits": ["0x1.05facb2f87968p+2"],
    },
    "sic_decided": {
        "sinr_empirical": [
            "0x1.37c0252601d59p+1", "0x1.6cb462d7ba27bp+1", "0x1.e5da7e7aa5622p-92",
        ],
        "sinr_stderr": ["0x1.1a2a1650d046bp-6", "0x1.4a17cbbf28994p-6", "0x1.b7be8fe0f030ep-99"],
        "mi_bits": ["0x1.dcd0c29b5b064p+1"],
    },
    "leakage": {
        "sinr_empirical": [
            "0x1.b54d661ec09b0p+1", "0x1.6c348a314cb19p+1", "0x1.e2cfa5642d4fbp-92",
        ],
        "sinr_stderr": ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
        "mi_bits": ["0x1.02eceb5240072p+1"],
        "leakage_bits": ["0x1.ed9a93d7fecb6p-2", "0x1.8a6ca767981cep+0", "0x1.a291ba0f9d2f9p-14"],
        "leakage_stderr": [
            "0x1.086d71b9cec47p-8", "0x1.b9f6fcfeb55a1p-8", "0x1.f80fce3d2fd63p-13",
        ],
    },
    "dpc": {
        "sinr_empirical": [
            "0x1.b7a5e92a73000p+1", "0x1.6cb462d7ba279p+1", "0x1.e5da7e7aa5622p-92",
        ],
        "sinr_stderr": ["0x1.8dec8cf3b7a3ap-6", "0x1.4a17cbbf28992p-6", "0x1.b7be8fe0f030ep-99"],
        "mi_bits": ["0x1.05facb2f87968p+2"],
        "alpha_residual": [
            "0x1.33af4c8b24e67p-1", "0x1.19137a76e5f3dp-1", "0x1.c2ce1bfb5b4e9p-183",
        ],
        "alpha_residual_below": [
            "0x1.3e96260bc192dp-1", "0x1.213dcca27e18ap-1", "0x1.c2ce1bfb5b4e9p-183",
        ],
        "alpha_residual_above": [
            "0x1.3dc91f812dd29p-1", "0x1.20d281e7ab07dp-1", "0x1.c2ce1bfb5b4e9p-183",
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
#: plan paths stopped computing the factors they do not read.  Every wiretap
#: and DPC plan (they root a rank-deficient optimal covariance) and every
#: result of the rank-1 problem were re-recorded when ``matrix_sqrt`` began
#: zeroing rounding-level eigenvalues.
GOLDEN_PLANS = {
    "n2_capacity": {
        "gsv": "1439496734e55dc3", "lb": "7c9fa136d4413fa6",
        "capacity_bits": "4dfaec4a6066d3c7", "k_star": "e00381e5e7bf6859",
    },
    "n2_wiretap_gsvd": {
        "base.va": "afedca6d26d5fe81", "base.b_sqrt": "f66257a77d5beddc",
        "base.u_tilde": "a53f0231c3e7d4cb", "base.t_tilde": "3cdad73e1b722353",
        "base.diag_b": "5f682400af4f9781", "base.sinr": "812ec53bea05867e",
        "base.rates_bits": "8f4f9b20cfa29383", "diag_e": "797a145cd8a77f73",
        "secret_rates_bits": "9601f62437f4e225", "fictitious_rates_bits": "0e133b705a4edea1",
        "mode": "ce714a5f246ce96c",
    },
    "n2_wiretap_svd_eve": {
        "base.va": "141fe53bae36fc4a", "base.b_sqrt": "f66257a77d5beddc",
        "base.u_tilde": "f0edd4ed2fd9823b", "base.t_tilde": "eb1614de1c41c17b",
        "base.diag_b": "c387dc0b6e17e281", "base.sinr": "2595697693b7f193",
        "base.rates_bits": "d2979ce72ebd55d6", "diag_e": "0fc071baecf1a712",
        "secret_rates_bits": "2cad5de13aa1277a", "fictitious_rates_bits": "b111478e3abfc667",
        "mode": "c73ddb487405eaa4",
    },
    "n2_wiretap_svd_bob": {
        "base.va": "70a0b2ed16ca00de", "base.b_sqrt": "f66257a77d5beddc",
        "base.u_tilde": "f6ff3a86b6b2fb53", "base.t_tilde": "6aea58e414bf20ae",
        "base.diag_b": "c387dc0b6e17e281", "base.sinr": "cd46c0c0c1131757",
        "base.rates_bits": "d2979ce72ebd55d6", "diag_e": "0fc071baecf1a712",
        "secret_rates_bits": "2cad5de13aa1277a", "fictitious_rates_bits": "b111478e3abfc667",
        "mode": "5d59e8d2fd898c63",
    },
    "n2_wiretap_gmd_bob": {
        "base.va": "0166dafd2e45ef66", "base.b_sqrt": "f66257a77d5beddc",
        "base.u_tilde": "8c566617656ace15", "base.t_tilde": "44709fdfa37ae67c",
        "base.diag_b": "59a47890ee592f4a", "base.sinr": "7c86490650c3427c",
        "base.rates_bits": "7c397cb7165ac99b", "diag_e": "9649240443f93ca8",
        "secret_rates_bits": "abd81cb4def4dfbf", "fictitious_rates_bits": "a768192b0c11bcad",
        "mode": "31a090f4630fe02d",
    },
    "n2_dpc": {
        "base.va": "afedca6d26d5fe81", "base.b_sqrt": "f66257a77d5beddc",
        "base.u_tilde": "a53f0231c3e7d4cb", "base.t_tilde": "3cdad73e1b722353",
        "base.diag_b": "5f682400af4f9781", "base.sinr": "812ec53bea05867e",
        "base.rates_bits": "8f4f9b20cfa29383", "diag_e": "797a145cd8a77f73",
        "alpha": "35b01021fecb567a", "rates_bits": "ca8a43efa1942080",
        "fictitious_rates_bits": "d2056233ee77e0fc", "rates_u_bits": "38cd73c1737536db",
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
        "base.va": "1ed300a8e39087bf", "base.b_sqrt": "025d91df7f5cb053",
        "base.u_tilde": "4a077a3a06863606", "base.t_tilde": "a60e432ef49cac4f",
        "base.diag_b": "065ff6bddeafa9a9", "base.sinr": "cae3dd56109d49ec",
        "base.rates_bits": "01b5d2221b54ae86", "diag_e": "86b1e82353154679",
        "secret_rates_bits": "8cc8d165fdc97881", "fictitious_rates_bits": "810a1b2d36b19546",
        "mode": "ce714a5f246ce96c",
    },
    "n4_wiretap_svd_eve": {
        "base.va": "ab54255f7a770331", "base.b_sqrt": "025d91df7f5cb053",
        "base.u_tilde": "bf94f55804441ee1", "base.t_tilde": "4db299c7e828b543",
        "base.diag_b": "d7e95acd3f3a783d", "base.sinr": "3f32735e4d16ffc0",
        "base.rates_bits": "aa949bf9cce9f100", "diag_e": "bf8f6b208f6885c4",
        "secret_rates_bits": "f0cecd4fa25c449b", "fictitious_rates_bits": "40618832f8bb8480",
        "mode": "c73ddb487405eaa4",
    },
    "n4_wiretap_svd_bob": {
        "base.va": "456bbf787f2370e6", "base.b_sqrt": "025d91df7f5cb053",
        "base.u_tilde": "b8b1761df4206d02", "base.t_tilde": "9f064e94cde6180c",
        "base.diag_b": "a2adc4fe8fe7f541", "base.sinr": "15c8202ce1d9b416",
        "base.rates_bits": "fb92c99377047452", "diag_e": "3ede42f711e55fe2",
        "secret_rates_bits": "f7010bc240ceca1d", "fictitious_rates_bits": "c8712a6d5fd94d39",
        "mode": "5d59e8d2fd898c63",
    },
    "n4_wiretap_gmd_bob": {
        "base.va": "4a02ca3da15ae5ee", "base.b_sqrt": "025d91df7f5cb053",
        "base.u_tilde": "f30035cad9b77e38", "base.t_tilde": "869e59268550e8f4",
        "base.diag_b": "6feaab1d8449267a", "base.sinr": "b9c7c93294950355",
        "base.rates_bits": "067c01b75f96d786", "diag_e": "58f9789aa590c98a",
        "secret_rates_bits": "01210ee3dac4db26", "fictitious_rates_bits": "7ccb9b865bfe7ba9",
        "mode": "31a090f4630fe02d",
    },
    "n4_dpc": {
        "base.va": "1ed300a8e39087bf", "base.b_sqrt": "025d91df7f5cb053",
        "base.u_tilde": "4a077a3a06863606", "base.t_tilde": "a60e432ef49cac4f",
        "base.diag_b": "065ff6bddeafa9a9", "base.sinr": "cae3dd56109d49ec",
        "base.rates_bits": "01b5d2221b54ae86", "diag_e": "86b1e82353154679",
        "alpha": "9240eea70cbff3bb", "rates_bits": "160b54a03eaa168d",
        "fictitious_rates_bits": "4e4de2c5a6c36ca5", "rates_u_bits": "55240e7225dbb42b",
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
        "base.va": "3898d61000894fd1", "base.b_sqrt": "e8789d07a27c12d0",
        "base.u_tilde": "ef5e37570e84be84", "base.t_tilde": "acbec141a911bf0e",
        "base.diag_b": "23cde9398ed09f32", "base.sinr": "5498d95e016ba627",
        "base.rates_bits": "9e5a778f15ebebf6", "diag_e": "42ffc79bf945709c",
        "secret_rates_bits": "1e3f81eac854d101", "fictitious_rates_bits": "8931990b6f2060a1",
        "mode": "ce714a5f246ce96c",
    },
    "n8_wiretap_svd_eve": {
        "base.va": "bc5d394ab4ab4cde", "base.b_sqrt": "e8789d07a27c12d0",
        "base.u_tilde": "9dfc5fcc5e8ed11f", "base.t_tilde": "a390b1fb66450755",
        "base.diag_b": "99151cc549dfa671", "base.sinr": "94431a0d4d000915",
        "base.rates_bits": "16cb324bbca30c02", "diag_e": "75cb85ff403838e7",
        "secret_rates_bits": "8ca679bc7120a2fd", "fictitious_rates_bits": "a69e03acec33cf7d",
        "mode": "c73ddb487405eaa4",
    },
    "n8_wiretap_svd_bob": {
        "base.va": "39ea6ec58b7e619e", "base.b_sqrt": "e8789d07a27c12d0",
        "base.u_tilde": "40e37d43b7bb8972", "base.t_tilde": "e92f2648637418b8",
        "base.diag_b": "dece19287e86eb12", "base.sinr": "dbc568fc3f7386fe",
        "base.rates_bits": "336777ff62e2b1ba", "diag_e": "e628732b897bcd88",
        "secret_rates_bits": "0ed6c735fa92feda", "fictitious_rates_bits": "315a326e7ba0ca19",
        "mode": "5d59e8d2fd898c63",
    },
    "n8_wiretap_gmd_bob": {
        "base.va": "3373ebf76dfefc9b", "base.b_sqrt": "e8789d07a27c12d0",
        "base.u_tilde": "e9b1118c9d819834", "base.t_tilde": "ec9d9cfbd67d6214",
        "base.diag_b": "0f8b35b357333fd5", "base.sinr": "4e020ad6fe0abe78",
        "base.rates_bits": "917c59cdc145984b", "diag_e": "77ba08d44c4c2fed",
        "secret_rates_bits": "2c90c050c510b1de", "fictitious_rates_bits": "625a75b470f6bf23",
        "mode": "31a090f4630fe02d",
    },
    "n8_dpc": {
        "base.va": "3898d61000894fd1", "base.b_sqrt": "e8789d07a27c12d0",
        "base.u_tilde": "ef5e37570e84be84", "base.t_tilde": "acbec141a911bf0e",
        "base.diag_b": "23cde9398ed09f32", "base.sinr": "5498d95e016ba627",
        "base.rates_bits": "9e5a778f15ebebf6", "diag_e": "42ffc79bf945709c",
        "alpha": "51e53d85d12ef7a8", "rates_bits": "e977aac4edafdc01",
        "fictitious_rates_bits": "e3caf69bc594faee", "rates_u_bits": "ba8f5dd2e0cd2848",
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
        "gsv": "b9164819e91b5e5d", "lb": "7c9fa136d4413fa6",
        "capacity_bits": "02f53c0f98940728", "k_star": "73248eb556cccd27",
    },
    "n4_rank1_wiretap_gsvd": {
        "base.va": "8896a401df68ba88", "base.b_sqrt": "8846c67f4a6316f8",
        "base.u_tilde": "0db413b5e3fc25c9", "base.t_tilde": "eb09c0eb655654f5",
        "base.diag_b": "5056e59d39e65e41", "base.sinr": "b3ebc6d6c1487e78",
        "base.rates_bits": "45f76ee141dffcd5", "diag_e": "042816abba3a09b6",
        "secret_rates_bits": "eee9b32830cbee36", "fictitious_rates_bits": "a9b8d2a3742c7e4c",
        "mode": "ce714a5f246ce96c",
    },
    "n4_rank1_wiretap_svd_eve": {
        "base.va": "43af730c204968f5", "base.b_sqrt": "8846c67f4a6316f8",
        "base.u_tilde": "82d7e57883854124", "base.t_tilde": "1c4961602f4151f2",
        "base.diag_b": "7fb784e0821aebb0", "base.sinr": "8b2b6b3d8b9c4ec6",
        "base.rates_bits": "a73b39f35794e8a3", "diag_e": "a97864aa69329a5d",
        "secret_rates_bits": "57c854a4b6bc9788", "fictitious_rates_bits": "64dd04e3151860a7",
        "mode": "c73ddb487405eaa4",
    },
    "n4_rank1_wiretap_svd_bob": {
        "base.va": "3c3a3ab27fb7c494", "base.b_sqrt": "8846c67f4a6316f8",
        "base.u_tilde": "dd69bc5b863b364f", "base.t_tilde": "6304cf550570d3a9",
        "base.diag_b": "4c7cf5132bda6e3a", "base.sinr": "f0710b20b7f4c5e1",
        "base.rates_bits": "13914ec6767cdc6d", "diag_e": "6fb824ea328ef67e",
        "secret_rates_bits": "81642093e8e19785", "fictitious_rates_bits": "74b9e59d3d3a6a60",
        "mode": "5d59e8d2fd898c63",
    },
    "n4_rank1_wiretap_gmd_bob": {
        "base.va": "db7172d50139f821", "base.b_sqrt": "8846c67f4a6316f8",
        "base.u_tilde": "381af9c03062e592", "base.t_tilde": "89e70725ca1b3780",
        "base.diag_b": "a8583e6cd197a8e1", "base.sinr": "a3fa9470c3b17a24",
        "base.rates_bits": "2d3ebe490f19e411", "diag_e": "b7895e6d11cf061d",
        "secret_rates_bits": "f162c13074dfc123", "fictitious_rates_bits": "f828baf7bc1a3724",
        "mode": "31a090f4630fe02d",
    },
    "n4_rank1_dpc": {
        "base.va": "8896a401df68ba88", "base.b_sqrt": "8846c67f4a6316f8",
        "base.u_tilde": "0db413b5e3fc25c9", "base.t_tilde": "eb09c0eb655654f5",
        "base.diag_b": "5056e59d39e65e41", "base.sinr": "b3ebc6d6c1487e78",
        "base.rates_bits": "45f76ee141dffcd5", "diag_e": "042816abba3a09b6",
        "alpha": "ee8ea16033cca1a6", "rates_bits": "b2cb86c4cd5b02c9",
        "fictitious_rates_bits": "135dced0c1f1c769", "rates_u_bits": "b232e5faf1c89b8e",
    },
    "n4_rank1_broadcast": {
        "lb": "7c9fa136d4413fa6", "lc": "35be322d094f9d15", "va": "de7c6ba3b5c54e0d",
        "b_sqrt": "82266aa35e18d857", "diag_b": "767051de09d23731",
        "diag_c": "89cf22ee9d4cdc04", "bob_combiner": "9f7c5c3c7e4f65a0",
        "charlie_combiner": "3ca8bf678af1b8a2", "bob_feedback": "6176ea4837ebd56e",
        "charlie_feedback": "03d48643c7a5ff1e", "bob_rates_bits": "6843716cce0c86f7",
        "charlie_rates_bits": "25ef4d723daf9acc",
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
