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
