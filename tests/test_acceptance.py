"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  All checks are seeded and run at desk scale (dimensions up to
8x8, at most 1e5 Monte Carlo samples per simulation).
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from wtd import decomp, scheme, secrecy
from wtd.errors import MajorizationError

from conftest import dpc_oracle


def announce(number, text):
    print(f"[{number:2d}] PASS - {text}")


def cg(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def rel_residual(actual, target):
    denom = np.linalg.norm(target)
    return np.linalg.norm(actual - target) / (denom if denom > 0 else 1.0)


def feasible_target(rng, sigma, mixes=6):
    logs = np.log(sigma)
    weights = rng.dirichlet(np.ones(mixes))
    mixed = np.zeros(logs.size)
    for w in weights:
        mixed += w * rng.permutation(logs)
    return np.exp(mixed)


@pytest.fixture(scope="module")
def capacity_instances():
    rng = np.random.default_rng(90210)
    instances = []
    for i in range(50):
        n = 2 if i % 2 == 0 else 3
        instances.append((cg(rng, n, n), cg(rng, n, n), np.eye(n)))
    return instances


def batched_covariances_below(b, rng, count):
    """Oracle-side vectorized sampler of the order interval below b @ b'."""
    n = b.shape[0]
    z = (rng.standard_normal((count, n, n))
         + 1j * rng.standard_normal((count, n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.einsum("sii->si", r)
    q = q * (d / np.abs(d))[:, None, :]
    lam = rng.uniform(0.0, 1.0, (count, n))
    w = (q * lam[:, None, :]) @ np.conj(np.swapaxes(q, 1, 2))
    k = b @ w @ b.conj().T
    return (k + np.conj(np.swapaxes(k, 1, 2))) / 2.0


def batched_mi_difference(h_b, h_e, ks):
    def mi(h):
        m = np.eye(h.shape[0]) + h @ ks @ h.conj().T
        m = (m + np.conj(np.swapaxes(m, 1, 2))) / 2.0
        return np.linalg.slogdet(m)[1]

    return (mi(h_b) - mi(h_e)) / np.log(2.0)


def test_criterion_01_decomposition_suite():
    rng = np.random.default_rng(11)
    disagreements = 0
    for case in range(200):
        cols = int(rng.integers(2, 9))
        rows = int(rng.integers(cols, 9))
        rows2 = int(rng.integers(cols, 9))
        a = cg(rng, rows, cols)
        a2 = cg(rng, rows2, cols)

        f = decomp.qr(a)
        assert rel_residual(f.reconstruct(), a) <= 1e-9
        qlf = decomp.ql(a)
        assert rel_residual(qlf.reconstruct(), a) <= 1e-9
        s = decomp.svd(a)
        assert rel_residual(s.reconstruct(), a) <= 1e-9

        g = decomp.gmd(a)
        d = g.diagonal
        assert (d.max() - d.min()) / d.min() <= 1e-7
        assert rel_residual(g.reconstruct(), a) <= 1e-9

        diag_form = decomp.gsvd_diagonal(a, a2)
        norm = (diag_form.l1.conj().T @ diag_form.l1
                + diag_form.l2.conj().T @ diag_form.l2)
        assert np.max(np.abs(norm - np.eye(cols))) <= 1e-9
        jt = decomp.gsvd_triangular(a, a2)
        assert rel_residual(jt.u1 @ jt.t1 @ jt.va.conj().T, a) <= 1e-9
        assert rel_residual(jt.u2 @ jt.t2 @ jt.va.conj().T, a2) <= 1e-9

        sigma = s.diagonal
        target = feasible_target(rng, sigma)
        if case % 2 == 1:
            # Push the largest entry up (product rebalanced on the smallest)
            # by a random factor straddling the feasibility boundary.
            bump = float(rng.uniform(0.98, 1.05))
            target = np.sort(target)[::-1]
            target[0] *= bump
            target[-1] /= bump
        feasible = decomp.majorizes(sigma, target)
        try:
            built = decomp.gtd(a, target)
            ok = True
            assert np.allclose(built.diagonal, target, rtol=1e-8)
            assert rel_residual(built.reconstruct(), a) <= 1e-9
        except MajorizationError:
            ok = False
        if ok != feasible:
            disagreements += 1
    assert disagreements == 0
    announce(1, "decomposition suite: 200 cases, reconstruction <= 1e-9, "
                "GSVD normalization <= 1e-9, GMD spread <= 1e-7, "
                "GTD feasibility matches the majorization test")


def test_criterion_02_capacity_oracle_equivalence(capacity_instances):
    rng = np.random.default_rng(21)
    for h_b, h_e, kbar in capacity_instances:
        res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        b = secrecy.matrix_sqrt(kbar)
        ks = batched_covariances_below(b, rng, 10000)
        sampled = batched_mi_difference(h_b, h_e, ks)
        assert np.max(sampled) <= res.capacity_bits + 1e-8
        achieved = secrecy.secrecy_mi_difference(h_b, h_e, res.k_star)
        assert abs(achieved - res.capacity_bits) <= 1e-8
    announce(2, "capacity dominates 1e4 sampled covariances per instance "
                "(50 instances) and is achieved at the optimal covariance")


def test_criterion_03_truncation(capacity_instances):
    for h_b, h_e, kbar in capacity_instances:
        report = secrecy.verify_truncation(h_b, h_e, kbar)
        assert report.ok, report.max_deviation
        assert report.max_deviation <= 1e-7
        assert np.all(report.gsv_truncated >= 1.0 - 1e-7)
    announce(3, "optimal covariance clips the GSVs at 1 within 1e-7 "
                "on all 50 instances")


def test_criterion_04_gsv_monotonicity(capacity_instances):
    for i, (h_b, h_e, kbar) in enumerate(capacity_instances):
        report = secrecy.gsv_monotonicity_check(h_b, h_e, kbar,
                                                samples=1000, seed=1000 + i)
        assert report.ok
        assert report.violations == 0
    announce(4, "ordered |log GSV| domination holds for 1e3 sampled "
                "covariances per instance, zero violations")


def test_criterion_05_rate_identities():
    rng = np.random.default_rng(51)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        h_b = cg(rng, int(rng.integers(n, 6)), n)
        h_e = cg(rng, int(rng.integers(n, 6)), n)
        fk = cg(rng, n, n)
        k = fk @ fk.conj().T
        mi = secrecy.gaussian_mi(h_b, k)
        mi_diff = secrecy.secrecy_mi_difference(h_b, h_e, k)
        b = secrecy.matrix_sqrt(k)
        g_e = secrecy.effective_mmse_matrix(h_e, b)
        for _ in range(50):
            va = decomp.haar_unitary(n, rng)
            plan = scheme.build_sic_plan(h_b, b, va)
            assert abs(np.sum(plan.rates_bits) - mi) <= 1e-8
            diag_e = decomp.qr(g_e @ va).diagonal
            total = 2.0 * np.sum(np.log2(plan.diag_b) - np.log2(diag_e))
            assert abs(total - mi_diff) <= 1e-8
            g_b = secrecy.effective_mmse_matrix(h_b, b)
            t_top = decomp.qr(g_b @ va).t[:n, :n]
            expected = t_top - np.linalg.inv(t_top).conj().T
            assert np.max(np.abs(plan.t_tilde - expected)) <= 1e-9
            assert np.max(np.abs(plan.diag_b ** 2 - (1.0 + plan.sinr))) <= 1e-9
    announce(5, "rate and feedback identities hold for 50 random right "
                "unitaries on each of 10 instances")


def test_criterion_06_mode_invariance():
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        h_b = cg(rng, int(rng.integers(n, 5)), n)
        h_e = cg(rng, int(rng.integers(n, 5)), n)
        kbar_f = cg(rng, n, n)
        kbar = kbar_f @ kbar_f.conj().T
        capacity = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).capacity_bits
        for mode in scheme.PRECODER_MODES:
            plan = scheme.build_wiretap_plan(h_b, h_e, kbar, mode)
            assert abs(np.sum(plan.secret_rates_bits) - capacity) <= 1e-8
            if mode == "svd_eve":
                k_star = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).k_star
                d = np.linalg.svd(h_e @ secrecy.matrix_sqrt(k_star),
                                  compute_uv=False)
                d = np.concatenate([d, np.zeros(n - d.size)])
                assert np.max(np.abs(plan.diag_e ** 2 - (1.0 + d ** 2))) <= 1e-9
    announce(6, "total secret rate is identical across all precoder modes "
                "within 1e-8; the eavesdropper-diagonalizing mode satisfies "
                "e^2 = 1 + d^2 within 1e-9")


def test_criterion_07_dpc_equivalence():
    rng = np.random.default_rng(71)
    for i in range(10):
        n = int(rng.integers(2, 4))
        h_b = cg(rng, int(rng.integers(n, 5)), n)
        h_e = cg(rng, int(rng.integers(n, 5)), n)
        plan = scheme.build_dpc_plan(h_b, h_e, np.eye(n))
        wiretap = scheme.build_wiretap_plan(h_b, h_e, np.eye(n), "gsvd")
        assert np.max(np.abs(plan.rates_bits
                             - wiretap.secret_rates_bits)) <= 1e-9
        # The plan reads its rates off the wiretap plan, so they are also
        # checked against I(u_k; y_k) - I(u_k; y_e, later u) from slogdet.
        rates_u, _, leakage = dpc_oracle(plan, h_e)
        assert np.max(np.abs(plan.rates_bits
                             - np.maximum(rates_u - leakage, 0.0))) <= 1e-9
        expected_alpha = np.maximum(
            (plan.base.diag_b ** 2 - 1.0) / plan.base.diag_b ** 2, 0.0)
        assert np.max(np.abs(plan.alpha - expected_alpha)) <= 1e-12
        if i < 2:
            rep = scheme.simulate_dpc(plan, h_b, 50000, seed=700 + i)
            assert rep.extras["alpha_bracket_ok"]
    announce(7, "per-stream DPC rates equal the SIC-path rates and the slogdet "
                "mutual informations within 1e-9; "
                "alpha is the empirical MMSE minimizer (+/-10% bracket)")


def test_criterion_08_broadcast_rectangle():
    rng = np.random.default_rng(81)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        h_b = cg(rng, int(rng.integers(n, 5)), n)
        h_c = cg(rng, int(rng.integers(n, 5)), n)
        kbar_f = cg(rng, n, n)
        kbar = kbar_f @ kbar_f.conj().T
        plan = scheme.build_broadcast_plan(h_b, h_c, kbar)
        cap_b = secrecy.secrecy_capacity_cov(h_b, h_c, kbar).capacity_bits
        cap_c = secrecy.secrecy_capacity_cov(h_c, h_b, kbar).capacity_bits
        assert abs(np.sum(plan.bob_rates_bits) - cap_b) <= 1e-8
        assert abs(np.sum(plan.charlie_rates_bits) - cap_c) <= 1e-8
        fwd = np.log2(secrecy.channel_gsv(h_b, h_c, kbar))
        bwd = np.log2(secrecy.channel_gsv(h_c, h_b, kbar))
        assert np.max(np.abs(bwd + fwd[::-1])) <= 1e-8
    announce(8, "one broadcast plan attains both role-swapped wiretap "
                "capacities simultaneously; GSV inversion holds within 1e-8")


def test_criterion_09_monte_carlo(tmp_path):
    rng = np.random.default_rng(4)
    h_b = 2.0 * cg(rng, 3, 3)
    h_e = 0.7 * cg(rng, 3, 3)
    kbar = np.eye(3)
    plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")

    sic = scheme.simulate_sic(plan.base, h_b, 100000, seed=9001, genie=True)
    assert np.all(sic.sinr_rel_error <= 0.02)
    assert sic.within_bands()

    leak = scheme.simulate_leakage(plan, h_e, 100000, seed=9001)
    rel = np.abs(leak.leakage_bits - leak.leakage_expected) / leak.leakage_expected
    assert np.all(rel <= 0.03)

    problem = {
        "h_b": [[[v.real, v.imag] for v in row] for row in h_b],
        "h_e": [[[v.real, v.imag] for v in row] for row in h_e],
        "samples": 100000,
        "seed": 9001,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    payloads = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "wtd", "simulate", "--input", str(path),
             "--scheme", "wiretap", "--out", str(out)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]
    announce(9, "genie SINRs within 2% and 3 standard errors at 1e5 samples; "
                "leakage within 3% of log2 e^2; fixed seed reproduces "
                "byte-identical reports")


def grid_search_capacity(h_b, h_e, power, coarse=41, fine=31):
    """Exhaustive eigenvalue-split x rotation-angle grid for 2x2 real
    instances, with one local refinement pass around the coarse argmax.

    Each grid is evaluated as one stack with an oracle-side formula: the
    capacity under the constraint ``K = B B'`` is ``sum max(log2 lam, 0)``
    over the generalized eigenvalues ``lam`` of ``(I + B'H_b'H_b B,
    I + B'H_e'H_e B)``.  The refinement is centred on the first coarse
    maximum in row-major (p, theta) order.
    """

    def grid(ps, ths):
        p, th = (a.ravel() for a in np.meshgrid(ps, ths, indexing="ij"))
        c, s = np.cos(th), np.sin(th)
        u = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        root = np.sqrt(np.stack([p, power - p], -1))
        b = (u * root[:, None, :]) @ np.swapaxes(u, 1, 2)

        def gram(h):
            hb = h @ b
            return np.eye(2) + np.swapaxes(hb, 1, 2) @ hb

        lam = np.linalg.eigvals(np.linalg.solve(gram(h_e), gram(h_b))).real
        values = np.sum(np.maximum(np.log2(lam), 0.0), axis=1)
        best = int(np.argmax(values))
        return values[best], p[best], th[best]

    value, p0, th0 = grid(np.linspace(0.0, power, coarse),
                          np.linspace(0.0, np.pi, coarse, endpoint=False))
    dp = power / (coarse - 1)
    dth = np.pi / coarse
    refined, _, _ = grid(np.linspace(max(0.0, p0 - dp), min(power, p0 + dp), fine),
                         np.linspace(th0 - dth, th0 + dth, fine))
    return max(value, refined)


def test_criterion_10_power_search():
    rng = np.random.default_rng(424242)
    worst = 0.0
    for i in range(10):
        h_b = rng.standard_normal((2, 2))
        h_e = rng.standard_normal((2, 2))
        oracle = grid_search_capacity(h_b, h_e, power=2.0)
        search = secrecy.power_constrained_capacity(h_b, h_e, power=2.0,
                                                    budget=500, seed=100 + i)
        worst = max(worst, abs(search.capacity_lower_bound - oracle))
    assert worst <= 1e-3, worst
    announce(10, "total-power search within 1e-3 bits of the exhaustive "
                 "2-parameter grid oracle on 10 instances "
                 f"(worst gap {worst:.2e})")
