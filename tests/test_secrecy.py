import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wtd import decomp, scheme, secrecy
from wtd.errors import DomainError, NotPSD

from conftest import complex_gaussian, count_calls, random_psd, rel_residual
from test_range import SCALES


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(secrecy.matrix_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_singular_diagonal(self):
        b = secrecy.matrix_sqrt(np.diag([4.0, 0.0]))
        assert np.allclose(b, np.diag([2.0, 0.0]), atol=1e-12)

    def test_random_psd_reconstructs(self, rng):
        k = random_psd(rng, 4)
        b = secrecy.matrix_sqrt(k)
        assert np.linalg.norm(b @ b.conj().T - k) <= 1e-9 * max(np.linalg.norm(k), 1.0)

    def test_clamps_tiny_negative(self):
        k = np.diag([1.0, -5e-11])
        b = secrecy.matrix_sqrt(k)
        assert np.allclose(b, np.diag([1.0, 0.0]), atol=1e-5)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            secrecy.matrix_sqrt(np.diag([1.0, -1e-3]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            secrecy.matrix_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestEffectiveMmseMatrix:
    def test_dead_channel(self):
        g = secrecy.effective_mmse_matrix(np.zeros((2, 3)), np.eye(3))
        assert np.allclose(g, np.concatenate([np.zeros((2, 3)), np.eye(3)]))
        assert np.allclose(np.linalg.svd(g, compute_uv=False), np.ones(3))

    def test_scalar(self):
        g = secrecy.effective_mmse_matrix(np.eye(1), np.eye(1))
        assert np.allclose(np.linalg.svd(g, compute_uv=False), [np.sqrt(2.0)])

    def test_singular_values_shift(self, rng):
        h = complex_gaussian(rng, 3, 4)
        b = secrecy.matrix_sqrt(random_psd(rng, 4))
        g = secrecy.effective_mmse_matrix(h, b)
        sg = np.linalg.svd(g, compute_uv=False)
        sh = np.linalg.svd(h @ b, compute_uv=False)
        sh = np.concatenate([sh, np.zeros(4 - sh.size)])
        assert np.allclose(sg ** 2, 1.0 + sh ** 2, rtol=1e-9, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DomainError):
            secrecy.effective_mmse_matrix(complex_gaussian(rng, 2, 3), np.eye(2))


class TestGaussianMi:
    def test_zero_covariance(self, rng):
        h = complex_gaussian(rng, 2, 2)
        assert secrecy.gaussian_mi(h, np.zeros((2, 2))) == 0.0

    def test_scalar_one_bit(self):
        assert np.isclose(secrecy.gaussian_mi(np.eye(1), np.eye(1)), 1.0, atol=1e-12)

    def test_matches_triangular_diagonal(self, rng):
        h = complex_gaussian(rng, 3, 3)
        k = random_psd(rng, 3)
        g = secrecy.effective_mmse_matrix(h, secrecy.matrix_sqrt(k))
        d = decomp.qr(g).diagonal
        assert np.isclose(secrecy.gaussian_mi(h, k), 2 * np.sum(np.log2(d)), atol=1e-8)


class TestSecrecyMiDifference:
    def test_equal_channels(self, rng):
        h = complex_gaussian(rng, 2, 2)
        k = random_psd(rng, 2)
        assert abs(secrecy.secrecy_mi_difference(h, h, k)) <= 1e-12

    def test_dead_eavesdropper(self, rng):
        h = complex_gaussian(rng, 2, 2)
        k = random_psd(rng, 2)
        assert np.isclose(secrecy.secrecy_mi_difference(h, np.zeros((2, 2)), k),
                          secrecy.gaussian_mi(h, k), atol=1e-12)

    def test_matches_diagonal_ratios_any_precoder(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        h_e = complex_gaussian(rng, 2, 3)
        k = random_psd(rng, 3)
        b = secrecy.matrix_sqrt(k)
        g_b = secrecy.effective_mmse_matrix(h_b, b)
        g_e = secrecy.effective_mmse_matrix(h_e, b)
        expected = secrecy.secrecy_mi_difference(h_b, h_e, k)
        for _ in range(5):
            va = decomp.haar_unitary(3, rng)
            jt = decomp.joint_triangularize(g_b, g_e, va)
            total = 2 * np.sum(np.log2(jt.diag1) - np.log2(jt.diag2))
            assert np.isclose(total, expected, atol=1e-8)


class TestChannelGsv:
    def test_zero_covariance(self, rng):
        h_b = complex_gaussian(rng, 2, 3)
        h_e = complex_gaussian(rng, 2, 3)
        mu = secrecy.channel_gsv(h_b, h_e, np.zeros((3, 3)))
        assert np.allclose(mu, np.ones(3), atol=1e-9)

    def test_equal_channels(self, rng):
        h = complex_gaussian(rng, 3, 3)
        mu = secrecy.channel_gsv(h, h, random_psd(rng, 3))
        assert np.allclose(mu, np.ones(3), atol=1e-9)

    def test_dead_eavesdropper(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        k = random_psd(rng, 3)
        mu = secrecy.channel_gsv(h_b, np.zeros((3, 3)), k)
        s = np.linalg.svd(h_b @ secrecy.matrix_sqrt(k), compute_uv=False)
        assert np.allclose(mu ** 2, 1.0 + s ** 2, rtol=1e-9)


class TestSecrecyCapacityCov:
    def test_equal_channels_zero_capacity(self, rng):
        h = complex_gaussian(rng, 2, 2)
        res = secrecy.secrecy_capacity_cov(h, h, np.eye(2))
        assert res.capacity_bits <= 1e-9
        assert res.lb == 0

    def test_dead_eavesdropper_point_to_point(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        res = secrecy.secrecy_capacity_cov(h_b, np.zeros((2, 2)), np.eye(2))
        assert np.isclose(res.capacity_bits, secrecy.gaussian_mi(h_b, np.eye(2)),
                          atol=1e-9)

    def test_dominates_sampled_covariances(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        h_e = complex_gaussian(rng, 2, 2)
        kbar = np.eye(2)
        res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        for _ in range(2000):
            k = secrecy.sample_constrained_covariance(kbar, rng)
            assert secrecy.secrecy_mi_difference(h_b, h_e, k) <= res.capacity_bits + 1e-8
        achieved = secrecy.secrecy_mi_difference(h_b, h_e, res.k_star)
        assert np.isclose(achieved, res.capacity_bits, atol=1e-8)

    def test_k_star_within_constraint(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        h_e = complex_gaussian(rng, 2, 3)
        kbar = random_psd(rng, 3)
        res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        gap = np.linalg.eigvalsh(kbar - res.k_star)
        assert gap.min() >= -1e-8
        mu_star = secrecy.channel_gsv(h_b, h_e, res.k_star)
        assert np.all(mu_star >= 1.0 - 1e-7)

    def test_k_star_matches_diagonal_form_route(self, rng):
        # Cross-check: the optimal covariance can also be written through
        # the diagonal-form factors, sandwiching the projection built from
        # the inverse-adjoint right factor's leading columns.
        for _ in range(5):
            h_b = complex_gaussian(rng, 3, 3)
            h_e = complex_gaussian(rng, 3, 3)
            kbar = random_psd(rng, 3)
            res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            if res.lb == 0:
                assert np.allclose(res.k_star, 0.0, atol=1e-10)
                continue
            b = secrecy.matrix_sqrt(kbar)
            g_b = secrecy.effective_mmse_matrix(h_b, b)
            g_e = secrecy.effective_mmse_matrix(h_e, b)
            f = decomp.gsvd_diagonal(g_b, g_e)
            y = np.linalg.inv(f.x).conj().T
            y_b = y[:, :res.lb]
            middle = np.zeros((3, 3), dtype=complex)
            middle[:res.lb, :res.lb] = np.linalg.inv(y_b.conj().T @ y_b)
            alt = b @ y @ middle @ y.conj().T @ b.conj().T
            assert np.max(np.abs(alt - res.k_star)) <= 1e-8


class TestVerifyTruncation:
    def test_all_streams_active(self, rng):
        h_b = 5.0 * complex_gaussian(rng, 3, 2)
        h_e = 0.05 * complex_gaussian(rng, 2, 2)
        report = secrecy.verify_truncation(h_b, h_e, np.eye(2))
        assert report.lb == 2
        assert report.ok
        assert report.max_deviation <= 1e-7

    def test_no_stream_active(self, rng):
        h_b = 0.05 * complex_gaussian(rng, 2, 2)
        h_e = 5.0 * complex_gaussian(rng, 3, 2)
        report = secrecy.verify_truncation(h_b, h_e, np.eye(2))
        assert report.lb == 0
        assert report.ok
        assert np.allclose(report.gsv_truncated, np.ones(2), atol=1e-7)

    def test_mixed_random(self, rng):
        for _ in range(10):
            h_b = complex_gaussian(rng, 3, 3)
            h_e = complex_gaussian(rng, 3, 3)
            report = secrecy.verify_truncation(h_b, h_e, random_psd(rng, 3))
            assert report.ok, report.max_deviation


class TestMonotonicity:
    def test_full_constraint_is_equality(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        h_e = complex_gaussian(rng, 2, 3)
        kbar = random_psd(rng, 3)
        ref = np.abs(np.log2(secrecy.channel_gsv(h_b, h_e, kbar)))
        again = np.abs(np.log2(secrecy.channel_gsv(h_b, h_e, kbar)))
        assert np.allclose(ref, again)

    def test_sampled_interval(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        h_e = complex_gaussian(rng, 3, 3)
        report = secrecy.gsv_monotonicity_check(h_b, h_e, random_psd(rng, 3),
                                                samples=1000, seed=7)
        assert report.ok
        assert report.violations == 0

    def test_requires_samples(self, rng):
        with pytest.raises(DomainError):
            secrecy.gsv_monotonicity_check(np.eye(2), np.eye(2), np.eye(2),
                                           samples=0, seed=0)


class TestBroadcastRegion:
    def test_equal_channels(self, rng):
        h = complex_gaussian(rng, 2, 2)
        region = secrecy.broadcast_region(h, h, np.eye(2))
        assert region.rb_max <= 1e-9 and region.rc_max <= 1e-9

    def test_dead_second_user(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        region = secrecy.broadcast_region(h_b, np.zeros((2, 2)), np.eye(2))
        assert np.isclose(region.rb_max, secrecy.gaussian_mi(h_b, np.eye(2)), atol=1e-9)
        assert region.rc_max <= 1e-9

    def test_role_swap(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        h_c = complex_gaussian(rng, 3, 2)
        kbar = random_psd(rng, 2)
        region = secrecy.broadcast_region(h_b, h_c, kbar)
        assert np.isclose(region.rc_max,
                          secrecy.secrecy_capacity_cov(h_c, h_b, kbar).capacity_bits,
                          atol=1e-9)
        assert np.isclose(region.rb_max,
                          secrecy.secrecy_capacity_cov(h_b, h_c, kbar).capacity_bits,
                          atol=1e-9)

    def test_gsv_is_channel_gsv(self, rng):
        h_b = complex_gaussian(rng, 3, 2)
        h_c = complex_gaussian(rng, 2, 2)
        kbar = random_psd(rng, 2)
        region = secrecy.broadcast_region(h_b, h_c, kbar)
        assert np.array_equal(region.gsv, secrecy.channel_gsv(h_b, h_c, kbar))


class TestScalarCapacity:
    def test_direct_value(self):
        assert np.isclose(secrecy.scalar_secrecy_capacity(2.0, 1.0),
                          np.log2(5.0 / 2.0), atol=1e-12)

    def test_equal_gains(self):
        assert secrecy.scalar_secrecy_capacity(1.0, 1.0) == 0.0

    def test_positive_part(self):
        assert secrecy.scalar_secrecy_capacity(1.0, 2.0) == 0.0


class TestPowerConstrainedCapacity:
    def test_single_antenna_exact(self, rng):
        h_b = np.array([[1.7 - 0.3j]])
        res = secrecy.power_constrained_capacity(h_b, np.zeros((1, 1)), power=2.5,
                                                 budget=5, seed=1)
        assert np.isclose(res.capacity_lower_bound,
                          np.log2(1 + abs(h_b[0, 0]) ** 2 * 2.5), atol=1e-12)

    def test_equal_channels_zero(self, rng):
        h = complex_gaussian(rng, 2, 2)
        res = secrecy.power_constrained_capacity(h, h, power=2.0, budget=30, seed=3)
        assert res.capacity_lower_bound <= 1e-9

    def test_monotone_in_budget(self, rng):
        h_b = complex_gaussian(rng, 2, 2)
        h_e = complex_gaussian(rng, 2, 2)
        small = secrecy.power_constrained_capacity(h_b, h_e, 2.0, budget=40, seed=11)
        large = secrecy.power_constrained_capacity(h_b, h_e, 2.0, budget=160, seed=11)
        assert large.capacity_lower_bound >= small.capacity_lower_bound - 1e-12
        assert np.isclose(np.real(np.trace(large.kbar)), 2.0, atol=1e-9)

    def test_rejects_bad_power(self, rng):
        with pytest.raises(DomainError):
            secrecy.power_constrained_capacity(np.eye(2), np.eye(2), power=0.0)

    @pytest.mark.parametrize("power", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_non_finite_power(self, power):
        with pytest.raises(DomainError, match="power"):
            secrecy.power_constrained_capacity(np.eye(2), np.eye(2), power=power)

    def test_rejects_column_mismatch(self):
        with pytest.raises(DomainError, match="h_b and h_e"):
            secrecy.power_constrained_capacity(np.eye(2), np.eye(3), power=1.0)

    @pytest.mark.parametrize("budget", [2.5, 10.0, True, np.float64(8.0), "8"])
    def test_rejects_a_budget_that_is_not_an_integer(self, budget):
        with pytest.raises(DomainError, match="budget must be at least 1 and an integer") as info:
            secrecy.power_constrained_capacity(np.eye(2), np.eye(2), 1.0, budget=budget)
        assert info.type is DomainError

    @pytest.mark.parametrize("budget", [9, np.int64(9), np.int32(9)])
    def test_accepts_python_and_numpy_integer_budgets(self, budget):
        res = secrecy.power_constrained_capacity(np.eye(2), 0.5 * np.eye(2), 1.0, budget=budget)
        assert res.evaluations == 9

    @pytest.mark.parametrize("power", ["1.0", 1.0 + 0j, True, [1.0], None])
    def test_rejects_a_power_that_is_not_a_real_number(self, power):
        with pytest.raises(DomainError, match="total power must be a positive finite number"):
            secrecy.power_constrained_capacity(np.eye(2), np.eye(2), power=power)

    @pytest.mark.parametrize("name", ["h_b", "h_e"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_channel_is_named(self, name, bad):
        channels = {"h_b": np.eye(2), "h_e": np.eye(2)}
        channels[name] = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(DomainError, match=f"^{name} entries must be finite$"):
            secrecy.power_constrained_capacity(channels["h_b"], channels["h_e"], 1.0)

    def test_isotropic_optimum_keeps_the_exact_start(self):
        # Every rotation-equal pair has the isotropic constraint as its optimum,
        # so no candidate beats the start by more than rounding: kbar is the
        # start itself, not the round trip of its factor.
        h_b, h_e = 2.0 * np.eye(3), np.eye(3)
        res = secrecy.power_constrained_capacity(h_b, h_e, 2.0)
        start = np.eye(3, dtype=complex) * (2.0 / 3)
        assert res.kbar.tobytes() == start.tobytes()
        assert res.capacity_lower_bound == secrecy.secrecy_capacity_cov(h_b, h_e, start).capacity_bits

    def test_isotropic_factor_is_the_root_of_the_start(self, rng):
        # The search ranks the start on the factor sqrt(power / n) I and keeps
        # that value as the start's capacity: it must be the start's root.
        for n in range(1, 9):
            for power in [*10.0 ** rng.uniform(-3.0, 3.0, 20), 1.0, 2.0, 3.0, float(n)]:
                root = secrecy.matrix_sqrt(np.eye(n, dtype=complex) * (power / n))
                assert root.tobytes() == (np.eye(n, dtype=complex) * np.sqrt(power / n)).tobytes()

    @pytest.mark.parametrize("n, power", [(3, 1.5), (5, 1.0)])
    def test_nothing_beats_the_start_under_a_stronger_eavesdropper(self, n, power):
        # Every candidate has capacity 0.  At these (n, power) the start's
        # factor, squared and scaled to trace power, is not the start itself.
        res = secrecy.power_constrained_capacity(np.eye(n), 2.0 * np.eye(n), power, budget=50)
        assert res.kbar.tobytes() == (np.eye(n, dtype=complex) * (power / n)).tobytes()
        assert res.capacity_lower_bound == 0.0

    def test_bound_is_never_below_the_start(self):
        # Pairs whose optimum is the isotropic start: a rounding-level improvement
        # must not leave a bound below the start's capacity.
        rng = np.random.default_rng(5)
        for seed in range(40):
            n = 2 + seed % 4
            u = decomp.haar_unitary(n, rng)
            h_b, h_e, power = 3.0 * u, u, float(10.0 ** rng.uniform(-2.0, 2.0))
            res = secrecy.power_constrained_capacity(h_b, h_e, power, budget=200, seed=seed)
            start = secrecy.secrecy_capacity_cov(h_b, h_e, np.eye(n) * (power / n)).capacity_bits
            assert res.capacity_lower_bound >= start
            assert res.capacity_lower_bound == secrecy.secrecy_capacity_cov(
                h_b, h_e, res.kbar).capacity_bits

    def test_bound_is_exact_capacity_of_kbar(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        h_e = complex_gaussian(rng, 2, 3)
        for budget in (1, 3, 37, 120):
            res = secrecy.power_constrained_capacity(h_b, h_e, 1.5, budget=budget, seed=4)
            assert res.evaluations == budget
            exact = secrecy.secrecy_capacity_cov(h_b, h_e, res.kbar).capacity_bits
            assert res.capacity_lower_bound == exact

    # Bounds and constraints of the search that ranks every candidate on its
    # own factor, recorded when it replaced the search that ranked the root of
    # each candidate covariance.  Its trajectory differs, so both moved: 2x2
    # from 2.9706129686137133 to 2.9706273532878518 bits, 4x3 from
    # 2.3025424260145555 to 2.3032731591958138.
    GOLDEN = [
        ("2x2", 2.0, 200, 5, 2.9706273532878518, [
            [1.1302002181134287, -0.21919094918698456 + 0.9669531999942276j],
            [-0.21919094918698456 - 0.9669531999942276j, 0.8697997818865714]]),
        ("4x3", 3.0, 300, 7, 2.3032731591958138, [
            [0.16602235245616825, 0.29656238630322135 - 0.29115311101241054j,
             0.5198527073277698 - 0.14519407716426797j],
            [0.29656238630322135 + 0.29115311101241054j, 1.0541054921166166,
             1.198465811411483 + 0.6603306964946114j],
            [0.5198527073277698 + 0.14519407716426797j,
             1.198465811411483 - 0.6603306964946114j, 1.779872155427215]]),
    ]

    @pytest.mark.parametrize("name, power, budget, seed, bound, kbar", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_golden_search(self, name, power, budget, seed, bound, kbar):
        if name == "2x2":
            h_b = np.array([[1.0 + 0.5j, -0.25 + 1.0j], [0.5 - 0.75j, 1.25]])
            h_e = np.array([[0.5 + 0.25j, 0.75 - 0.5j], [-0.25 + 0.5j, 0.25 + 0.25j]])
        else:
            problem_rng = np.random.default_rng(31337)
            h_b = complex_gaussian(problem_rng, 4, 3)
            h_e = complex_gaussian(problem_rng, 3, 3)
        res = secrecy.power_constrained_capacity(h_b, h_e, power, budget=budget, seed=seed)
        assert abs(res.capacity_lower_bound - bound) <= 1e-12
        assert np.max(np.abs(res.kbar - np.array(kbar))) <= 1e-12
        assert res.evaluations == budget


def sequential_power_search(h_b, h_e, power, budget, seed):
    """Reference for the power search: the start ranked by its certified
    capacity, every other factor on its own by the ranking kernel, and the
    (1+1) refinement taken one step at a time.  Returns ``kbar``, the bound,
    the evaluation count and the largest refinement step."""
    n = h_b.shape[1]
    rng = np.random.default_rng(seed)
    start = np.eye(n, dtype=complex) * np.sqrt(power / n)
    rs = secrecy._square_pair(h_b, h_e)
    isotropic = np.eye(n, dtype=complex) * (power / n)
    best = [secrecy.secrecy_capacity_cov(h_b, h_e, isotropic).capacity_bits, start]
    evaluations = 1

    def normalized(f):
        norm2 = np.sum(np.abs(f) ** 2, axis=(-2, -1))
        return start if norm2 <= 0.0 else f * np.sqrt(power / norm2)

    def consider(f):
        nonlocal evaluations
        evaluations += 1
        mu = secrecy._candidate_gsv(rs, f[None])[0]
        c = np.sum(np.maximum(2.0 * np.log2(mu), 0.0))
        if c > best[0]:
            best[:] = [c, f]
            return True
        return False

    start_c = best[0]
    pencil = np.linalg.solve(np.eye(n) + h_e.conj().T @ h_e, np.eye(n) + h_b.conj().T @ h_b)
    w, vecs = np.linalg.eig(pencil)
    if evaluations < budget:
        consider(normalized(np.outer(vecs[:, np.argmax(np.real(w))], np.eye(1, n)[0])))
    for _ in range(max(0, min(budget - evaluations, budget // 4))):
        z = rng.standard_normal((2, n, n))
        consider(normalized(z[0] + 1j * z[1]))
    step, largest = 0.5, 0.0
    while evaluations < budget:
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        largest = max(largest, step)
        if consider(normalized(best[1] + step * np.sqrt(power / (2.0 * n)) * noise)):
            step *= 1.8
        else:
            step *= 0.87
        step = min(max(step, 1e-9), 2.0)
    kbar = isotropic
    if best[0] > start_c:
        k = best[1] @ best[1].conj().T
        k = k * (power / np.real(np.trace(k)))
        kbar = (k + k.conj().T) / 2.0
    bound = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).capacity_bits
    if bound < start_c:
        kbar, bound = isotropic, start_c
    return kbar, bound, evaluations, largest


def assert_same_search(h_b, h_e, power, budget, seed):
    kbar, bound, evaluations, largest = sequential_power_search(h_b, h_e, power, budget, seed)
    res = secrecy.power_constrained_capacity(h_b, h_e, power, budget=budget, seed=seed)
    assert res.kbar.tobytes() == kbar.tobytes()
    assert res.capacity_lower_bound == bound
    assert res.evaluations == evaluations == budget
    return largest


class TestSpeculativeRefinement:
    BATCH = secrecy._REFINE_BATCH

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_sequential_search(self, rng, n):
        h_b = complex_gaussian(rng, n + 1, n)
        h_e = complex_gaussian(rng, n, n)
        for budget in (1, 2, 3, self.BATCH - 1, self.BATCH, self.BATCH + 1, 137, 500):
            assert_same_search(h_b, h_e, 0.5 * n, budget, seed=n + budget)

    def test_matches_across_noise_chunks(self, rng):
        # 1,948 refinement steps: their noise comes in two draws of at most
        # STACK_CHUNK steps, and a stack can straddle the two.
        budget = 2600
        assert budget - 2 - budget // 4 > secrecy.STACK_CHUNK
        assert_same_search(complex_gaussian(rng, 4, 3), complex_gaussian(rng, 3, 3), 1.5,
                           budget, seed=9)

    @pytest.mark.parametrize("budget, seed, capped", [(12, 2, False), (12, 7, True),
                                                      (40, 14, True)])
    def test_matches_when_step_reaches_cap(self, budget, seed, capped):
        # At low power the beamforming direction (largest gain ratio) is not
        # the best one (largest gain difference), so the refinement keeps
        # succeeding: three successes in a row take the step from 0.5 to
        # the 2.0 cap.  At budget 12, seed 7 gets there and seed 2 does not.
        h_b = np.diag([10.0, 1.0]).astype(complex)
        h_e = np.diag([9.5, 0.0]).astype(complex)
        assert (assert_same_search(h_b, h_e, 0.01, budget, seed) == 2.0) == capped

    def test_failing_stack_is_ranked_one_by_one(self, rng, monkeypatch):
        # A failure of a candidate the sequential search never ranks must
        # not end the search: a refinement stack that fails is retaken one
        # candidate at a time.
        candidate_gsv = secrecy._candidate_gsv

        def fail_refinement_stacks(rs, fs):
            if 1 < fs.shape[0] <= self.BATCH:
                raise DomainError("injected")
            return candidate_gsv(rs, fs)

        h_b = complex_gaussian(rng, 4, 3)
        h_e = complex_gaussian(rng, 3, 3)
        expected = sequential_power_search(h_b, h_e, 2.0, 137, 5)
        monkeypatch.setattr(secrecy, "_candidate_gsv", fail_refinement_stacks)
        res = secrecy.power_constrained_capacity(h_b, h_e, 2.0, budget=137, seed=5)
        assert res.kbar.tobytes() == expected[0].tobytes()
        assert (res.capacity_lower_bound, res.evaluations) == expected[1:3]

    def test_ranks_refinement_in_stacks(self, rng, monkeypatch):
        # Call count, not time: one call per refinement step is about 376
        # calls at budget 500, one stack per batch fewer than 150.
        calls = count_calls(monkeypatch, secrecy, ("_candidate_gsv",))
        res = secrecy.power_constrained_capacity(complex_gaussian(rng, 5, 4),
                                                 complex_gaussian(rng, 6, 4), 4.0,
                                                 budget=500, seed=11)
        assert res.evaluations == 500
        assert 1 < len(calls) < 150

    def test_roots_only_the_result(self, rng, monkeypatch):
        # Candidates are ranked on their own factors: the final capacity call
        # roots kbar, and nothing else does (every root goes through ``_root``).
        monkeypatch.setattr(secrecy, "_last", None)
        calls = count_calls(monkeypatch, secrecy, ("_root",))
        res = secrecy.power_constrained_capacity(complex_gaussian(rng, 5, 4),
                                                 complex_gaussian(rng, 6, 4), 4.0,
                                                 budget=500, seed=11)
        assert res.evaluations == 500
        assert calls == ["_root"]


class TestStackedEvaluation:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_matches_per_matrix_calls(self, rng, n):
        h_b = complex_gaussian(rng, n + 1, n)
        h_e = complex_gaussian(rng, n, n)
        ks = np.stack([random_psd(rng, n, rank=1 + i % n) for i in range(12)])
        roots = secrecy.matrix_sqrt(ks)
        gsv = secrecy.channel_gsv(h_b, h_e, ks)
        assert roots.shape == (12, n, n) and gsv.shape == (12, n)
        for i, k in enumerate(ks):
            assert np.array_equal(roots[i], secrecy.matrix_sqrt(k))
            assert np.array_equal(gsv[i], secrecy.channel_gsv(h_b, h_e, k))

    def test_one_indefinite_matrix_fails_the_stack(self, rng):
        ks = np.stack([random_psd(rng, 3) for _ in range(5)])
        ks[3] = np.diag([1.0, 1.0, -1e-3])
        with pytest.raises(NotPSD):
            secrecy.matrix_sqrt(ks)
        with pytest.raises(NotPSD):
            secrecy.channel_gsv(complex_gaussian(rng, 3, 3), complex_gaussian(rng, 3, 3), ks)

    def test_one_non_hermitian_matrix_fails_the_stack(self, rng):
        ks = np.stack([random_psd(rng, 2) for _ in range(4)])
        ks[1, 0, 1] += 1.0
        with pytest.raises(DomainError):
            secrecy.matrix_sqrt(ks)


class TestSpectrumProperties:
    def test_gsv_inversion_identity(self, rng):
        h_b = complex_gaussian(rng, 3, 3)
        h_c = complex_gaussian(rng, 2, 3)
        kbar = random_psd(rng, 3)
        fwd = np.log2(secrecy.channel_gsv(h_b, h_c, kbar))
        bwd = np.log2(secrecy.channel_gsv(h_c, h_b, kbar))
        assert np.allclose(bwd, -fwd[::-1], atol=1e-8)

    def test_differential_sign(self, rng):
        # A PSD perturbation of the covariance pushes every GSV away from 1,
        # in the direction of its current side.
        checked = 0
        for _ in range(20):
            h_b = complex_gaussian(rng, 3, 3)
            h_e = complex_gaussian(rng, 3, 3)
            k = random_psd(rng, 3)
            dk = random_psd(rng, 3) + 0.1 * np.eye(3)
            dk *= 1e-6 / np.linalg.norm(dk)
            mu = secrecy.channel_gsv(h_b, h_e, k)
            mu_after = secrecy.channel_gsv(h_b, h_e, k + dk)
            gaps = np.abs(mu[:, None] - mu[None, :]) + np.eye(3)
            for i in range(3):
                if abs(mu[i] - 1.0) <= 1e-3 or gaps[i].min() <= 1e-3:
                    continue
                checked += 1
                assert np.sign(mu_after[i] - mu[i]) == np.sign(mu[i] - 1.0)
        assert checked > 10

    def test_capacity_nonnegative(self, rng):
        for _ in range(10):
            h_b = complex_gaussian(rng, 2, 3)
            h_e = complex_gaussian(rng, 4, 3)
            res = secrecy.secrecy_capacity_cov(h_b, h_e, random_psd(rng, 3))
            assert res.capacity_bits >= 0.0

    def test_covariance_spec_validation(self, rng):
        # A sampled covariance is Hermitian PSD and sits below its constraint.
        kbar = random_psd(rng, 2)
        k = secrecy.sample_constrained_covariance(kbar, rng)
        assert np.array_equal(k, k.conj().T)
        secrecy.matrix_sqrt(k)
        assert np.linalg.eigvalsh(k).min() >= -1e-8
        assert np.linalg.eigvalsh(kbar - k).min() >= -1e-8


def triangular_capacity_oracle(h_b, h_e, kbar):
    """``lb`` and ``k_star`` through the full triangular GSVD: keep the first
    ``lb`` columns of ``b @ va`` and nullify the rest."""
    b = secrecy.matrix_sqrt(kbar)
    jt = decomp.gsvd_triangular(secrecy.effective_mmse_matrix(h_b, b),
                                secrecy.effective_mmse_matrix(h_e, b))
    mu = jt.diag1 / jt.diag2
    lb = int(np.sum(mu * mu > 1.0 + secrecy.LB_GSV_TOL))
    selector = np.zeros(mu.size)
    selector[:lb] = 1.0
    bv = b @ jt.va
    k_star = bv * selector[None, :] @ bv.conj().T
    return lb, (k_star + k_star.conj().T) / 2.0


class TestKernelCapacityRoute:
    # (scale of h_b, scale of h_e): no stream active, all active, mixed.
    SCALES = [(0.05, 5.0), (5.0, 0.05), (1.0, 1.0), (1.0, 1.0), (2.0, 0.5)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_k_star_matches_triangular_oracle(self, rng, n):
        seen = set()
        for scale_b, scale_e in self.SCALES:
            h_b = scale_b * complex_gaussian(rng, n + 1, n)
            h_e = scale_e * complex_gaussian(rng, n + 2, n)
            kbar = random_psd(rng, n)
            res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            lb, k_star = triangular_capacity_oracle(h_b, h_e, kbar)
            assert res.lb == lb
            seen.add(lb)
            assert np.linalg.norm(res.k_star - k_star) <= 1e-12 * np.linalg.norm(kbar)
        assert {0, n} <= seen

    def test_no_active_stream_gives_zero_covariance(self, rng):
        res = secrecy.secrecy_capacity_cov(0.05 * complex_gaussian(rng, 3, 3),
                                           5.0 * complex_gaussian(rng, 3, 3), random_psd(rng, 3))
        assert res.lb == 0
        assert np.array_equal(res.k_star, np.zeros((3, 3)))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_gsv_is_channel_gsv(self, rng, n):
        for _ in range(5):
            h_b = complex_gaussian(rng, n + 1, n)
            h_e = complex_gaussian(rng, n, n)
            kbar = random_psd(rng, n, rank=max(1, n - 1))
            res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            assert np.array_equal(res.gsv, secrecy.channel_gsv(h_b, h_e, kbar))
            region = secrecy.broadcast_region(h_b, h_e, kbar)
            assert region.rb_max == res.capacity_bits


def _derived_kernel_problems():
    """150 problems at n = 1..5: generic, ``lb = 0`` (a dead legitimate channel), ``lb = n``
    (a dead eavesdropper), a rank-deficient ``kbar`` and a wide ``h_e``, each with ``h_b`` at
    one of the scales of ``test_range.py``.  A rank-deficient ``kbar`` stays at unit scale:
    past 1e150 the root's rounding in its null directions (about ``eps`` times the scale)
    makes streams of GSV near ``1e-16`` times the largest, which no two routes resolve alike."""
    rng = np.random.default_rng(2929)
    problems = []
    for i in range(150):
        n, kind, scale = 1 + i % 5, i % 5, SCALES[(i // 5) % len(SCALES)]
        h_b = complex_gaussian(rng, int(rng.integers(1, 7)), n)
        h_e = complex_gaussian(rng, n + int(rng.integers(0, 3)), n)
        kbar = random_psd(rng, n)
        if kind == 1:
            h_b = np.zeros_like(h_b)
        elif kind == 2:
            h_e = np.zeros_like(h_e)
        elif kind == 3:
            kbar = random_psd(rng, n, max(1, n // 2))
        elif kind == 4:
            h_e = complex_gaussian(rng, max(1, n - 1), n)
        problems.append((h_b if kind == 3 else scale * h_b, h_e, kbar))
    return problems


class TestDerivedKStarKernel:
    """The ``gsvd`` plan's factors of ``k_star``, read off the QL of the constraint's kernel,
    are those of a second kernel of ``[h_b f; I]``, ``[h_e f; I]``: ``va``'s active columns
    and the combiner up to one phase per column, the span of the inactive columns, and both
    diagonals."""

    # The SIC SINRs ``d^2 - 1`` still overflow at the largest scales (see ``test_range.py``).
    @pytest.mark.filterwarnings("ignore::RuntimeWarning:wtd.scheme")
    def test_matches_a_second_kernel(self):
        lbs = set()
        for h_b, h_e, kbar in _derived_kernel_problems():
            res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            plan = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
            f, va, combiner = plan.base.b_sqrt, plan.base.va, plan.base.u_tilde
            diag_b, diag_e = plan.base.diag_b, plan.diag_e
            mu, u, _, wh, r2 = secrecy._factor_kernel(h_b, h_e, f)
            want_va, want_b, want_e = decomp._kernel_ql(mu, wh @ r2)
            want_u = u[:h_b.shape[0]]
            lb, n = res.lb, kbar.shape[0]
            lbs.add("none" if lb == 0 else "all" if lb == n else "some")
            inner = np.sum(want_va[:, :lb].conj() * va[:, :lb], axis=0)
            phases = inner / np.abs(inner)
            inactive = [v[:, lb:] @ v[:, lb:].conj().T for v in (va, want_va)]
            for got, want in [(va[:, :lb], want_va[:, :lb] * phases),
                              (combiner[:, :lb], want_u[:, :lb] * phases),
                              (combiner[:, lb:], want_u[:, lb:]), tuple(inactive),
                              (diag_b, want_b), (diag_e, want_e)]:
                top = np.max(np.abs(want), initial=0.0)
                assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * max(top, 1.0)
            assert not combiner[:, lb:].any() and np.array_equal(diag_e[lb:], np.ones(n - lb))
        assert lbs == {"none", "some", "all"}


def _within(got, want, rtol):
    """``got`` within ``rtol`` of ``want``, relative to ``want``'s largest entry."""
    top = np.max(np.abs(want), initial=0.0)
    return np.max(np.abs(got - want), initial=0.0) <= rtol * top


class TestBroadcastCorollary:
    """The paper's corollary: the ``gsvd`` wiretap plan is the broadcast plan's first user.
    Both read the one QL of the constraint's kernel, so on the first ``lb`` streams the
    diagonals agree bit for bit, and the transmit directions and ``k_star`` to rounding."""

    # The SIC SINRs ``d^2 - 1`` still overflow at the largest scales (see ``test_range.py``).
    @pytest.mark.filterwarnings("ignore::RuntimeWarning:wtd.scheme")
    def test_wiretap_streams_are_the_first_users(self):
        lbs = set()
        for h_b, h_e, kbar in _derived_kernel_problems():
            res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            wiretap = scheme.build_wiretap_plan(h_b, h_e, kbar, "gsvd")
            broadcast = scheme.build_broadcast_plan(h_b, h_e, kbar)
            lb, n = res.lb, kbar.shape[0]
            lbs.add("none" if lb == 0 else "all" if lb == n else "some")
            assert broadcast.lb == lb
            assert wiretap.base.diag_b[:lb].tobytes() == broadcast.diag_b[:lb].tobytes()
            assert wiretap.diag_e[:lb].tobytes() == broadcast.diag_c[:lb].tobytes()
            active = wiretap.base.b_sqrt @ wiretap.base.va[:, :lb]
            assert _within(active, broadcast.b_sqrt @ broadcast.va[:, :lb], 1e-12)
            assert _within(res.k_star, active @ active.conj().T, 1e-12)
        assert lbs == {"none", "some", "all"}


class TestLargePower:
    H_B = np.array([[1.0 + 0.5j, -0.25 + 1.0j], [0.5 - 0.75j, 1.25]])
    H_E = np.array([[0.5 + 0.25j, 0.75 - 0.5j], [-0.25 + 0.5j, 0.25 + 0.25j]])

    def test_relative_clamp(self):
        # 16 eps * 1e8 is about 3.6e-7: the rounding-size eigenvalue is
        # clamped, a real one is not.
        b = secrecy.matrix_sqrt(np.diag([1e8, -1e-8]))
        assert np.array_equal(b, np.diag([1e4, 0.0]))
        with pytest.raises(NotPSD):
            secrecy.matrix_sqrt(np.diag([1e8, -1e-3]))

    def test_clamp_is_per_matrix_of_a_stack(self):
        ks = np.stack([np.diag([1e8, -1e-8]), np.diag([1.0, -1e-8])])
        with pytest.raises(NotPSD, match="-1.000e-08 < -1e-10"):
            secrecy.matrix_sqrt(ks)
        assert np.array_equal(secrecy.matrix_sqrt(ks[:1])[0], secrecy.matrix_sqrt(ks[0]))

    @pytest.mark.parametrize("power", [1e8, 1e12])
    def test_search_succeeds(self, rng, power):
        problems = [(self.H_B, self.H_E)] + [
            (complex_gaussian(rng, 4, 4), complex_gaussian(rng, 4, 4)) for _ in range(3)]
        for h_b, h_e in problems:
            n = h_b.shape[1]
            res = secrecy.power_constrained_capacity(h_b, h_e, power, budget=300, seed=1)
            assert np.isfinite(res.capacity_lower_bound)
            assert np.isclose(np.real(np.trace(res.kbar)), power, rtol=1e-9)
            isotropic = secrecy.secrecy_capacity_cov(h_b, h_e, np.eye(n) * (power / n))
            above = secrecy.secrecy_capacity_cov(h_b, h_e, np.eye(n) * power)
            assert isotropic.capacity_bits - 1e-9 <= res.capacity_lower_bound
            assert res.capacity_lower_bound <= above.capacity_bits + 1e-9


class TestRankDeficientConstraint:
    """Rounding-level eigenvalues of a rank-deficient constraint carry no power."""

    @pytest.mark.parametrize("power", [1.0, 1e6, 1e12])
    def test_capacity_matches_the_range_problem(self, power):
        # kbar = P q q' with q two Haar columns; the reference is the same
        # problem on the range of kbar.
        rng = np.random.default_rng(11)
        for _ in range(200):
            h_b, h_e = complex_gaussian(rng, 5, 4), complex_gaussian(rng, 5, 4)
            q = decomp.haar_unitary(4, rng)[:, :2]
            res = secrecy.secrecy_capacity_cov(h_b, h_e, power * q @ q.conj().T)
            ref = secrecy.secrecy_capacity_cov(h_b @ q, h_e @ q, power * np.eye(2))
            assert res.lb == ref.lb
            assert abs(res.capacity_bits - ref.capacity_bits) <= 1e-12

    def test_small_identity_keeps_its_root(self):
        b = secrecy.matrix_sqrt(1e-12 * np.eye(3))
        assert np.allclose(b, 1e-6 * np.eye(3), rtol=1e-12, atol=1e-20)

    def test_full_rank_root_is_unchanged(self, rng):
        # Every eigenvalue lies far above the window: the plain root, bit for bit.
        k = random_psd(rng, 4) + np.eye(4)
        w, q = np.linalg.eigh((k + k.conj().T) / 2.0)
        assert w.min() > 1e6 * secrecy._PSD_EIG_RTOL * w.max()
        assert np.array_equal(secrecy.matrix_sqrt(k), (q * np.sqrt(w)) @ q.conj().T)


@pytest.mark.parametrize("call, named", [
    (lambda: secrecy.secrecy_capacity_cov(np.eye(2), np.eye(2), np.ones((2, 3))),
     "constraint must be a square matrix"),
    (lambda: secrecy.gaussian_mi(np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]])),
     "covariance entries must be finite"),
    (lambda: secrecy.effective_mmse_matrix(np.eye(2), np.ones((2, 3))),
     "channel must be 2-D and the sqrt factor square"),
    (lambda: secrecy.effective_mmse_matrix(np.eye(2), np.eye(3)),
     "channel columns must match the sqrt factor"),
    (lambda: secrecy.power_constrained_capacity(np.eye(2), np.eye(2), 1.0, budget=0),
     "budget must be at least 1"),
])
def test_domain_error_names_the_argument(call, named):
    with pytest.raises(DomainError, match=named) as info:
        call()
    assert info.type is DomainError


def test_monotonicity_violation_reports_a_witness(monkeypatch):
    # Every sample's GSVs made far larger than the constraint's: each one
    # violates by the same amount, so the witness is the first sample.
    h_b, h_e, kbar = 2.0 * np.eye(2), np.eye(2), np.diag([1.0, 2.0])
    reference = np.abs(np.log2(secrecy.channel_gsv(h_b, h_e, kbar)))
    monkeypatch.setattr(secrecy, "channel_gsv", lambda h_b, h_e, ks: np.full(ks.shape[:-1], 1e3))
    report = secrecy.gsv_monotonicity_check(h_b, h_e, kbar, samples=5, seed=2)
    assert not report.ok and report.violations == 5
    assert report.max_violation == pytest.approx(np.log2(1e3) - reference.min(), rel=1e-12)
    first = secrecy._sample_below(secrecy.matrix_sqrt(kbar), np.random.default_rng(2), 5)[0]
    assert np.array_equal(report.witness, first)
    assert np.linalg.eigvalsh(kbar - report.witness).min() >= -1e-12


class TestCandidateKernel:
    """The power search's ranking kernel against the GSVs of the full pairs."""

    # (scale of h_b, scale of h_e, scale of the factors).  ``gsv_values`` refuses a second
    # matrix ``[h_e F; I]`` of condition past 1e12, so h_e is never scaled up.
    SCALES = [(1.0, 1.0, 1.0), (1e150, 1.0, 1.0), (1e-150, 1.0, 1.0), (1.0, 1e-150, 1.0),
              (1e150, 1e-150, 1.0), (1e-150, 1e-150, 1.0), (1.0, 1.0, 1e-150), (1e150, 1.0, 1e-150)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_gsv_values_of_the_full_pairs(self, rng, n):
        rows = sorted({max(1, n - 1), n, n + 2})
        for m_b in rows:
            for m_e in rows:
                for scale_b, scale_e, scale_f in self.SCALES:
                    h_b = scale_b * complex_gaussian(rng, m_b, n)
                    h_e = scale_e * complex_gaussian(rng, m_e, n)
                    fs = scale_f * complex_gaussian(rng, 4 * n, n).reshape(4, n, n)
                    mu = secrecy._candidate_gsv(secrecy._square_pair(h_b, h_e), fs)
                    assert mu.shape == (4, n)
                    for f, got in zip(fs, mu):
                        ref = decomp.gsv_values(secrecy.effective_mmse_matrix(h_b, f),
                                                secrecy.effective_mmse_matrix(h_e, f))
                        assert np.max(np.abs(got - ref) / ref) <= 1e-12
                        capacity = np.sum(np.maximum(2.0 * np.log2(got), 0.0))
                        expected = np.sum(np.maximum(2.0 * np.log2(ref), 0.0))
                        assert abs(capacity - expected) <= 1e-12 * max(1.0, expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stacked_rows_equal_single_calls(self, rng, n):
        for m_b, m_e in [(n + 1, n), (max(1, n - 1), n + 2), (n, max(1, n - 2))]:
            rs = secrecy._square_pair(complex_gaussian(rng, m_b, n), complex_gaussian(rng, m_e, n))
            fs = complex_gaussian(rng, 20 * n, n).reshape(20, n, n)
            mu = secrecy._candidate_gsv(rs, fs)
            for i in range(len(fs)):
                assert mu[i].tobytes() == secrecy._candidate_gsv(rs, fs[i:i + 1])[0].tobytes()
            assert mu[3:11].tobytes() == secrecy._candidate_gsv(rs, fs[3:11]).tobytes()


class TestSearchRange:
    H_B = np.array([[1.0 + 0.5j, -0.25 + 1.0j], [0.5 - 0.75j, 1.25]])
    H_E = np.array([[0.5 + 0.25j, 0.75 - 0.5j], [-0.25 + 0.5j, 0.25 + 0.25j]])

    # Bounds of version 0.11.0, which ranked on the full pairs, at budget 300 and seed 3 on the
    # 4x3 problem of ``TestPowerConstrainedCapacity.GOLDEN``.
    GOLDEN = [("h_b x 1e160", 1e160, 1.0, 4, 3, 3.0, 3186.561526852328),
              ("h_e x 1e160", 1.0, 1e160, 4, 3, 3.0, 0.0),
              ("2-row h_e", 1.0, 1.0, 4, 2, 1e20, 68.17258593897589),
              ("2-row h_b", 1.0, 1.0, 2, 3, 1e12, 1.955046571996878),
              ("power 1e200", 1.0, 1.0, 4, 3, 1e200, 3.3119483587467706)]

    @pytest.mark.parametrize("name, scale_b, scale_e, m_b, m_e, power, bound", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_bound_of_the_full_pair_route(self, name, scale_b, scale_e, m_b, m_e, power, bound):
        problem_rng = np.random.default_rng(31337)
        h_b = scale_b * complex_gaussian(problem_rng, 4, 3)[:m_b]
        h_e = scale_e * complex_gaussian(problem_rng, 3, 3)[:m_e]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = secrecy.power_constrained_capacity(h_b, h_e, power, budget=300, seed=3)
        assert abs(res.capacity_lower_bound - bound) <= 1e-12 * max(1.0, bound)
        assert res.capacity_lower_bound == secrecy.secrecy_capacity_cov(h_b, h_e,
                                                                        res.kbar).capacity_bits

    @pytest.mark.parametrize("power, accepted", [
        (1e307, True), (5e307, True), (np.finfo(float).max / 2.0, True),
        (np.nextafter(np.finfo(float).max / 2.0, np.inf), False), (1e308, False)])
    def test_edge_does_not_depend_on_the_seed(self, power, accepted):
        # Each candidate's norm is taken after a power-of-two scaling, so only
        # ``kbar + kbar'`` limits the power: up to half the double range every
        # seed is searched, past it every seed is refused.
        for budget in (400, 500):
            for seed in range(8):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if not accepted:
                        with pytest.raises(DomainError, match="total power is out of range"):
                            secrecy.power_constrained_capacity(self.H_B, self.H_E, power,
                                                               budget=budget, seed=seed)
                        continue
                    res = secrecy.power_constrained_capacity(self.H_B, self.H_E, power,
                                                             budget=budget, seed=seed)
                assert res.evaluations == budget and np.isfinite(res.capacity_lower_bound)
                assert np.isclose(np.real(np.trace(res.kbar)), power, rtol=1e-9)


    @pytest.mark.parametrize("problem, seed", [(5, 0), (7, 2)])
    def test_lost_gsv_warns_nowhere(self, problem, seed):
        # At this power ``[h_e F; I]`` of a wide h_e has a condition near 1e153, and the ranking
        # (problem 5) or the certifying kernel (problem 7) returns a GSV as exactly 0.
        problem_rng = np.random.default_rng(problem)
        h_b, h_e = complex_gaussian(problem_rng, 5, 4), complex_gaussian(problem_rng, 3, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = secrecy.power_constrained_capacity(h_b, h_e, 1e307, budget=400, seed=seed)
        assert res.evaluations == 400 and np.isfinite(res.capacity_lower_bound)


@pytest.mark.parametrize("power", [1.5e308, 1.7e308])
def test_power_past_the_search_range_is_named(power):
    # ``kbar + kbar'`` could overflow: a DomainError naming the power, no warning.
    h_b, h_e = complex_gaussian(np.random.default_rng(3), 2, 2), 0.5 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="total power is out of range") as info:
            secrecy.power_constrained_capacity(h_b, h_e, power, budget=50, seed=1)
    assert info.type is DomainError
    assert secrecy.power_constrained_capacity(h_b, h_e, 1e300, budget=50, seed=1).evaluations == 50


def test_lb_of_an_overflowing_gsv_square():
    # A GSV of 1e200 squares to inf, which counts as active, and is no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = secrecy.secrecy_capacity_cov(np.diag([1e200, 1.0]), np.eye(2), np.eye(2))
    assert res.lb == 1


def test_capacity_sums_the_active_streams_only():
    # Both GSVs are sqrt(1 + 7.5e-11): above 1, but their squares are not above
    # ``1 + LB_GSV_TOL``, so no stream is active.  The capacity, ``lb``, ``k_star``, the
    # region's first corner and every plan agree that they carry 0 bits (the capacity
    # summed every GSV above 1 and read 2.16e-10 while ``lb`` was 0).
    h_b, h_e, kbar = 1e-5 * np.eye(2), 0.5e-5 * np.eye(2), np.eye(2)
    res = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
    assert np.all(res.gsv > 1.0)
    assert (res.capacity_bits, res.lb) == (0.0, 0)
    assert not res.k_star.any()
    assert secrecy.broadcast_region(h_b, h_e, kbar).rb_max == 0.0
    for mode in scheme.PRECODER_MODES:
        assert not scheme.build_wiretap_plan(h_b, h_e, kbar, mode).secret_rates_bits.any()
        assert not scheme.build_dpc_plan(h_b, h_e, kbar, mode).rates_bits.any()


def test_a_gsv_lost_to_zero_is_out_of_range_for_the_region():
    # The kernel returns the GSVs [4.7e169, 1, -0.0]; every GSV is positive, so the region
    # refuses the 0 rather than return rc_max = inf, and the capacity clips it at 1.
    h_b = np.array([[3.73783907e169, 3.88947911e168, -3.07600693e169]])
    h_e = np.array([[-3.12195599e295, 1.50185864e295, -6.88618242e295]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert secrecy.channel_gsv(h_b, h_e, np.eye(3))[2] == 0.0
        with pytest.raises(DomainError, match="out of range"):
            secrecy.broadcast_region(h_b, h_e, np.eye(3))
        res = secrecy.secrecy_capacity_cov(h_b, h_e, np.eye(3))
    assert res.capacity_bits == pytest.approx(1127.26, abs=0.01)


def test_stacked_kbar_is_refused_by_the_region():
    with pytest.raises(DomainError, match="covariance must be a square matrix"):
        secrecy.broadcast_region(np.eye(2), np.eye(2), np.stack([np.eye(2)] * 2))


class TestSolveMemo:
    """The last solved problem is kept; its key is the bytes of the inputs."""

    def test_in_place_change_of_an_input_is_solved_afresh(self, rng):
        h_b, h_e, kbar = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 2, 3), random_psd(rng, 3)
        first = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        for a in (h_b, h_e, kbar):
            a *= 2.0
            got = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
            assert got.capacity_bits != first.capacity_bits
            secrecy.channel_gsv(h_b, h_e, np.eye(3))
            fresh = secrecy.secrecy_capacity_cov(h_b.copy(), h_e.copy(), kbar.copy())
            assert np.array_equal(got.k_star, fresh.k_star)
            assert np.array_equal(secrecy.channel_gsv(h_b, h_e, kbar), fresh.gsv)
            first = got

    @pytest.mark.parametrize("kbar, error", [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), DomainError),
        (np.diag([1.0, -1.0]), NotPSD),
    ])
    def test_a_raising_input_raises_again(self, kbar, error):
        h_b, h_e = np.diag([2.0, 1.0]), np.eye(2)
        secrecy.secrecy_capacity_cov(h_b, h_e, np.eye(2))
        for call in (secrecy.secrecy_capacity_cov, secrecy.channel_gsv,
                     secrecy.broadcast_region, secrecy.secrecy_capacity_cov):
            with pytest.raises(error):
                call(h_b, h_e, kbar)

    def test_a_kept_problem_holds_no_view_of_an_input(self, rng):
        # ``h_b`` is complex, so its conversion is the caller's array itself; the kept
        # problem's optimal kernel must still be formed from the bytes it was keyed by.
        h_b, h_e, kbar = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 2, 3), random_psd(rng, 3)
        original = h_b.copy()

        def plan_bytes():
            plan = scheme.build_wiretap_plan(original, h_e, kbar, "gsvd")
            return [a.tobytes() for a in (plan.base.va, plan.base.u_tilde, plan.base.t_tilde,
                                          plan.base.diag_b, plan.diag_e, plan.secret_rates_bits)]

        secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        h_b *= 2.0
        got = plan_bytes()
        secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        assert got == plan_bytes()

    def test_a_stacked_call_leaves_the_memo(self, rng):
        h_b, h_e = complex_gaussian(rng, 3, 3), complex_gaussian(rng, 3, 3)
        secrecy.secrecy_capacity_cov(h_b, h_e, np.eye(3))
        last = secrecy._last
        ks = np.stack([random_psd(rng, 3) for _ in range(4)])
        rows = secrecy.channel_gsv(h_b, h_e, ks)
        assert secrecy._last is last and rows.flags.writeable
        assert all(np.array_equal(row, secrecy.channel_gsv(h_b, h_e, k)) for row, k in zip(rows, ks))

    @pytest.mark.parametrize("first", [secrecy.channel_gsv, secrecy.broadcast_region])
    def test_a_gsv_call_then_a_capacity_call_solve_once(self, rng, monkeypatch, first):
        # The capacity call adds its solve to the kept root and kernel.
        h_b, h_e, kbar = complex_gaussian(rng, 4, 3), complex_gaussian(rng, 3, 3), random_psd(rng, 3)
        want = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        secrecy.secrecy_capacity_cov(h_b, h_e, np.eye(3))
        calls = count_calls(monkeypatch, secrecy, ("_root", "_gsvd_kernel"))
        first(h_b, h_e, kbar)
        got = secrecy.secrecy_capacity_cov(h_b, h_e, kbar)
        assert sorted(calls) == ["_gsvd_kernel", "_root"]
        assert (got.capacity_bits, got.lb) == (want.capacity_bits, want.lb)
        assert got.gsv.tobytes() == want.gsv.tobytes()
        assert got.k_star.tobytes() == want.k_star.tobytes()
        assert secrecy.secrecy_capacity_cov(h_b, h_e, kbar) is got and len(calls) == 2
        with pytest.raises(ValueError, match="read-only"):
            got.k_star[0, 0] = 7.0

    def test_a_solve_never_joins_another_problem(self, rng, monkeypatch):
        # As if another thread kept its problem while this call solved its own.
        mine, other, third = [(complex_gaussian(rng, 3, 3), complex_gaussian(rng, 2, 3),
                               random_psd(rng, 3)) for _ in range(3)]
        want = secrecy.secrecy_capacity_cov(*mine)
        other_gsv = secrecy.channel_gsv(*other)
        other_k_star = secrecy.secrecy_capacity_cov(*other).k_star
        secrecy.secrecy_capacity_cov(*third)
        optimal = secrecy._optimal

        def interleaved(*args):
            monkeypatch.setattr(secrecy, "_optimal", optimal)
            secrecy.channel_gsv(*other)
            return optimal(*args)

        monkeypatch.setattr(secrecy, "_optimal", interleaved)
        assert secrecy.secrecy_capacity_cov(*mine).k_star.tobytes() == want.k_star.tobytes()
        assert secrecy.channel_gsv(*other).tobytes() == other_gsv.tobytes()
        assert secrecy.secrecy_capacity_cov(*other).k_star.tobytes() == other_k_star.tobytes()

    def test_threads_read_their_own_problem(self, rng):
        # More threads than cores and a short switch interval, so a reader
        # that paired one problem's key with another's value, or a solve or
        # optimal kernel added to another thread's problem, would show.  Half
        # the rounds start with a GSV call, which keeps a problem with no
        # solve; every third adds the optimal kernel by a ``gsvd`` plan.
        problems = [(complex_gaussian(rng, 3, 3), complex_gaussian(rng, 2, 3), random_psd(rng, 3))
                    for _ in range(3)]
        want = [secrecy.secrecy_capacity_cov(*p).k_star.tobytes() for p in problems]
        gsv = [secrecy.channel_gsv(*p).tobytes() for p in problems]

        def plan_bytes(p):
            plan = scheme.build_wiretap_plan(*p, "gsvd")
            return b"".join(a.tobytes() for a in (plan.base.va, plan.base.u_tilde,
                                                  plan.base.diag_b, plan.diag_e))

        plans = [plan_bytes(p) for p in problems]
        for a in secrecy._last.solved[2]:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 7.0

        def solve(i):
            p, ok = i % 3, True
            for j in range(150):
                if (i + j) % 2:
                    ok &= secrecy.channel_gsv(*problems[p]).tobytes() == gsv[p]
                ok &= secrecy.secrecy_capacity_cov(*problems[p]).k_star.tobytes() == want[p]
                if (i + j) % 3 == 0:
                    ok &= plan_bytes(problems[p]) == plans[p]
            return ok

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                assert all(pool.map(solve, range(6), timeout=120))
        finally:
            sys.setswitchinterval(interval)
