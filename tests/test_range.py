"""Numerical range: the plans answer wherever the capacity does.

The capacity path works on ``[h b; I]`` up to the double limit.  The plans
read their triangular diagonals off the same GSVD kernel, through
``sqrt(1 + mu^2)``, which must not overflow for GSVs past 1e154.
"""

import warnings

import numpy as np
import pytest

from wtd import decomp, scheme, secrecy

from conftest import complex_gaussian

SCALES = [1.0, 1e150, 1e154, 1e160, 1e300]


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.filterwarnings("error::RuntimeWarning:wtd.decomp",
                            "error::RuntimeWarning:wtd.secrecy")
def test_plan_rates_sum_to_the_capacity(scale):
    # 20 problems with 'h_b' at ``scale``, 'h_e' at unit scale and ``kbar = I``.  The SINRs
    # ``b^2 - 1`` of the SIC and DPC plans still overflow past 1e154, so only the factor path
    # is held to no warning, and only the rates and the DPC ``alpha``, which forms no square
    # of ``b``, are checked.
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        h_b = scale * complex_gaussian(rng, int(rng.integers(1, 6)), n)
        h_e = complex_gaussian(rng, int(rng.integers(1, 6)), n)
        kbar = np.eye(n)
        capacity = secrecy.secrecy_capacity_cov(h_b, h_e, kbar).capacity_bits
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", category=RuntimeWarning, module="wtd.scheme")
            warnings.filterwarnings("ignore", category=RuntimeWarning, module="numpy")
            rates = [scheme.build_wiretap_plan(h_b, h_e, kbar, mode).secret_rates_bits
                     for mode in scheme.PRECODER_MODES]
            dpc = scheme.build_dpc_plan(h_b, h_e, kbar)
        for plan_rates in rates + [dpc.rates_bits]:
            assert abs(np.sum(plan_rates) - capacity) <= 1e-9 * capacity, (scale, n)
        assert np.all(np.isfinite(dpc.alpha) & (dpc.alpha >= 0.0) & (dpc.alpha <= 1.0)), scale


def test_gsv_scale_keeps_its_bits_in_range():
    mu = 10.0 ** np.random.default_rng(5).uniform(-10.0, 153.0, 20000)
    assert np.array_equal(decomp._gsv_scale(mu), np.sqrt(1.0 + mu * mu))


def test_gsv_scale_past_the_square_range():
    # From 2^511 up, ``1 + mu^2`` rounds to ``mu^2``, whose root is ``mu``.
    mu = np.array([2.0 ** 511, 1.3e154, 1e300, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(decomp._gsv_scale(mu), mu)

