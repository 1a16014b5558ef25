"""Numerical range: the plans answer wherever the capacity does.

The capacity path works on ``[h b; I]`` up to the double limit.  The plans
read their triangular diagonals off the same GSVD kernel, through
``sqrt(1 + mu^2)``, which must not overflow for GSVs past 1e154.  Every
problem runs that QL of the kernel when it is built, and the broadcast plan
reads it; a solve that overflows a double is refused by name, as is a GSVD
precoder formed outside a problem.
"""

import json
import warnings

import numpy as np
import pytest

from wtd import cli, decomp, scheme, secrecy
from wtd.errors import DomainError

from conftest import complex_gaussian

SCALES = [1.0, 1e150, 1e154, 1e160, 1e300]

#: A problem file of wide 2x3 channels near 1e161-1e162 with ``kbar = I``.  The kernel's SVD
#: loses row 1 of ``W'R2`` (1.9e146, where it is at most about 1), so ``x = (W'R2)' diag(s)``
#: reaches 1.4e308 and its QL overflows; a 700-digit oracle gives the GSVs [8.38e161, 1.119,
#: 7.53e-163], against the kernel's [8.38e161, 2.94e145, 7.09e-162].
OVERFLOWING_SOLVE = {
    "h_b": [[[1.257302210933933e+161, 1.3040000451301372e+162],
             [-1.321048632913019e+161, 9.47080963129242e+161],
             [6.40422650443282e+161, -7.037352358069925e+161]],
            [[1.049001171530397e+161, -1.2654214710460523e+162],
             [-5.356693731611109e+161, -6.232744625373521e+161],
             [3.615950549094847e+161, 4.1325979347243596e+160]]],
    "h_e": [[[-7.322673547034516e+161, 1.3664634705496857e+162],
             [-5.442589828573099e+161, -6.651946734866135e+161],
             [-3.163001563691545e+161, 3.515100700930197e+161]],
            [[4.116305363741328e+161, 9.034701816518085e+161],
             [1.0425133694426774e+162, 9.401229776087456e+160],
             [-1.2853466294403427e+161, -7.434992493538084e+161]]],
    "samples": 2000}
OUT_OF_RANGE = "problem is out of range: its capacity solve overflows a double"
GSVD_OUT_OF_RANGE = "problem is out of range: its GSVD precoder overflows a double"


def _overflowing_pair():
    return tuple(np.array([[complex(*v) for v in row] for row in OVERFLOWING_SOLVE[name]])
                 for name in ("h_b", "h_e"))


def _problems(scale):
    """20 problems with 'h_b' at ``scale``, 'h_e' at unit scale and ``kbar = I``."""
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        h_b = scale * complex_gaussian(rng, int(rng.integers(1, 6)), n)
        h_e = complex_gaussian(rng, int(rng.integers(1, 6)), n)
        yield n, h_b, h_e, np.eye(n)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.filterwarnings("error::RuntimeWarning:wtd.decomp",
                            "error::RuntimeWarning:wtd.secrecy")
def test_plan_rates_sum_to_the_capacity(scale):
    # The SINRs ``b^2 - 1`` of the SIC and DPC plans still overflow past 1e154, so only the
    # factor path is held to no warning, and only the rates and the DPC ``alpha``, which forms
    # no square of ``b``, are checked.
    for n, h_b, h_e, kbar in _problems(scale):
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


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.filterwarnings("error::RuntimeWarning:wtd.decomp",
                            "error::RuntimeWarning:wtd.secrecy")
def test_broadcast_totals_hit_the_region_corners(scale):
    # The broadcast plan's rates come off the GSVs alone, so all of it is held to no warning.
    for n, h_b, h_c, kbar in _problems(scale):
        region = secrecy.broadcast_region(h_b, h_c, kbar)
        plan = scheme.build_broadcast_plan(h_b, h_c, kbar)
        for total, corner in [(np.sum(plan.bob_rates_bits), region.rb_max),
                              (np.sum(plan.charlie_rates_bits), region.rc_max)]:
            assert abs(total - corner) <= 1e-9 * corner, (scale, n)


def test_gsv_scale_keeps_its_bits_in_range():
    mu = 10.0 ** np.random.default_rng(5).uniform(-10.0, 153.0, 20000)
    assert np.array_equal(decomp._gsv_scale(mu), np.sqrt(1.0 + mu * mu))


def test_gsv_scale_past_the_square_range():
    # From 2^511 up, ``1 + mu^2`` rounds to ``mu^2``, whose root is ``mu``.
    mu = np.array([2.0 ** 511, 1.3e154, 1e300, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(decomp._gsv_scale(mu), mu)



@pytest.mark.parametrize("call", [secrecy.secrecy_capacity_cov, secrecy.channel_gsv,
                                  secrecy.broadcast_region])
def test_an_overflowing_solve_is_refused_by_name(call):
    # The capacity used to let a RuntimeWarning escape, and the GSV call and the region to
    # answer with the lost GSVs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{OUT_OF_RANGE}$"):
            call(*_overflowing_pair(), np.eye(3))


@pytest.mark.parametrize("command", [["capacity"], ["region"]] + [
    ["simulate", "--scheme", s] for s in ("wiretap", "dpc", "broadcast")], ids=" ".join)
def test_an_overflowing_solve_is_refused_by_the_cli(tmp_path, capsys, command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(OVERFLOWING_SOLVE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(command + ["--input", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {OUT_OF_RANGE}\n")


def test_a_solve_that_raises_keeps_nothing():
    h_b, h_e = _overflowing_pair()
    secrecy.secrecy_capacity_cov(h_b / 1e161, h_e / 1e161, np.eye(3))
    kept = secrecy._last
    for _ in range(2):
        with pytest.raises(DomainError, match=f"^{OUT_OF_RANGE}$"):
            secrecy.secrecy_capacity_cov(h_b, h_e, np.eye(3))
        assert secrecy._last is kept


def test_an_overflowing_gsvd_precoder_is_refused_by_name():
    # Both used to warn "invalid value encountered in divide": the precoder came back NaN, and the
    # triangularization refused its own NaN right factor as "entries must be finite".
    a1 = 1.5e308 * np.array([[1.0, 0.5], [0.3, 1.0], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{GSVD_OUT_OF_RANGE}$"):
            scheme.select_precoder(*_overflowing_pair(), np.eye(3), "gsvd")
        with pytest.raises(DomainError, match=f"^{GSVD_OUT_OF_RANGE}$"):
            decomp.gsvd_triangular(a1, np.eye(3, 2))


def test_an_overflowing_gsvd_precoder_is_refused_by_the_cli(tmp_path, capsys):
    # ``simulate --scheme sic`` forms its precoder with ``b = I``; it used to exit 1 with the
    # unnamed "precoder entries must be finite".
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(OVERFLOWING_SOLVE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["simulate", "--scheme", "sic", "--input", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {GSVD_OUT_OF_RANGE}\n")
