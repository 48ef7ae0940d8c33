import numpy as np
import pytest

from fpicert.errors import Gamma0OutOfRange, KTooSmall, RhoOutOfRange
from fpicert.rates import lp_certificate, qp_certificate, rates_from_K, sandwich
from oracles import K_from_rho


def test_rates_from_K_at_the_floor():
    cert = rates_from_K(0.5, 1.0)
    assert cert.rho_dist == pytest.approx(0.0, abs=1e-12)
    assert cert.rho_dist_relaxed == pytest.approx(0.5)


def test_rates_from_K_contraction_example():
    # alpha = lam/2 and K = 1/lam give rho = 1 - lam
    for lam in (0.1, 0.3, 0.5, 0.9):
        cert = rates_from_K(lam / 2, 1.0 / lam)
        assert cert.rho_dist == pytest.approx(1.0 - lam, abs=1e-12)


def test_rates_from_K_rotation_example():
    for theta in (np.pi / 6, np.pi / 2, 2 * np.pi / 3):
        cert = rates_from_K(0.5, 1.0 / np.sin(theta / 2))
        assert cert.rho_dist == pytest.approx(np.cos(theta / 2), abs=1e-12)


def test_rates_from_K_rejects_small_K():
    with pytest.raises(KTooSmall):
        rates_from_K(0.5, 0.9)
    with pytest.raises(RhoOutOfRange):
        rates_from_K(1.0, 2.0)


def test_K_from_rho():
    assert K_from_rho(0.0) == pytest.approx(1.0)
    assert K_from_rho(0.5) == pytest.approx(2.0)
    with pytest.raises(RhoOutOfRange):
        K_from_rho(1.0)


def test_K_from_rho_contraction_round_trip():
    for lam in (0.1, 0.4, 0.8):
        assert K_from_rho(1.0 - lam) == pytest.approx(1.0 / lam)


def test_sandwich_tight_lower_chain():
    lam = 0.3
    sw = sandwich(lam / 2, 1.0 - lam, 1.0 / lam)
    assert sw.holds
    assert sw.slacks["rho_above_lower"] == pytest.approx(0.0, abs=1e-12)
    assert sw.slacks["k_below_upper"] == pytest.approx(0.0, abs=1e-12)


def test_sandwich_tight_upper_chain():
    theta = np.pi / 3
    sw = sandwich(0.5, np.cos(theta / 2), 1.0 / np.sin(theta / 2))
    assert sw.holds
    assert sw.slacks["rho_below_upper"] == pytest.approx(0.0, abs=1e-12)
    assert sw.slacks["k_above_lower"] == pytest.approx(0.0, abs=1e-12)


def test_sandwich_at_zero_rate():
    # the pair (rho = 0, K = floor) is jointly realizable only when the
    # floor sqrt((1-a)/a) does not exceed 1/(1 - rho) = 1, i.e. a >= 1/2
    for alpha in (0.5, 0.7):
        k_floor = np.sqrt((1 - alpha) / alpha)
        sw = sandwich(alpha, 0.0, k_floor)
        assert sw.holds
        assert sw.slacks["k_above_lower"] == pytest.approx(0.0, abs=1e-12)


def test_lp_certificate_half_averaging():
    cert = lp_certificate(0.5)
    assert cert.K == pytest.approx(1.0)
    assert cert.rho_dist_relaxed == pytest.approx(0.5)
    assert cert.rho_dist == pytest.approx(0.0, abs=1e-12)


def test_lp_certificate_quarter_averaging():
    cert = lp_certificate(0.25)
    assert cert.K == pytest.approx(2.0)
    assert cert.rho_dist_relaxed == pytest.approx(0.625)


def test_lp_certificate_floor_scan():
    for alpha in np.linspace(0.02, 0.98, 49):
        cert = lp_certificate(alpha)
        assert np.sqrt((1.0 - alpha) / alpha) <= cert.K + 1e-12
        assert 0.0 <= cert.rho_dist < 1.0


def test_qp_certificate_unit_condition_number():
    cert = qp_certificate(0.5, 0.5, 1.0, 1.0)  # gamma0 = 1/2
    assert cert.extras["K_compact"] == pytest.approx(6.0)
    assert cert.extras["rho_compact"] == pytest.approx(1.0 - 1.0 / 72.0)
    assert cert.K == pytest.approx(3.0)  # exact: 6*(kappa - 1/2)


def test_qp_certificate_compact_forms_dominate_exact():
    for alpha in (0.3, 0.5, 0.7):
        for kappa in (1.0, 2.5, 10.0):
            cert = qp_certificate(alpha, 0.5, 1.0, kappa)
            assert cert.K == pytest.approx(3.0 / alpha * (kappa - 0.5))
            assert cert.extras["K_compact"] == pytest.approx(3.0 * kappa / alpha)
            assert cert.K <= cert.extras["K_compact"] + 1e-12
            exact_rho = 1.0 - 2 * alpha * (1 - alpha) * 0.25 * 0.25 \
                / (1.5 ** 2 * (kappa - 0.5) ** 2)
            assert cert.rho_dist_relaxed == pytest.approx(exact_rho)
            assert cert.rho_dist_relaxed <= cert.extras["rho_compact"] + 1e-12


def test_qp_certificate_gamma0_range():
    with pytest.raises(Gamma0OutOfRange):
        qp_certificate(0.5, 2.0, 1.0, 2.0)
    with pytest.raises(Gamma0OutOfRange):
        qp_certificate(0.5, 0.0, 1.0, 2.0)


def test_relaxed_bounds_dominate_tight_ones():
    for alpha in np.linspace(0.05, 0.95, 19):
        floor = np.sqrt((1 - alpha) / alpha)
        for K in floor * np.array([1.0, 1.2, 2.0, 10.0, 100.0]):
            cert = rates_from_K(alpha, K)
            assert cert.rho_dist_relaxed >= cert.rho_dist - 1e-12
            assert cert.rho_seq_relaxed >= cert.rho_seq - 1e-12
            assert cert.rho_seq >= cert.rho_dist - 1e-12  # algebraic fact


def test_round_trip_consistency_with_sandwich():
    for alpha in (0.2, 0.5, 0.8):
        for rho in (0.0, 0.3, 0.7, 0.95):
            K = K_from_rho(rho)
            if K < np.sqrt((1 - alpha) / alpha):
                continue
            cert = rates_from_K(alpha, K)
            # the implied rate never undershoots the sandwich lower bound
            assert cert.rho_dist >= 1.0 - 1.0 / K - 1e-9 or cert.rho_dist >= 0.0
            sw = sandwich(alpha, cert.rho_dist, K)
            assert sw.slacks["rho_below_upper"] >= -1e-12
