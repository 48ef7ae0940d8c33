"""Conversions between error-bound constants and linear convergence
rates for averaged operators, plus the closed-form certificates for
the Douglas-Rachford / consensus-ADMM operator on linear and quadratic
programs.

All certified rates are local statements: they hold once the iterate is
within some radius of the fixed-point set, and that radius depends on
problem data in a way the closed forms do not capture.  Every report
of a certificate states that caveat, ``VALID_RADIUS_NOTE``.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import Gamma0OutOfRange, KTooSmall, RhoOutOfRange

VALID_RADIUS_NOTE = ("rates hold within an unreported data-dependent radius "
                     "of the fixed-point set; see the sampled radius sweep "
                     "for an estimate")

_FLOOR_SLACK = 1e-12


@dataclass(frozen=True)
class RateCertificate:
    """Distance-form and sequence-form contraction factors implied by an
    error-bound constant K for an alpha-averaged operator.

    ``rho_dist`` contracts the distance to the fixed-point set per step;
    ``rho_seq`` contracts the distance to the limit point.  The
    ``*_relaxed`` values are the simpler (weaker) closed-form bounds.
    """

    alpha: float
    K: float
    rho_dist: float
    rho_dist_relaxed: float
    rho_seq: float
    rho_seq_relaxed: float
    source: str = "rates_from_K"
    extras: dict = field(default_factory=dict)


def rates_from_K(alpha, K):
    """Rate certificate from an error-bound constant.

    Requires ``K >= sqrt((1-alpha)/alpha)``, the algebraic floor below
    which the distance contraction formula turns negative.
    """
    if not 0.0 < alpha < 1.0:
        raise RhoOutOfRange("alpha must lie in (0, 1)")
    floor = np.sqrt((1.0 - alpha) / alpha)
    if K < floor * (1.0 - _FLOOR_SLACK):
        raise KTooSmall(f"K = {K} below the floor sqrt((1-a)/a) = {floor}")
    theta = (1.0 - alpha) / (alpha * K * K)
    rho = float(np.sqrt(max(0.0, 1.0 - theta)))
    rho_relaxed = 1.0 - theta / 2.0
    rho_seq = float(np.sqrt(max(0.0, 1.0 - 0.5 * (1.0 + rho) * (1.0 - rho) ** 2)))
    rho_seq_relaxed = 1.0 - theta * theta / 16.0
    return RateCertificate(alpha=alpha, K=float(K),
                           rho_dist=rho, rho_dist_relaxed=rho_relaxed,
                           rho_seq=rho_seq, rho_seq_relaxed=rho_seq_relaxed)


@dataclass(frozen=True)
class SandwichCheck:
    """The four inequalities relating the tightest measured contraction
    factor and error-bound constant of an alpha-averaged operator, with
    their slacks (nonnegative slack means the inequality holds)."""

    rho_lower: float     # 1 - 1/K
    rho_upper: float     # sqrt(1 - (1-a)/(a K^2))
    k_lower: float       # sqrt((1-a)/(a (1-rho^2)))
    k_upper: float       # 1/(1-rho)
    slacks: dict
    holds: bool


def sandwich(alpha, rho_tilde, k_tilde):
    """Evaluate the two-sided bounds between measured rho and K."""
    if not 0.0 < alpha < 1.0:
        raise RhoOutOfRange("alpha must lie in (0, 1)")
    if not 0.0 <= rho_tilde <= 1.0:
        raise RhoOutOfRange(f"rho_tilde = {rho_tilde} outside [0, 1]")
    ratio = (1.0 - alpha) / alpha
    rho_lower = 1.0 - 1.0 / k_tilde if k_tilde > 0 else -np.inf
    rho_upper = float(np.sqrt(max(0.0, 1.0 - ratio / (k_tilde * k_tilde)))) \
        if np.isfinite(k_tilde) else 1.0
    k_lower = float(np.sqrt(ratio / (1.0 - rho_tilde ** 2))) \
        if rho_tilde < 1.0 else np.inf
    k_upper = 1.0 / (1.0 - rho_tilde) if rho_tilde < 1.0 else np.inf
    slacks = {
        "rho_above_lower": rho_tilde - rho_lower,
        "rho_below_upper": rho_upper - rho_tilde,
        "k_above_lower": k_tilde - k_lower,
        "k_below_upper": k_upper - k_tilde,
    }
    holds = all(s >= -1e-9 for s in slacks.values())
    return SandwichCheck(rho_lower=rho_lower, rho_upper=rho_upper,
                         k_lower=k_lower, k_upper=k_upper,
                         slacks=slacks, holds=holds)


def lp_certificate(alpha):
    """Closed-form certificate for the Douglas-Rachford operator on a
    linear program with an optimum: K = 1/(2 alpha) independently of the
    data, and relaxed distance rate ``1 - 2 alpha (1 - alpha)``."""
    if not 0.0 < alpha < 1.0:
        raise RhoOutOfRange("alpha must lie in (0, 1)")
    return replace(rates_from_K(alpha, 1.0 / (2.0 * alpha)), source="lp_certificate")


def qp_certificate(alpha, gamma, lambda_max, kappa_plus):
    """Closed-form certificate for the Douglas-Rachford operator on a
    quadratic program, parameterized by ``gamma0 = gamma * lambda_max``
    (must lie in (0, 1)) and the restricted condition number of Q:

        K   <= (1/(2a)) * (1+g0)/((1-g0) g0) * (kappa - g0)
        rho <= 1 - 2a(1-a)(1-g0)^2 g0^2 / ((1+g0)^2 (kappa - g0)^2)

    At ``gamma0 = 1/2`` the compact (weaker) forms ``K <= 3 kappa / a``
    and ``rho <= 1 - a(1-a)/(18 kappa^2)`` are also reported.
    """
    if not 0.0 < alpha < 1.0:
        raise RhoOutOfRange("alpha must lie in (0, 1)")
    gamma0 = gamma * lambda_max
    if not 0.0 < gamma0 < 1.0:
        raise Gamma0OutOfRange(f"gamma0 = {gamma0} outside (0, 1)")
    if kappa_plus < 1.0:
        raise ValueError("kappa_plus must be >= 1")
    K = (1.0 / (2.0 * alpha)) * (1.0 + gamma0) / ((1.0 - gamma0) * gamma0) \
        * (kappa_plus - gamma0)
    cert = rates_from_K(alpha, K)
    extras = {"gamma0": gamma0, "kappa_plus": kappa_plus}
    if abs(gamma0 - 0.5) <= 1e-12:
        extras["K_compact"] = 3.0 * kappa_plus / alpha
        extras["rho_compact"] = rates_from_K(alpha, extras["K_compact"]).rho_dist_relaxed
    return replace(cert, source="qp_certificate", extras=extras)
