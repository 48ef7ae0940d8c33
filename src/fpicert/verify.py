"""Experiment orchestration: run, analyze, measure, and check one
problem or builtin example, producing a report with explicit pass/fail
lines.

LPs and QPs share one verification function, ``verify_splitting``
(also bound as ``verify_lp`` and ``verify_qp``).  ``default_gamma`` and
``certify`` are the one place that knows what differs between the two
kinds; ``fpicert analyze`` certifies through the same ``certify``.

Every certified value in a report names the certificate that produced
it; every measured value names its estimator and seed and is labeled as
sampled (a finite sample can only under-estimate a supremum).
"""

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import analysis, engine, operators, problems, rates
from .engine import STOP_RESIDUAL
from .linalg import condition_number_plus, lambda_max_psd

#: Default sweep radii for exposing the region where the error bound is
#: in force.
RADIUS_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)

PER_STEP_SLACK = 1e-8

#: Step budget of a verification run.
MAX_ITERS = 200_000

#: A residual at or below this times ``1 + ||limit||`` is roundoff: a few
#: hundred units of double precision, far below the stopping tolerance.
ROUNDOFF_FLOOR = 1e-13

#: Share of a trace's residuals, counted from its end, that
#: ``terminal_contraction`` fits.
TAIL_FRACTION = 0.25


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{status}  {self.name}: value={self.value:.6g} "
                f"threshold={self.threshold:.6g}{extra}")


@dataclass
class ExperimentReport:
    problem: dict
    algorithm: dict
    certified: dict = field(default_factory=dict)
    measured: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_text(self):
        lines = [f"problem: {self.problem}",
                 f"algorithm: {self.algorithm}"]
        if self.certified:
            lines.append("certified:")
            lines += [f"  {k} = {v}" for k, v in self.certified.items()]
        if self.measured:
            lines.append("measured (sampled):")
            lines += [f"  {k} = {v}" for k, v in self.measured.items()]
        lines.append("checks:")
        lines += ["  " + c.line() for c in self.checks]
        lines.append(f"result: {'PASS' if self.all_passed else 'FAIL'} "
                     f"({sum(c.passed for c in self.checks)}/{len(self.checks)})")
        lines.append(f"runtime_seconds: {self.runtime_seconds:.3f}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        # runtime is excluded so the structured report is a deterministic
        # function of (problem, flags, seed)
        payload = {"problem": self.problem, "algorithm": self.algorithm,
                   "certified": self.certified, "measured": self.measured,
                   "checks": [asdict(c) for c in self.checks],
                   "result": "PASS" if self.all_passed else "FAIL"}
        return json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"


def terminal_contraction(trace):
    """Terminal residual contraction of a run and how it was measured.

    ``tail-fit``: the geometric-mean ratio over the last
    ``ceil(TAIL_FRACTION * num_steps)`` residuals when at least 10 of
    them are positive, 0.0 when one of them is zero (an exact fixed
    point).  Runs with a shorter tail fall back to 0.0 once a residual
    falls to ``ROUNDOFF_FLOOR * (1 + ||limit||)`` (``finite-convergence``)
    or after at most one step (``immediate-convergence``), else to the
    geometric-mean ratio over all residuals, an upper bound on the
    terminal ratio for monotone residuals (``finite-convergence-fallback``).
    """
    r = np.asarray(trace.residuals, dtype=float)
    window = r[max(0, len(r) - int(np.ceil(TAIL_FRACTION * len(r)))):]
    if np.count_nonzero(window > 0.0) >= 10:
        if np.any(window == 0.0):
            return 0.0, "tail-fit"
        ratios = np.log(window[1:]) - np.log(window[:-1])
        return float(np.exp(ratios.mean())), "tail-fit"
    if np.any(r <= ROUNDOFF_FLOOR * (1.0 + np.linalg.norm(trace.limit))):
        return 0.0, "finite-convergence"
    if r.size < 2:
        return 0.0, "immediate-convergence"
    return float((r[-1] / r[0]) ** (1.0 / (r.size - 1))), "finite-convergence-fallback"


def per_step_contraction_checks(trace, K, alpha):
    """Evaluate the per-step distance-form and sequence-form contraction
    implied by the error-bound constant K, on the steps where the error
    bound itself holds (the bound is pointwise: error bound at x_k plus
    averagedness forces the contraction at step k)."""
    cert = rates.rates_from_K(alpha, K)
    d = trace.dist_to_fix
    r = trace.residuals
    steps = len(r)
    qualifying = d[:steps] <= K * r * (1.0 + 1e-9) + 1e-12
    dist_slack = (d[1:] - cert.rho_dist * d[:steps])[qualifying].max(initial=0.0)
    # sequence form needs the error bound to hold from some index onward
    failing = np.flatnonzero(~qualifying)
    k0 = int(failing[-1]) + 1 if failing.size else 0
    norms = np.linalg.norm(trace.iterates - trace.limit, axis=1)
    seq_slack = (norms[k0 + 1:] - cert.rho_seq * norms[k0:steps]).max(initial=0.0)
    return {"rho_dist": cert.rho_dist, "rho_seq": cert.rho_seq,
            "distance_form_slack": float(dist_slack),
            "sequence_form_slack": float(seq_slack),
            "qualifying_steps": int(qualifying.sum()), "sequence_from": k0}


def _radius_sweep(op, fixset, K, seed):
    sweep = []
    for R in RADIUS_SWEEP:
        er = engine.estimate_rates(op, fixset, R=R, samples=150, seed=seed)
        sweep.append({"R": R, "k_tilde": er.k_tilde, "rho_tilde": er.rho_tilde,
                      "within_bound": bool(er.k_tilde <= K * (1.0 + 1e-6))})
    return sweep


def _verify_example(problem, op, R, k, rho, chain, tol, seed):
    """Exactness checks of an analytic example with fixed point 0:
    measured ``k_tilde`` and ``rho_tilde`` against their exact values
    ``k`` and ``rho`` (each ``(label, value)``), and the ``chain`` side
    (``"lower"`` or ``"upper"``, with its label) of the sandwich tight."""
    t0 = time.time()
    fixset = analysis.point_fixed_set(np.zeros(op.dimension))
    er = engine.estimate_rates(op, fixset, R=R, seed=seed)
    sw = rates.sandwich(op.alpha, er.rho_tilde, er.k_tilde)
    side, chain_label = chain
    rows = [(f"measured k_tilde equals {k[0]}", er.k_tilde, k[1]),
            (f"measured rho_tilde equals {rho[0]}", er.rho_tilde, rho[1]),
            (f"{side} chain tight: rho_tilde = {chain_label}", er.rho_tilde,
             getattr(sw, f"rho_{side}"))]
    return ExperimentReport(
        problem=problem,
        algorithm={"operator": op.provenance.algorithm, "alpha": op.alpha},
        measured={"k_tilde": er.k_tilde, "rho_tilde": er.rho_tilde,
                  "estimator": "estimate_rates", "seed": seed,
                  "sample_radius": er.sample_radius},
        checks=[CheckResult(name, abs(value - exact) <= tol, value, exact)
                for name, value, exact in rows],
        runtime_seconds=time.time() - t0)


def verify_example_contraction(lam, seed=0):
    """Exactness checks for the scaled-identity contraction.  Its factor
    is ``|1 - lambda|``, so the claims hold only for lambda in (0, 1]."""
    if not 0.0 < lam <= 1.0:
        raise ValueError("lambda must lie in (0, 1]")
    return _verify_example(
        {"builtin": "example-contraction", "lambda": lam},
        problems.example_contraction_operator(lam), R=1.0,
        k=("1/lambda", 1.0 / lam), rho=("1 - lambda", 1.0 - lam),
        chain=("lower", "1 - 1/k_tilde"), tol=1e-9, seed=seed)


def verify_example_rotation(theta, seed=0):
    """Exactness checks for the half-averaged planar rotation."""
    return _verify_example(
        {"builtin": "example-rotation", "theta": theta},
        problems.example_rotation_operator(theta), R=2.0,
        k=("1/sin(theta/2)", 1.0 / np.sin(theta / 2.0)),
        rho=("cos(theta/2)", float(np.cos(theta / 2.0))),
        chain=("upper", "sqrt(1 - 1/k_tilde^2)"), tol=1e-6, seed=seed)


def default_gamma(instance):
    """The kind's default ``gamma``: for a QP the value with
    ``gamma * lambda_max(Q) = 1/2``, else 1."""
    if instance.kind == "qp":
        return 0.5 / lambda_max_psd(instance.Q)
    return 1.0


def certify(instance, gamma, alpha):
    """Certify the Douglas-Rachford operator of an LP or QP: returns
    ``(pieces, fixset, K, cert, claims)``, the pieces of its residual
    map, its fixed-point set, the error-bound constant, the kind's
    closed-form certificate, and ``claims``, the checks and report fields
    only that kind has (``_lp_claims``/``_qp_claims``)."""
    if instance.kind == "lp":
        cert, claims = rates.lp_certificate(alpha), _lp_claims
        pieces = analysis.enumerate_pieces_lp(instance.X, instance.c, gamma, alpha)
    elif instance.kind == "qp":
        cert = rates.qp_certificate(alpha, gamma, lambda_max_psd(instance.Q),
                                    condition_number_plus(instance.Q))
        claims = _qp_claims
        pieces = analysis.enumerate_pieces_qp(instance.X, instance.Q, instance.c,
                                              gamma, alpha)
    else:
        raise ValueError("certification applies to lp/qp instances")
    fixset = analysis.fixed_point_set(pieces)
    return pieces, fixset, analysis.error_bound_constant(pieces, fixset), cert, claims


def _lp_claims(instance, cert, fixset, K, terminal, sampled):
    """The LP's checks, around the shared ``sampled`` one, and its extra
    problem and certified fields.  ``terminal`` is ``(fit, fit_mode)``."""
    fit, fit_mode = terminal
    unit = 1.0 / (2.0 * cert.alpha)
    piece_dev = max(abs(p.hoffman_bound - unit) for p in fixset.pieces)
    rate = cert.rho_dist_relaxed
    checks = [
        CheckResult("every piece meeting the fixed set has bound 1/(2 alpha)",
                    piece_dev <= 1e-9, piece_dev, 1e-9),
        CheckResult("error-bound constant equals 1/(2 alpha)",
                    abs(K - unit) <= 1e-9, K, unit),
        sampled,
        CheckResult("terminal residual contraction within relaxed rate + 0.05",
                    fit <= rate + 0.05, fit, rate + 0.05, fit_mode),
    ]
    return {}, {"rho_dist": cert.rho_dist, "rho_dist_relaxed": rate}, checks


def _null_inclusion_residual(instance, fixset):
    """Largest violation of Null(M_J) within Null(Q) and Null(A_J) over
    the certified pieces (their orthonormal null bases)."""
    worst = 0.0
    for pc, basis in zip(fixset.pieces, fixset.null_bases):
        worst = max(worst, float(np.abs(instance.Q @ basis).max(initial=0.0)),
                    float(np.abs(pc.source.A[list(pc.active)] @ basis).max(initial=0.0)))
    return worst


def _qp_claims(instance, cert, fixset, K, terminal, sampled):
    """The QP's checks and fields, as ``_lp_claims``.  ``K`` is the
    largest bound over the pieces meeting the fixed set, the per-piece
    value the closed forms must dominate.  The compact forms exist only
    at ``gamma0 = 1/2``; elsewhere the terminal check uses the relaxed rate."""
    fit, fit_mode = terminal
    null_res = _null_inclusion_residual(instance, fixset)
    checks = [
        CheckResult("per-piece bound within closed-form certificate",
                    K <= cert.K * (1.0 + 1e-9), K, cert.K, "certified pieces")]
    certified = {"rho_dist_relaxed": cert.rho_dist_relaxed}
    rate, rate_name = cert.rho_dist_relaxed, "relaxed"
    if "K_compact" in cert.extras:
        compact_K, rate, rate_name = cert.extras["K_compact"], cert.extras["rho_compact"], "compact"
        checks.append(CheckResult("per-piece bound within compact certificate",
                                  K <= compact_K * (1.0 + 1e-9), K, compact_K,
                                  "certified pieces"))
        certified = {"K_compact": compact_K, **certified, "rho_compact": rate}
    checks += [
        CheckResult(f"terminal residual contraction within {rate_name} rate + 0.02",
                    fit <= rate + 0.02, fit, rate + 0.02, fit_mode),
        CheckResult("null-space inclusion residual",
                    null_res <= 1e-8, null_res, 1e-8),
        sampled,
    ]
    problem = {"kappa_plus": cert.extras["kappa_plus"],
               "gamma0": cert.extras["gamma0"]}
    return problem, certified, checks


def verify_splitting(instance, gamma=None, alpha=0.5, seed=0,
                     radius_sweep=False, truth=None):
    """Run, analyze, measure and check the Douglas-Rachford operator on
    an LP or QP, started 30 away from the fixed-point set; ``gamma=None``
    takes the kind's default."""
    t0 = time.time()
    gamma = default_gamma(instance) if gamma is None else gamma
    _, fixset, K, cert, claims = certify(instance, gamma, alpha)
    f, g = problems.split_functions(instance)
    op, extraction = operators.make_dr(f, g, gamma, alpha)
    direction = np.random.default_rng(seed).standard_normal(instance.dim)
    direction /= np.linalg.norm(direction)
    trace = engine.iterate(op, fixset.representative + 30.0 * direction,
                           residual_tol=1e-10, max_iters=MAX_ITERS)
    trace.dist_to_fix = fixset.distance(trace.iterates)
    er = engine.estimate_rates(op, fixset,
                               R=1e-3 * (1.0 + np.linalg.norm(trace.limit)),
                               samples=200, seed=seed)
    fit, fit_mode = terminal_contraction(trace)
    steps = per_step_contraction_checks(trace, K, alpha)
    xhat = extraction(trace.limit)
    kkt = problems.kkt_residual(instance, xhat)
    sampled = CheckResult("sampled dist/residual ratio within certified constant",
                          er.k_tilde <= K * (1.0 + 1e-6), er.k_tilde, K,
                          f"R={er.sample_radius:.3g}, seed={er.seed}")
    problem_fields, certified_fields, checks = claims(
        instance, cert, fixset, K, (fit, fit_mode), sampled)
    checks += [
        CheckResult("per-step distance contraction where error bound holds",
                    steps["distance_form_slack"] <= PER_STEP_SLACK,
                    steps["distance_form_slack"], PER_STEP_SLACK,
                    f"{steps['qualifying_steps']} qualifying steps"),
        CheckResult("per-step sequence contraction toward the limit",
                    steps["sequence_form_slack"] <= PER_STEP_SLACK,
                    steps["sequence_form_slack"], PER_STEP_SLACK),
        CheckResult("extracted point satisfies optimality conditions",
                    kkt <= 1e-6, kkt, 1e-6),
        CheckResult("run converged", trace.stop_reason == STOP_RESIDUAL,
                    trace.num_steps, MAX_ITERS),
    ]
    if truth is not None and truth.known_optimum is not None:
        gap = abs(instance.objective(xhat)
                  - instance.objective(truth.known_optimum))
        checks.append(CheckResult("objective gap against planted optimum",
                                  gap <= 1e-6, gap, 1e-6))
    measured = {"k_tilde": er.k_tilde, "rho_tilde": er.rho_tilde,
                "estimator": "estimate_rates", "seed": seed,
                "sample_radius": er.sample_radius,
                "terminal_contraction": fit, "terminal_fit_mode": fit_mode,
                "steps": trace.num_steps}
    if radius_sweep:
        measured["radius_sweep"] = _radius_sweep(op, fixset, K, seed)
    return ExperimentReport(
        problem={"kind": instance.kind, "name": instance.name, "n": instance.dim,
                 "m": instance.X.num_rows, "seed": instance.seed,
                 **problem_fields},
        algorithm={"operator": "dr", "gamma": gamma, "alpha": alpha},
        certified={"K": K, "K_source": "error_bound_constant(pieces)",
                   "K_closed_form": cert.K, **certified_fields,
                   "certificate": cert.source,
                   "valid_radius_note": rates.VALID_RADIUS_NOTE},
        measured=measured, checks=checks, runtime_seconds=time.time() - t0)


#: The former per-kind names; the kind now comes from the instance.
verify_lp = verify_qp = verify_splitting
