"""Reference computations that only the tests use, kept apart from the
package code they check."""

from itertools import combinations

import mpmath
import numpy as np

from fpicert import problems
from fpicert.engine import STOP_MAX_ITERS, IterationTrace
from fpicert.errors import Infeasible, NoCertificate, RhoOutOfRange
from fpicert.linalg import DEFAULT_RANK_TOL, pseudo_inverse
from fpicert.polyhedra import KKT_TOL, Polyhedron
from fpicert.problems import example_contraction_operator, example_rotation_operator
from fpicert.prox import box_indicator, l1, linear, prox, prox_map, quadratic

#: Certified candidates further apart than this indicate a tolerance failure.
TIE_TOL = 1e-6

#: Working precision, in decimal digits, of ``hoffman_bound_mp``.
MP_DIGITS = 40


def run_admm_direct(f, g, rho, y0=None, w0=None, iters=100):
    """Direct alternating-direction iteration for ``min f(x) + g(y)``
    subject to ``x = y``: ``(trace, xs, ys)``, the scaled-dual trace and
    the x- and y-iterates as rows.

    Updates (penalty 1/rho, so both block updates are prox maps at scale
    rho; the x-block is a linear solve for quadratic f):

        y_{k+1} = prox(g, rho, x_k + u_k)
        x_{k+1} = prox(f, rho, y_{k+1} - u_k)
        u_{k+1} = u_k + x_{k+1} - y_{k+1}

    The reported dual variable is ``w_k = (x_k - u_k) / rho``, which
    follows exactly the operator from ``operators.make_admm_xy_split``.
    When ``y0`` is omitted the start is made consistent
    (``x_0 = prox(f, rho, rho w_0)``) so the match holds from step 0;
    an arbitrary ``y0`` becomes consistent after one iteration.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    n = f.dimension
    w0 = np.zeros(n) if w0 is None else np.asarray(w0, dtype=float)
    prox_f = prox_map(f, rho)
    prox_g = prox_map(g, rho)
    x = prox_f(rho * w0) if y0 is None else np.asarray(y0, dtype=float).copy()
    u = x - rho * w0
    xs, ys, ws = [x.copy()], [x.copy()], [w0.copy()]
    residuals = []
    for _ in range(iters):
        y = prox_g(x + u)
        x = prox_f(y - u)
        u = u + x - y
        w = (x - u) / rho
        residuals.append(float(np.linalg.norm(w - ws[-1])))
        xs.append(x.copy())
        ys.append(y.copy())
        ws.append(w.copy())
    trace = IterationTrace(
        iterates=np.asarray(ws),
        residuals=np.asarray(residuals),
        limit=ws[-1].copy(),
        stop_reason=STOP_MAX_ITERS,
    )
    return trace, np.asarray(xs), np.asarray(ys)


def _candidate(poly, J, u):
    """Affine projection of u onto {A_J x = b_J} plus its multipliers."""
    AJ = poly.A[list(J)]
    bJ = poly.b[list(J)]
    Ad = pseudo_inverse(AJ)
    x = u - Ad @ (AJ @ u - bJ)
    lam = Ad.T @ (u - x)
    return x, lam


def project_brute_force(poly, u):
    """The projection of ``u`` onto a nonempty polyhedron by enumeration of
    its candidate active sets J with ``rank(A_J^T) = |J|``: the candidate
    whose KKT certificate (primal feasibility and nonnegative multipliers)
    checks out.  Exponential in the row count; the oracle
    ``polyhedra.project_polyhedron`` is tested against.  Raises
    ``Infeasible`` or ``NoCertificate`` as ``project_polyhedron`` does."""
    u = np.asarray(u, dtype=float)
    if u.shape != (poly.dim,):
        raise ValueError(f"point has shape {u.shape}, expected ({poly.dim},)")
    m, n = poly.num_rows, poly.dim
    scale = 1.0 + float(np.linalg.norm(u)) + float(np.abs(poly.b).max(initial=0.0))
    certified = []
    feasible_seen = False
    for k in range(0, min(m, n) + 1):
        for J in combinations(range(m), k):
            AJ = poly.A[list(J)]
            if k and np.linalg.matrix_rank(AJ.T, tol=1e-10 * max(1.0, np.abs(AJ).max())) < k:
                continue
            x, lam = _candidate(poly, J, u)
            if poly.violation(x) > KKT_TOL * scale:
                continue
            feasible_seen = True
            if k and lam.min(initial=0.0) < -KKT_TOL * scale:
                continue
            certified.append(x)
    if not certified:
        if feasible_seen:
            raise NoCertificate("feasible candidates exist but none passed the "
                                "multiplier check")
        raise Infeasible("no candidate satisfies every inequality; "
                         "the polyhedron is empty")
    best = certified[0]
    for cand in certified[1:]:
        if np.linalg.norm(cand - best) > TIE_TOL * scale:
            raise NoCertificate("two certified candidates disagree; "
                                "projection should be unique")
    return best


def reflect(f, gamma, x):
    """Reflector ``2 prox(f, gamma, x) - x``; nonexpansive for every kind."""
    return 2.0 * prox(f, gamma, x) - x


def moreau_residual(f, f_conj, gamma, x):
    """Norm of the Moreau-decomposition defect
    ``prox(f, g, x) + g * prox(f*, 1/g, x/g) - x``.

    ``f_conj`` is the caller-supplied Fenchel conjugate of ``f`` (conjugate
    pairs are not derived symbolically); the residual is ~0 exactly when
    the pairing is correct.
    """
    x = np.asarray(x, dtype=float)
    u = prox(f, gamma, x)
    v = prox(f_conj, 1.0 / gamma, x / gamma)
    return float(np.linalg.norm(u + gamma * v - x))


def conjugate_pair_examples(dim, rng):
    """Three (f, f*) pairings: weighted l1 <-> box, positive-definite
    quadratic <-> quadratic, linear <-> singleton box."""
    w = float(rng.uniform(0.5, 2.0))
    pairs = [(l1(w, dim), box_indicator(-w * np.ones(dim), w * np.ones(dim)))]
    G = rng.normal(size=(dim, dim))
    Q = G @ G.T + 0.5 * np.eye(dim)
    c = rng.normal(size=dim)
    Qinv = np.linalg.inv(Q)
    pairs.append((quadratic(Q, c), quadratic(Qinv, -Qinv @ c)))
    c2 = rng.normal(size=dim)
    pairs.append((linear(c2), box_indicator(c2, c2)))
    return pairs


def example_operators():
    """The analytic test operators over their parameter grids."""
    ops = [example_contraction_operator(lam) for lam in (0.1, 0.3, 0.5, 0.9)]
    ops += [example_rotation_operator(theta)
            for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3)]
    return ops


def K_from_rho(rho):
    """Error-bound constant implied by a distance contraction factor:
    ``K = 1 / (1 - rho)``."""
    if not 0.0 <= rho < 1.0:
        raise RhoOutOfRange(f"rho = {rho} outside [0, 1)")
    return 1.0 / (1.0 - rho)


def hoffman_bound_mp(AJ, Q, gamma, alpha):
    """``1 / sigma_min_plus(M_J)`` (0.0 when ``M_J = 0``) of the DR piece
    on the face with rows ``AJ``, rebuilt from the float data at
    ``MP_DIGITS`` digits:

        M_J = 2a (I - W + (2W - I) D_J),    W = inv(gamma Q + I),
        D_J = A_J^T inv(A_J A_J^T) A_J,

    with ``W = I`` when ``Q`` is None (an LP).  The Gram formula, which
    squares the condition number of A_J, is harmless at this precision,
    and it is not the QR the package uses.  The singular values come from
    ``mpmath.svd_r``, with the package's cutoff ``DEFAULT_RANK_TOL *
    sigma_max``."""
    with mpmath.workdps(MP_DIGITS):
        n = AJ.shape[1]
        eye = mpmath.eye(n)
        W = eye if Q is None else mpmath.inverse(gamma * mpmath.matrix(Q.tolist()) + eye)
        D = mpmath.zeros(n)
        if len(AJ):
            A = mpmath.matrix(AJ.tolist())
            D = A.T * mpmath.inverse(A * A.T) * A
        M = 2 * alpha * (eye - W + (2 * W - eye) * D)
        svals = list(mpmath.svd_r(M, compute_uv=False))
        kept = [s for s in svals if s > DEFAULT_RANK_TOL * max(svals)]
        return float(1 / min(kept)) if kept else 0.0


def near_parallel_variant(kind, seed):
    """``generate_lp(4, 7, seed)`` or ``generate_qp(4, 7, 2, seed)`` with
    one more row: row 0 tilted by ``1e-7 delta``, ``delta`` the first
    draw of ``default_rng(seed)``, and passing ``1e-9`` above the planted
    optimum."""
    if kind == "lp":
        inst, truth = problems.generate_lp(4, 7, seed)
    else:
        inst, truth = problems.generate_qp(4, 7, 2, seed)
    a = inst.X.A[0] + 1e-7 * np.random.default_rng(seed).standard_normal(4)
    X = Polyhedron(np.vstack([inst.X.A, a]),
                   np.append(inst.X.b, a @ truth.known_optimum + 1e-9))
    return problems.ProblemInstance(kind=kind, c=inst.c, Q=inst.Q, X=X,
                                    name=f"{inst.name}-near-parallel", seed=seed)
