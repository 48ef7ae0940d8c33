"""Fixed-point operators for the supported first-order algorithms.

Each factory returns a :class:`FixedPointOperator` carrying the smallest
averaging parameter alpha for which the map is known to be alpha-averaged
(alpha = 1 marks a merely nonexpansive map, which the rate machinery
refuses).  Operators keep a provenance record: the algorithm and the
parameters it read, which ``fpicert solve`` writes to its metadata.

Each map has one constructor, and ``engine.iterate`` steps them all.
Projected gradient is proximal gradient with the constraint indicator
as g.  A splitting factory also returns its extraction, the map from a
fixed point to a minimizer: the step's own prepared prox of f for DR
and PR, ``w -> prox_f(rho w)`` for ADMM.

``dr_piece`` is the one formula for the Douglas-Rachford map on a face
of a polyhedral f with an affine prox of g: the analysis layer's pieces
and the block step ``AffineDRStep`` both take it from there, so a
certified constant is a number about the map that is iterated.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import IterationTrace, STOP_MAX_ITERS
from .errors import SingularSubproblem, StepTooLarge
from .linalg import lambda_max_psd
# prox and project_polyhedron are not called here; they stay importable
# because bench/tracing.py patches them at this module
from .prox import QUADRATIC, polyhedral_indicator, prox, prox_map
from .polyhedra import project_polyhedron


@dataclass(frozen=True)
class Provenance:
    """Which algorithm, with which parameters, produced an operator."""

    algorithm: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FixedPointOperator:
    """An evaluable self-map of R^n with its averaging parameter.

    ``alpha`` in (0, 1) means the operator is alpha-averaged; alpha = 1
    flags a nonexpansive-only map.
    """

    dimension: int
    alpha: float
    evaluate: callable
    provenance: Provenance

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))


def compose_alpha(a1, a2):
    """Averaging parameter of the composition of an a1- and an
    a2-averaged operator; an isometric factor enters as a = 0."""
    if a1 == 0.0:
        return a2
    if a2 == 0.0:
        return a1
    return (a1 + a2 - 2.0 * a1 * a2) / (1.0 - a1 * a2)


def _gradient_data(f):
    if f.kind != QUADRATIC:
        raise ValueError("gradient steps are only available for the "
                         "quadratic kind")
    return f.data["Q"], f.data["c"]


def _gd_alpha(lam, lmax):
    """Smallest alpha making the step x - lam*grad alpha-averaged: the
    gradient of an L-smooth convex function is (1/L)-cocoercive, so the
    step is averaged exactly when lam*L/2 < 1."""
    if lmax <= 0.0:
        return 0.0  # translation: averaged for every alpha in (0, 1)
    if lam >= 2.0 / lmax:
        raise StepTooLarge(f"lambda = {lam} >= 2/lambda_max = {2.0 / lmax}")
    return lam * lmax / 2.0


def make_gd(f, lam):
    """Gradient-descent map ``x - lam * (Q x + c)`` for quadratic f."""
    Q, c = _gradient_data(f)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    alpha = _gd_alpha(lam, lambda_max_psd(Q))
    prov = Provenance("gd", {"lambda": lam})
    return FixedPointOperator(
        dimension=f.dimension,
        alpha=alpha if alpha > 0.0 else 1.0,  # Q = 0: a translation, flagged
        evaluate=lambda x: x - lam * (Q @ x + c),
        provenance=prov,
    )


def make_proximal_point(f, gamma):
    """Proximal-point map ``prox(f, gamma, .)``; 1/2-averaged."""
    prov = Provenance("prox", {"gamma": gamma})
    return FixedPointOperator(
        dimension=f.dimension,
        alpha=0.5,
        evaluate=prox_map(f, gamma),
        provenance=prov,
    )


def make_gradient_projection(f, S, lam):
    """Projected-gradient map ``proj_S(x - lam * grad f(x))``: proximal
    gradient with the indicator of ``S``, whose prox ignores gamma."""
    return make_proximal_gradient(f, polyhedral_indicator(S), lam, 1.0)


def make_proximal_gradient(f, g, lam, gamma):
    """Proximal-gradient map ``prox(g, gamma, x - lam * grad f(x))``."""
    Q, c = _gradient_data(f)
    if g.dimension != f.dimension:
        raise ValueError("f and g live in different spaces")
    alpha = compose_alpha(_gd_alpha(lam, lambda_max_psd(Q)), 0.5)
    prov = Provenance("pg", {"lambda": lam, "gamma": gamma})
    prox_g = prox_map(g, gamma)
    return FixedPointOperator(
        dimension=f.dimension,
        alpha=alpha,
        evaluate=lambda x: prox_g(x - lam * (Q @ x + c)),
        provenance=prov,
    )


#: Rows of the first block ``AffineDRStep.orbit`` computes on a newly held
#: face, and the most rows of one block; the length doubles after every
#: block whose rows are all certified, so a face that is left early costs
#: few uncertified rows.
FIRST_BLOCK = 4
MAX_BLOCK = 1024


class DRStep:
    """The Douglas-Rachford step ``w -> w + 2a (prox_g(2 p - w) - p)``,
    ``p = prox_f(w)``, from the prepared prox maps of f and g."""

    def __init__(self, prox_f, prox_g, alpha):
        self.two_alpha = 2.0 * alpha
        self.prox_f = prox_f
        self.prox_g = prox_g

    def __call__(self, w):
        p = self.prox_f(w)
        q = self.prox_g(2.0 * p - w)
        return w + self.two_alpha * (q - p)


def dr_piece(W, h, alpha, face):
    """``(M, v)`` with ``w - F(w) = M w - v`` for the Douglas-Rachford
    step ``F`` of a polyhedral f and ``prox_g(x) = W x - h``, on points
    whose projection lands on ``face`` (a ``polyhedra.Face``, projection
    ``(I - D) w + offset``):

        M = 2a (I - W + (2W - I) D),    v = 2a ((2W - I) offset - h),

    which is ``M = 2a D`` at ``W = I`` (a linear g).
    """
    eye = np.eye(len(W))
    V = 2.0 * W - eye
    return (2.0 * alpha * (eye - W + V @ face.D),
            2.0 * alpha * (V @ face.offset - h))


class AffineDRStep(DRStep):
    """The DR step when f is a polyhedral indicator and ``prox_g(x) = W x - h``
    (g quadratic; a linear g has ``W = I``).  While f's projector holds a
    face J, the step is the affine map ``w -> (I - M) w + v`` of
    ``dr_piece``, built when the face changes.  ``orbit`` takes a block of
    steps with one product by that map each and certifies the block with
    one ``Projector.accept``; it keeps ``O(n^2)`` numbers cached.
    """

    def __init__(self, prox_f, prox_g, alpha):
        super().__init__(prox_f, prox_g, alpha)
        self._alpha = alpha
        self._face = None  # active set of ``_Tt``
        self._length = FIRST_BLOCK

    def _hold(self, project):
        """Cache ``[[I - M, v], [0, 1]]`` of the projector's face."""
        M, v = dr_piece(*self.prox_g.affine, self._alpha, project.face)
        n = len(v)
        Tt = np.zeros((n + 1, n + 1))
        Tt[:n, :n] = np.eye(n) - M
        Tt[:n, n] = v
        Tt[n, n] = 1.0
        self._Tt = Tt
        self._face = project.active
        self._length = FIRST_BLOCK

    def orbit(self, w, k, tol):
        """Up to ``k`` next iterates from ``w`` as rows, with their step
        lengths, ending after the first step of length ``<= tol``: the
        iterates of as many calls, up to roundoff.

        The rows are ``x <- (I - M) x + v`` on the projector's held
        face.  The projector tests, under its one warm-face rule, the
        point each row's step projects; rows are kept up to the first
        point it does not certify, and the step from that point is one
        call, whose cold projection moves the projector to the new face.
        """
        project = self.prox_f.projector
        if project.active != self._face:
            self._hold(project)
        L = min(self._length, k)
        n = len(w)
        X = np.empty((L + 1, n + 1))  # rows (x, 1), so one product is a step
        X[0, :n] = w
        X[0, n] = 1.0
        for x, y in zip(X[:-1], X[1:]):
            np.dot(self._Tt, x, out=y)
        X = X[:, :n]
        steps = X[1:] - X[:-1]
        r = np.sqrt(np.add.reduce(steps * steps, axis=1))
        stop = np.flatnonzero(r <= tol)
        if stop.size:
            L = int(stop[0]) + 1
        taken = project.accept(X[:L])
        if taken < L:
            X[taken + 1] = self(X[taken])
            step = X[taken + 1] - X[taken]
            r[taken] = math.sqrt(step @ step)
            L = taken + 1
        elif taken == self._length:
            self._length = min(2 * taken, MAX_BLOCK)
        return X[1:L + 1], r[:L]


def _dr_step(f, g, gamma, alpha):
    """The DR step of f and g, with ``orbit`` when its pieces are affine."""
    prox_f, prox_g = prox_map(f, gamma), prox_map(g, gamma)
    if prox_f.projector is not None and prox_g.affine is not None:
        return AffineDRStep(prox_f, prox_g, alpha)
    return DRStep(prox_f, prox_g, alpha)


def make_dr(f, g, gamma, alpha):
    """Douglas-Rachford map ``(1-a) w + a ref(g) o ref(f) (w)`` together
    with the extraction ``w -> prox(f, gamma, w)``, the step's own
    ``ProxMap`` of f, that recovers a minimizer of f + g from any fixed
    point."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if f.dimension != g.dimension:
        raise ValueError("f and g live in different spaces")
    prov = Provenance("dr", {"gamma": gamma, "alpha": alpha})
    op = FixedPointOperator(
        dimension=f.dimension,
        alpha=alpha,
        evaluate=_dr_step(f, g, gamma, alpha),
        provenance=prov,
    )
    return op, op.evaluate.prox_f


def make_pr(f, g, gamma):
    """Peaceman-Rachford map ``ref(g) o ref(f)``: the alpha = 1 limit of
    Douglas-Rachford.  Nonexpansive but not averaged, so no rate
    certificate applies; its fixed points coincide with DR's."""
    prov = Provenance("pr", {"gamma": gamma})
    return FixedPointOperator(
        dimension=f.dimension,
        alpha=1.0,
        evaluate=_dr_step(f, g, gamma, 1.0),
        provenance=prov,
    )


def make_admm_xy_split(f, g, rho):
    """Consensus-split ADMM map for ``min f(x) + g(y)`` subject to
    ``x = y``, as an operator on the scaled dual variable:
    ``w -> (1/rho) F_DR(rho w)`` with the DR map built at gamma = rho,
    alpha = 1/2.  Extraction recovers the primal optimizer via
    ``w -> prox(f, rho, rho w)``."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    dr_eval = DRStep(prox_map(f, rho), prox_map(g, rho), 0.5)
    prov = Provenance("admm", {"rho": rho})
    op = FixedPointOperator(
        dimension=f.dimension,
        alpha=0.5,
        evaluate=lambda w: dr_eval(rho * w) / rho,
        provenance=prov,
    )
    return op, lambda w: dr_eval.prox_f(rho * w)


def run_admm_direct(f, g, rho, y0=None, w0=None, iters=100):
    """Direct alternating-direction iteration for ``min f(x) + g(y)``
    subject to ``x = y``, returning the scaled-dual trace.

    Updates (penalty 1/rho, so both block updates are prox maps at scale
    rho; the x-block is a linear solve for quadratic f):

        y_{k+1} = prox(g, rho, x_k + u_k)
        x_{k+1} = prox(f, rho, y_{k+1} - u_k)
        u_{k+1} = u_k + x_{k+1} - y_{k+1}

    The reported dual variable is ``w_k = (x_k - u_k) / rho``, which
    follows exactly the operator from :func:`make_admm_xy_split`.  When
    ``y0`` is omitted the start is made consistent
    (``x_0 = prox(f, rho, rho w_0)``) so the match holds from step 0;
    an arbitrary ``y0`` becomes consistent after one iteration.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    n = f.dimension
    w0 = np.zeros(n) if w0 is None else np.asarray(w0, dtype=float)
    try:
        prox_f = prox_map(f, rho)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rho*Q+I is SPD
        raise SingularSubproblem(str(exc)) from exc
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
    return IterationTrace(
        iterates=np.asarray(ws),
        residuals=np.asarray(residuals),
        limit=ws[-1].copy(),
        stop_reason=STOP_MAX_ITERS,
        aux={"x": np.asarray(xs), "y": np.asarray(ys)},
    )
