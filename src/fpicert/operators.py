"""Fixed-point operators for the supported first-order algorithms.

Each factory returns a :class:`FixedPointOperator` carrying the smallest
averaging parameter alpha for which the map is known to be alpha-averaged
(alpha = 1 marks a merely nonexpansive map, which the rate machinery
refuses).  Operators keep a provenance record: the algorithm and the
parameters it read, which ``fpicert solve`` writes to its metadata.

Each map has one constructor, and ``engine.iterate`` steps them all.
Every ``evaluate`` maps one point, shape ``(n,)``, or each row of a
block, shape ``(k, n)``.  Projected gradient is proximal gradient with
the constraint indicator as g, and Peaceman-Rachford is Douglas-Rachford
at alpha = 1.  A splitting factory also returns its extraction, the map
from a fixed point to a minimizer: the step's own prepared prox of f for
DR and PR, ``w -> prox_f(rho w)`` for ADMM.

``dr_piece`` is the one formula for the Douglas-Rachford map on a face
of a polyhedral f with an affine prox of g: the analysis layer's pieces
(in stacks of faces) and the block step ``AffineDRStep`` (on a stack of
one) both take it from there, so a certified constant is a number about
the map that is iterated, to the last bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepTooLarge
from .linalg import lambda_max_psd
# prox and project_polyhedron are not called here; they stay importable
# because bench/tracing.py patches them at this module
from .prox import QUADRATIC, prox, prox_map
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


def compose_alpha(a1, a2):
    """Averaging parameter of the composition of an a1- and an
    a2-averaged operator; an isometric factor enters as a = 0."""
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
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if lmax <= 0.0:
        return 0.0  # translation: averaged for every alpha in (0, 1)
    if lam >= 2.0 / lmax:
        raise StepTooLarge(f"lambda = {lam} >= 2/lambda_max = {2.0 / lmax}")
    return lam * lmax / 2.0


def make_gd(f, lam):
    """Gradient-descent map ``x - lam * (Q x + c)`` for quadratic f."""
    Q, c = _gradient_data(f)
    alpha = _gd_alpha(lam, lambda_max_psd(Q))
    prov = Provenance("gd", {"lambda": lam})
    return FixedPointOperator(
        dimension=f.dimension,
        alpha=alpha if alpha > 0.0 else 1.0,  # Q = 0: a translation, flagged
        evaluate=lambda x: x - lam * (x @ Q.T + c),
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


def make_proximal_gradient(f, g, lam):
    """Proximal-gradient map ``prox(g, lam, x - lam * grad f(x))``, whose
    fixed points minimize f + g.  With the indicator of a polyhedron S as
    g it is projected gradient, ``proj_S(x - lam * grad f(x))``."""
    Q, c = _gradient_data(f)
    if g.dimension != f.dimension:
        raise ValueError("f and g live in different spaces")
    alpha = compose_alpha(_gd_alpha(lam, lambda_max_psd(Q)), 0.5)
    prov = Provenance("pg", {"lambda": lam})
    prox_g = prox_map(g, lam)
    return FixedPointOperator(
        dimension=f.dimension,
        alpha=alpha,
        evaluate=lambda x: prox_g(x - lam * (x @ Q.T + c)),
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
    ``p = prox_f(w)``, from the prepared prox maps of f and g, of one
    point or of each row of a block."""

    def __init__(self, prox_f, prox_g, alpha):
        self.two_alpha = 2.0 * alpha
        self.prox_f = prox_f
        self.prox_g = prox_g

    def __call__(self, w):
        p = self.prox_f(w)
        q = self.prox_g(2.0 * p - w)
        return w + self.two_alpha * (q - p)


def dr_piece(W, h, alpha, D, offset):
    """``(M, v)`` with ``w - F(w) = M w - v`` for the Douglas-Rachford
    step ``F`` of a polyhedral f and ``prox_g(x) = W x - h``, on points
    whose projection lands on a face with projection ``(I - D) w +
    offset`` (``polyhedra.Face``), for a stack of faces: ``D`` of shape
    ``(N, n, n)`` and ``offset`` of shape ``(N, n)`` give N pieces,

        M = 2a (I - W + (2W - I) D),    v = 2a ((2W - I) offset - h),

    which is ``M = 2a D`` at ``W = I`` (a linear g).  Each slice is one
    product of its own, so a stack of one gives the bits of a longer one.
    """
    eye = np.eye(len(W))
    V = 2.0 * W - eye
    return (2.0 * alpha * (eye - W + V @ D),
            2.0 * alpha * ((V @ offset[..., None])[..., 0] - h))


class AffineDRStep(DRStep):
    """The DR step when f is a polyhedral indicator and ``prox_g(x) = W x - h``
    (g quadratic; a linear g has ``W = I``).  While f's projector holds a
    face J, the step is the affine map ``w -> (I - M) w + v`` of
    ``dr_piece``, built when the face changes.  ``orbit`` fills a block of
    steps by doubling, one product per power of two of that map, and
    certifies the block with one ``Projector.accept``; the powers are
    squared as blocks need them and dropped with the face, so it keeps
    ``O(n^2 log MAX_BLOCK)`` numbers cached.
    """

    def __init__(self, prox_f, prox_g, alpha):
        super().__init__(prox_f, prox_g, alpha)
        self._alpha = alpha
        self._face = None  # active set of ``_Tt`` and ``_powers``
        self._length = FIRST_BLOCK

    def _hold(self, project):
        """Cache ``[[I - M, v], [0, 1]]`` of the projector's face, and
        start its powers over."""
        face = project.face
        M, v = dr_piece(*self.prox_g.affine, self._alpha, face.D[None], face.offset[None])
        n = v.shape[1]
        Tt = np.zeros((n + 1, n + 1))
        Tt[:n, :n] = np.eye(n) - M[0]
        Tt[:n, n] = v[0]
        Tt[n, n] = 1.0
        self._Tt = Tt
        self._powers = [Tt.T]  # (T^(2^i))^T, squared as far as a block needs
        self._face = project.active
        self._length = FIRST_BLOCK

    def orbit(self, w, k, tol):
        """Up to ``k`` next iterates from ``w`` as rows, with their step
        lengths, ending after the first step of length ``<= tol``: the
        iterates of as many calls, up to roundoff.

        The rows are ``x_j = T^j x_0`` for the held face's map ``T =
        [[I - M, v], [0, 1]]`` on points ``(x, 1)``, filled by doubling:
        rows ``[d, 2d)`` are rows ``[0, d)`` times ``(T^d)^T``, so a block
        of ``L`` rows takes ``ceil(log2(L + 1))`` products.  The projector
        tests, under its one warm-face rule, the point each row's step
        projects; rows are kept up to the first point it does not
        certify, and the step from that point is one call, whose cold
        projection moves the projector to the new face.
        """
        project = self.prox_f.projector
        if project.active != self._face:
            self._hold(project)
        L = min(self._length, k)
        n = len(w)
        X = np.empty((L + 1, n + 1))  # rows (x, 1), so a product by T^d is d steps
        X[0, :n] = w
        X[0, n] = 1.0
        powers = self._powers
        d = 1
        while d <= L:  # rows [d, 2d) are rows [0, d) advanced by T^d
            i = d.bit_length() - 1
            if i == len(powers):
                powers.append(powers[-1] @ powers[-1])
            c = min(d, L + 1 - d)
            np.dot(X[:c], powers[i], out=X[d:d + c])
            d *= 2
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


def _splitting(f, g, gamma, alpha, prov):
    """The DR step of f and g at ``gamma`` and ``alpha`` as an operator,
    with the extraction ``w -> prox(f, gamma, w)``, the step's own
    ``ProxMap`` of f, that recovers a minimizer of f + g from any fixed
    point."""
    if f.dimension != g.dimension:
        raise ValueError("f and g live in different spaces")
    op = FixedPointOperator(
        dimension=f.dimension,
        alpha=alpha,
        evaluate=_dr_step(f, g, gamma, alpha),
        provenance=prov,
    )
    return op, op.evaluate.prox_f


def make_dr(f, g, gamma, alpha):
    """Douglas-Rachford map ``(1-a) w + a ref(g) o ref(f) (w)`` together
    with its extraction (``_splitting``)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return _splitting(f, g, gamma, alpha, Provenance("dr", {"gamma": gamma, "alpha": alpha}))


def make_pr(f, g, gamma):
    """Peaceman-Rachford map ``ref(g) o ref(f)``: Douglas-Rachford at
    alpha = 1.  Nonexpansive but not averaged, so no rate certificate
    applies; its fixed points coincide with DR's, and so does its
    extraction, returned with it as by ``make_dr``."""
    return _splitting(f, g, gamma, 1.0, Provenance("pr", {"gamma": gamma}))


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
