"""Run fixed-point iterations and measure empirical contraction behavior.

The engine is agnostic about where operators come from: anything with
``evaluate``, ``dimension`` and ``alpha`` attributes can be iterated.
Every algorithm is run by the one loop of ``iterate``, which takes its
steps in blocks: a step with an ``orbit`` method gives many rows per
block, any other step one row per call.  An operator's ``evaluate``
maps one point, or each row of a 2-D block, and a fixed-set description
object exposes ``distance(x)`` under the same convention;
:mod:`fpicert.analysis` describes the set of the splitting operator on
an LP or QP as one polyhedron.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFixedSet, NonFinite

STOP_RESIDUAL = "residual_tol"
STOP_MAX_ITERS = "max_iters"


@dataclass
class IterationTrace:
    """Iterates of one fixed-point run with per-step residuals.

    ``dist_to_fix``, the distance of each iterate to a fixed-point set,
    is filled by the caller that has a description of that set.
    """

    iterates: np.ndarray
    residuals: np.ndarray
    limit: np.ndarray
    stop_reason: str
    dist_to_fix: np.ndarray | None = None

    @property
    def num_steps(self):
        return len(self.residuals)


def _doubled(a):
    return np.concatenate([a, np.empty_like(a)])


def _one_step(evaluate):
    """An ``orbit`` of one call of ``evaluate``: a block of one row."""
    def orbit(x, k, tol):
        x_next = np.asarray(evaluate(x), dtype=float)
        step = x_next - x
        # norm of a 1-d array, as np.linalg.norm computes it
        return x_next[None], [math.sqrt(step @ step)]
    return orbit


def _block_run(orbit, x, tol, max_iters):
    """Iterates and residuals of blocks of steps from ``orbit``."""
    iterates = np.empty((64, x.shape[0]))
    iterates[0] = x
    residuals = np.empty(64)
    k = 0
    while k < max_iters:
        rows, r = orbit(x, max_iters - k, tol)
        if not np.isfinite(rows).all():
            raise NonFinite("iterate left the finite range")
        while k + len(rows) >= len(residuals):
            iterates, residuals = _doubled(iterates), _doubled(residuals)
        residuals[k:k + len(rows)] = r
        iterates[k + 1:k + 1 + len(rows)] = rows
        k += len(rows)
        x = rows[-1]
        if r[-1] <= tol:
            break
    return iterates[:k + 1], residuals[:k]


def iterate(F, x0, residual_tol=1e-10, max_iters=200_000):
    """Apply ``x <- F(x)`` until the residual ``||F(x) - x||`` drops to
    ``residual_tol`` or ``max_iters`` steps have been taken.

    Steps are taken in blocks by one loop.  A block is one call of
    ``F.evaluate``, unless it has a method ``orbit(x, k, tol)`` (the
    Douglas-Rachford step of an LP or QP has one): that returns up to
    ``k`` next iterates as rows, with their residuals, and ends after the
    first residual ``<= tol``, so no block runs past ``max_iters`` or
    past the residual stop.

    Raises ``NonFinite`` if an iterate leaves the floating-point range,
    which signals a bug in the operator rather than expected behavior.
    The iterates and residuals are stored in arrays that double when full.
    """
    if residual_tol <= 0:
        raise ValueError("residual_tol must be positive")
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (F.dimension,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({F.dimension},)")
    orbit = getattr(F.evaluate, "orbit", None) or _one_step(F.evaluate)
    iterates, residuals = _block_run(orbit, x, residual_tol, max_iters)
    stopped = len(residuals) > 0 and residuals[-1] <= residual_tol
    return IterationTrace(
        iterates=iterates,
        residuals=residuals,
        limit=iterates[-1].copy(),
        stop_reason=STOP_RESIDUAL if stopped else STOP_MAX_ITERS,
    )


@dataclass(frozen=True)
class EmpiricalRates:
    """Sampled estimates of the tightest contraction factor and
    error-bound constant near the fixed-point set.

    Both numbers are maxima over a finite sample, hence lower bounds on
    the true suprema; reports must label them as sampled.
    """

    rho_tilde: float
    k_tilde: float
    sample_radius: float
    sample_count: int
    seed: int


def estimate_rates(F, fixset, R, samples=200, seed=0):
    """Sample points with ``dist(x, fixed set) <= R`` and measure the
    worst-case ratios ``dist(F(x), S)/dist(x, S)`` and
    ``dist(x, S)/||F(x) - x||``.

    Points are drawn as ``representative + r * direction`` with uniform
    direction and radius ``r`` uniform on (0, R].  Samples that land on
    the fixed set itself are excluded (``EmptyFixedSet`` when all do).
    The kept samples are stepped by one call of ``F.evaluate`` on their
    block, and the samples and then their images are measured with one
    ``distance`` call each; a sample with a zero residual gives
    ``k_tilde = inf``.  Deterministic for a given seed.
    """
    if fixset is None or getattr(fixset, "representative", None) is None:
        raise EmptyFixedSet("estimate_rates needs a nonempty fixed-point set")
    if R <= 0:
        raise ValueError("R must be positive")
    rng = np.random.default_rng(seed)
    center = np.asarray(fixset.representative, dtype=float)
    n = center.shape[0]
    xs = []
    for _ in range(samples):
        direction = rng.standard_normal(n)
        xs.append(center + (R * rng.uniform(0.0, 1.0)) * direction
                  / np.linalg.norm(direction))
    xs = np.reshape(xs, (-1, n))
    d_xs = fixset.distance(xs)
    kept = d_xs > 1e-14 * (1.0 + np.linalg.norm(xs, axis=1))
    xs, d_xs = xs[kept], d_xs[kept]
    if len(xs) == 0:
        raise EmptyFixedSet("all samples landed on the fixed-point set")
    fxs = F.evaluate(xs)
    d_fxs = fixset.distance(fxs)
    residuals = np.linalg.norm(fxs - xs, axis=1)
    with np.errstate(divide="ignore"):
        k_tilde = np.max(d_xs / residuals)
    return EmpiricalRates(rho_tilde=float(np.max(d_fxs / d_xs)),
                          k_tilde=float(k_tilde), sample_radius=float(R),
                          sample_count=len(xs), seed=int(seed))

