"""Run fixed-point iterations and measure empirical contraction behavior.

The engine is agnostic about where operators come from: anything with
``evaluate``, ``dimension`` and ``alpha`` attributes can be iterated.
Every algorithm is run by the one loop of ``iterate``, which takes its
steps in blocks: a step with an ``orbit`` method gives many rows per
block, any other step one row per call.  Distances to the fixed-point
set are supplied by a fixed-set description object exposing
``distance(x)`` for one point and ``distances(xs)`` for the rows of an
array; :mod:`fpicert.analysis` describes the set of the splitting
operator on an LP or QP as one polyhedron.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFixedSet, NonFinite, TooShort

STOP_RESIDUAL = "residual_tol"
STOP_MAX_ITERS = "max_iters"


@dataclass
class IterationTrace:
    """Iterates of one fixed-point run with per-step residuals.

    ``dist_to_fix`` is filled only when a fixed-set description was
    available.
    """

    iterates: np.ndarray
    residuals: np.ndarray
    limit: np.ndarray
    stop_reason: str
    dist_to_fix: np.ndarray | None = None
    aux: dict = field(default_factory=dict)

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
        if not np.isfinite(r).all() and not np.isfinite(rows).all():
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


def iterate(F, x0, residual_tol=1e-10, max_iters=200_000, fixset=None):
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
    trace = IterationTrace(
        iterates=iterates,
        residuals=residuals,
        limit=iterates[-1].copy(),
        stop_reason=STOP_RESIDUAL if stopped else STOP_MAX_ITERS,
    )
    if fixset is not None:
        trace.dist_to_fix = fixset.distances(trace.iterates)
    return trace


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
    the fixed set itself are excluded.  The samples and then their images
    are measured with one ``distances`` call each.  Deterministic for a
    given seed.
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
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        xs.append(center + (R * rng.uniform(0.0, 1.0)) * direction / norm)
    xs = np.reshape(xs, (-1, n))
    d_xs = fixset.distances(xs)
    kept = d_xs > 1e-14 * (1.0 + np.linalg.norm(xs, axis=1))
    xs, d_xs = xs[kept], d_xs[kept]
    fxs = np.reshape([F.evaluate(x) for x in xs], xs.shape)
    d_fxs = fixset.distances(fxs)
    rho_max = 0.0
    k_max = 0.0
    for x, fx, d_x, d_fx in zip(xs, fxs, d_xs.tolist(), d_fxs.tolist()):
        residual = float(np.linalg.norm(fx - x))
        rho_max = max(rho_max, d_fx / d_x)
        if residual > 0.0:
            k_max = max(k_max, d_x / residual)
        else:
            k_max = np.inf
    used = len(xs)
    if used == 0:
        raise EmptyFixedSet("all samples landed on the fixed-point set")
    return EmpiricalRates(rho_tilde=rho_max, k_tilde=k_max,
                          sample_radius=float(R), sample_count=used,
                          seed=int(seed))


def fit_asymptotic_rate(trace, tail_fraction=0.25):
    """Geometric-mean residual contraction over the final stretch of a
    trace.

    Uses the last ``ceil(tail_fraction * num_steps)`` residuals; requires
    at least 10 of them to be positive (``TooShort`` otherwise).  A zero
    residual inside the window means the iteration reached a fixed point
    exactly, and the fitted rate is 0.0.
    """
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    r = np.asarray(trace.residuals, dtype=float)
    window = r[max(0, len(r) - int(np.ceil(tail_fraction * len(r)))):]
    positive = window[window > 0.0]
    if positive.size < 10:
        raise TooShort(f"only {positive.size} positive residuals in the tail")
    if np.any(window == 0.0):
        return 0.0
    ratios = np.log(window[1:]) - np.log(window[:-1])
    return float(np.exp(ratios.mean()))
