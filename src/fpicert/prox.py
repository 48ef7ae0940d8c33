"""Closed-form proximal and reflector operators for the shipped
piecewise linear-quadratic function classes.

A function is described by a :class:`PLQFunctionSpec`.  Its scaled
proximal map at ``gamma`` (``x`` to the unique minimizer of
``gamma*f(u) + 0.5*||u - x||^2``) is prepared once by
``prox_map(f, gamma)``, which does every step that depends on ``f`` and
``gamma`` alone; the returned :class:`ProxMap` does only the per-point
work:

==========================  =================================================
kind                        prepared once / per point
==========================  =================================================
quadratic  0.5 x'Qx + c'x   ``W = inv(gamma*Q + I)``, ``W gamma c`` /
                            ``W x - W gamma c``; a linear ``c'x`` is
                            ``Q = 0``, so ``W = I``
polyhedral indicator        a warm-started :class:`~fpicert.polyhedra.Projector`
                            onto ``{x : A x <= b}``
weighted l1                 soft-thresholding at ``gamma*weight``
box indicator               componentwise clamp to ``[lo, hi]``
==========================  =================================================

``prox(f, gamma, x)`` is the one-shot form ``prox_map(f, gamma)(x)``.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, psd_eigenvalues
# project_polyhedron is not called here; it stays importable because
# bench/tracing.py patches it at this module
from .polyhedra import Polyhedron, Projector, project_polyhedron

QUADRATIC = "quadratic"
POLYHEDRAL_INDICATOR = "polyhedral_indicator"
L1 = "l1"
BOX_INDICATOR = "box_indicator"


@dataclass(frozen=True)
class PLQFunctionSpec:
    """Tagged description of one convex piecewise linear-quadratic function."""

    kind: str
    dimension: int
    data: dict = field(default_factory=dict)

    def __call__(self, x):
        return function_value(self, x)


def quadratic(Q, c):
    """``f(x) = 0.5 x'Qx + c'x`` with symmetric PSD ``Q`` (Q = 0 allowed)."""
    Q = as_matrix(Q)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]
    if Q.shape != (n, n):
        raise ValueError(f"Q has shape {Q.shape}, expected ({n}, {n})")
    psd_eigenvalues(Q)
    return PLQFunctionSpec(QUADRATIC, n, {"Q": Q, "c": c})


def linear(c):
    """``f(x) = c'x``: the quadratic with ``Q = 0``, whose prox is
    exactly ``x - gamma*c``."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return quadratic(np.zeros((c.shape[0],) * 2), c)


def polyhedral_indicator(poly):
    """Indicator of ``{x : A x <= b}``; emptiness is checked where a
    solver is built on top, not here."""
    if not isinstance(poly, Polyhedron):
        raise TypeError("polyhedral_indicator expects a Polyhedron")
    return PLQFunctionSpec(POLYHEDRAL_INDICATOR, poly.dim, {"poly": poly})


def l1(weight, dimension):
    """``f(x) = weight * ||x||_1`` with ``weight >= 0``."""
    if weight < 0:
        raise ValueError("l1 weight must be nonnegative")
    return PLQFunctionSpec(L1, int(dimension), {"weight": float(weight)})


def box_indicator(lo, hi):
    """Indicator of the box ``[lo, hi]`` (componentwise, lo <= hi)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape:
        raise ValueError("lo and hi must have the same shape")
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi somewhere")
    return PLQFunctionSpec(BOX_INDICATOR, lo.shape[0], {"lo": lo, "hi": hi})


def function_value(f, x):
    """Evaluate ``f`` at ``x`` (``inf`` outside an indicator's set)."""
    x = np.asarray(x, dtype=float)
    if f.kind == QUADRATIC:
        return 0.5 * x @ f.data["Q"] @ x + f.data["c"] @ x
    if f.kind == POLYHEDRAL_INDICATOR:
        return 0.0 if f.data["poly"].contains(x) else np.inf
    if f.kind == L1:
        return f.data["weight"] * float(np.abs(x).sum())
    if f.kind == BOX_INDICATOR:
        lo, hi = f.data["lo"], f.data["hi"]
        inside = np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
        return 0.0 if inside else np.inf
    raise ValueError(f"unknown kind {f.kind!r}")


@dataclass(frozen=True)
class ProxMap:
    """A prepared proximal map of a ``dimension``-vector.  ``affine`` is
    ``(W, h)`` with ``prox(x) = W x - h`` for the quadratic kind, else
    ``None``."""

    dimension: int
    body: callable
    affine: tuple | None = None

    @property
    def projector(self):
        """The warm-started ``Projector`` of a polyhedral indicator, else
        ``None``."""
        return self.body if isinstance(self.body, Projector) else None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dimension},)")
        return self.body(x)


def prox_map(f, gamma):
    """The scaled proximal map ``x -> argmin gamma*f(u) + 0.5||u - x||^2``
    as a :class:`ProxMap`, with everything that depends on ``f`` and
    ``gamma`` alone computed here, once.  The map of a polyhedral
    indicator is stateful: it keeps the last active set as a warm start
    (see ``Projector``)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    n = f.dimension
    affine = None
    if f.kind == QUADRATIC:
        W = np.linalg.solve(gamma * f.data["Q"] + np.eye(n), np.eye(n))
        Wgc = W @ (gamma * f.data["c"])
        affine = (W, Wgc)

        def body(x):
            return W @ x - Wgc
    elif f.kind == POLYHEDRAL_INDICATOR:
        body = Projector(f.data["poly"])
    elif f.kind == L1:
        t = gamma * f.data["weight"]

        def body(x):
            return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    elif f.kind == BOX_INDICATOR:
        lo, hi = f.data["lo"], f.data["hi"]

        def body(x):
            return np.clip(x, lo, hi)
    else:
        raise ValueError(f"unknown kind {f.kind!r}")
    return ProxMap(n, body, affine)


def prox(f, gamma, x):
    """Scaled proximal map at one point: ``prox_map(f, gamma)(x)``."""
    return prox_map(f, gamma)(x)


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
    """Three (f, f*) pairings used by the identity test suites:
    weighted l1 <-> box, positive-definite quadratic <-> quadratic,
    linear <-> singleton box."""
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
