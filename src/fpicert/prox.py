"""Closed-form proximal and reflector operators for the shipped
piecewise linear-quadratic function classes.

A function is described by a :class:`PLQFunctionSpec`; the supported
kinds and their scaled proximal maps ``prox(f, gamma, x)`` (the unique
minimizer of ``gamma*f(u) + 0.5*||u - x||^2``) are

==========================  =================================================
quadratic  0.5 x'Qx + c'x   solve ``(gamma*Q + I) u = x - gamma*c``
linear     c'x              ``x - gamma*c``
polyhedral indicator        Euclidean projection onto ``{x : A x <= b}``
weighted l1                 soft-thresholding at ``gamma*weight``
box indicator               componentwise clamp to ``[lo, hi]``
==========================  =================================================
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, psd_eigenvalues
from .polyhedra import Polyhedron, project_polyhedron

QUADRATIC = "quadratic"
LINEAR = "linear"
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
    """``f(x) = c'x``."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    return PLQFunctionSpec(LINEAR, c.shape[0], {"c": c})


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
    if f.kind == LINEAR:
        return float(f.data["c"] @ x)
    if f.kind == POLYHEDRAL_INDICATOR:
        return 0.0 if f.data["poly"].contains(x) else np.inf
    if f.kind == L1:
        return f.data["weight"] * float(np.abs(x).sum())
    if f.kind == BOX_INDICATOR:
        lo, hi = f.data["lo"], f.data["hi"]
        inside = np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
        return 0.0 if inside else np.inf
    raise ValueError(f"unknown kind {f.kind!r}")


def prox(f, gamma, x, method="active_set"):
    """Scaled proximal map: the minimizer of ``gamma*f(u) + 0.5||u - x||^2``.

    ``method`` is forwarded to the polyhedral projection when ``f`` is a
    polyhedral indicator.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (f.dimension,):
        raise ValueError(f"point has shape {x.shape}, expected ({f.dimension},)")
    if f.kind == QUADRATIC:
        Q, c = f.data["Q"], f.data["c"]
        return np.linalg.solve(gamma * Q + np.eye(f.dimension), x - gamma * c)
    if f.kind == LINEAR:
        return x - gamma * f.data["c"]
    if f.kind == POLYHEDRAL_INDICATOR:
        return project_polyhedron(f.data["poly"], x, method=method)
    if f.kind == L1:
        t = gamma * f.data["weight"]
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    if f.kind == BOX_INDICATOR:
        return np.clip(x, f.data["lo"], f.data["hi"])
    raise ValueError(f"unknown kind {f.kind!r}")


def reflect(f, gamma, x, method="active_set"):
    """Reflector ``2 prox(f, gamma, x) - x``; nonexpansive for every kind."""
    return 2.0 * prox(f, gamma, x, method=method) - x


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
