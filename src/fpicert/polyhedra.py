"""Polyhedra in inequality form and certified Euclidean projections.

A polyhedron is ``{x : A x <= b}``.  Equality constraints are encoded as
paired inequality rows (``+row`` and ``-row``), which is how the analysis
layer builds the regions it projects onto.

Two projection routes are provided and kept deliberately independent:

* ``brute_force`` enumerates index sets J with ``rank(A_J^T) = |J|``,
  projects onto each candidate affine subspace and keeps the candidate
  whose KKT certificate (primal feasibility + nonnegative multipliers)
  checks out.  Exponential in the row count; it is the oracle.
* ``active_set`` solves the dual of the projection problem with a
  Lawson-Hanson style active-set loop on the multipliers.  Polynomial in
  practice and the default everywhere.

A :class:`Projector` is the repeated-call form of ``active_set``: it
tries the last certified active set first and accepts the result only
if it is feasible within the cold loop's slack and its multipliers are
nonnegative, falling back to the cold loop otherwise.  It also exposes
the held face's affine projection and tests whole blocks of points
against it under the same rule.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from .errors import Infeasible, NoCertificate
from .linalg import as_matrix, pseudo_inverse

#: Absolute feasibility / multiplier tolerance on unit-scaled data.
KKT_TOL = 1e-8

#: Certified candidates further apart than this indicate a tolerance failure.
TIE_TOL = 1e-6


@dataclass(frozen=True)
class Polyhedron:
    """Inequality description ``{x : A x <= b}``; ``A`` is m-by-n."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if b.ndim != 1 or b.shape[0] != A.shape[0]:
            raise ValueError("b must have one entry per row of A")
        if not np.all(np.isfinite(b)):
            raise ValueError("b has non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def num_rows(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.A.shape[1]

    def contains(self, x, tol=KKT_TOL):
        """Whether ``A x <= b + tol``, for one point or for each row of a
        2-D ``x``; ``tol`` is a number or one number per row."""
        excess = np.asarray(x, dtype=float) @ self.A.T - self.b
        return excess.max(axis=-1, initial=-np.inf) <= tol

    def violation(self, x):
        if self.num_rows == 0:
            return 0.0
        return float(np.maximum(self.A @ x - self.b, 0.0).max())


def whole_space(dim):
    """The trivial polyhedron R^dim (zero inequality rows)."""
    return Polyhedron(np.zeros((0, dim)), np.zeros(0))


def intersect(*polys):
    """Stack the rows of several polyhedra over a common space."""
    dims = {p.dim for p in polys}
    if len(dims) != 1:
        raise ValueError("polyhedra live in different spaces")
    return Polyhedron(np.vstack([p.A for p in polys]),
                      np.concatenate([p.b for p in polys]))


def affine_rows(E, e):
    """Polyhedron rows encoding the affine set ``{x : E x = e}``
    as paired inequalities."""
    E = as_matrix(E)
    e = np.atleast_1d(np.asarray(e, dtype=float))
    return Polyhedron(np.vstack([E, -E]), np.concatenate([e, -e]))


def find_feasible_point(poly):
    """A point of ``poly``, or ``None`` when the polyhedron is empty.

    Decided by a phase-1 linear program (HiGHS); this is the one place
    feasibility is certified by an external solver rather than by our
    own projection machinery.
    """
    if poly.num_rows == 0:
        return np.zeros(poly.dim)
    res = linprog(np.zeros(poly.dim), A_ub=poly.A, b_ub=poly.b,
                  bounds=[(None, None)] * poly.dim, method="highs")
    if res.status == 2:
        return None
    if not res.success:
        raise NoCertificate(f"feasibility LP ended with status {res.status}")
    return np.asarray(res.x, dtype=float)


def face_feasible_point(poly, active):
    """A point of the face ``{x in poly : A_J x = b_J}``, or ``None``."""
    J = list(active)
    if not J:
        return find_feasible_point(poly)
    res = linprog(np.zeros(poly.dim), A_ub=poly.A, b_ub=poly.b,
                  A_eq=poly.A[J], b_eq=poly.b[J],
                  bounds=[(None, None)] * poly.dim, method="highs")
    if res.status == 2:
        return None
    if not res.success:
        raise NoCertificate(f"face feasibility LP ended with status {res.status}")
    return np.asarray(res.x, dtype=float)


def is_empty(poly):
    return find_feasible_point(poly) is None


@dataclass(frozen=True)
class ProjectionResult:
    """Projection point with its KKT certificate."""

    point: np.ndarray
    active: tuple
    multipliers: np.ndarray

    def displacement_matches(self, poly, u, tol=KKT_TOL):
        """Check ``u - point = A_J^T multipliers`` within ``tol``."""
        AJ = poly.A[list(self.active)]
        resid = (u - self.point) - AJ.T @ self.multipliers
        return float(np.linalg.norm(resid)) <= tol * (1.0 + np.linalg.norm(u))


def project_polyhedron(poly, u, method="active_set", tol=KKT_TOL):
    """Euclidean projection of ``u`` onto a nonempty polyhedron.

    Returns the projected point.  ``method`` selects the route; both must
    agree (this is asserted by the test suite on random instances).
    Raises ``Infeasible`` when the polyhedron is empty and ``NoCertificate``
    when no KKT-certified candidate is found, which indicates a tolerance
    failure on badly scaled input.
    """
    return project_with_certificate(poly, u, method=method, tol=tol).point


def project_with_certificate(poly, u, method="active_set", tol=KKT_TOL):
    u = np.asarray(u, dtype=float)
    if u.shape != (poly.dim,):
        raise ValueError(f"point has shape {u.shape}, expected ({poly.dim},)")
    if poly.num_rows == 0:
        return ProjectionResult(u.copy(), (), np.zeros(0))
    if method == "active_set":
        return _project_active_set(poly, u, tol)
    if method == "brute_force":
        return _project_brute_force(poly, u, tol)
    raise ValueError(f"unknown projection method {method!r}")


class Projector:
    """Warm-started Euclidean projection onto one polyhedron.

    Keeps the active set J of the last cold projection, with the rows
    ``A_J``, ``b_J`` and ``G = inv(A_J A_J^T)``.  A call first tries the
    projection onto the face ``{A_J x = b_J}``,

        x = u - A_J^T lam,    lam = G A_J u - G b_J,

    and returns it only if it is KKT-certified: no row violated by more
    than ``KKT_TOL * scale`` (the cold loop's feasibility slack), the
    rows of J tight to the same slack, and every multiplier ``>= 0``
    exactly (the cold loop lets a working multiplier end at ``-KKT_TOL``).
    Otherwise it runs the cold loop and caches the active set of that
    result.  ``hits`` and ``misses`` count the two outcomes; ``accept``
    adds a block's certified points to ``hits``.
    """

    def __init__(self, poly):
        self.poly = poly
        self.hits = 0
        self.misses = 0
        self._bmax = float(np.abs(poly.b).max(initial=0.0))
        self._cache(())

    def _cache(self, active):
        J = list(active)
        AJ, bJ = self.poly.A[J], self.poly.b[J]
        try:
            gram_inv = np.linalg.inv(AJ @ AJ.T)
        except np.linalg.LinAlgError:  # numerically dependent rows: no warm face
            return self._cache(())
        self.active = tuple(J)
        self._AJ = AJ
        self._mult_T = (gram_inv @ AJ).T
        self._mult_rhs = gram_inv @ bJ
        # rows of A x <= b followed by -A_J x <= -b_J: one product tests
        # feasibility and the tightness of J
        self._C_T = np.vstack([self.poly.A, -AJ]).T
        self._d = np.concatenate([self.poly.b, -bJ])

    def face_map(self):
        """``(A_J, M, q)`` with ``u - A_J^T M u + q`` the projection of ``u``
        onto the held face ``{A_J x = b_J}``: ``M = G A_J``, ``q = A_J^T G b_J``."""
        return self._AJ, self._mult_T.T, self._AJ.T @ self._mult_rhs

    def _warm(self, U):
        """Projections onto the held face of one point, or of each row of
        a 2-D ``U``, and whether each is KKT-certified: the one acceptance
        rule of the class."""
        lam = U @ self._mult_T - self._mult_rhs
        X = U - lam @ self._AJ
        slack = X @ self._C_T - self._d
        if U.ndim == 1:
            # plain floats: on these short vectors a list max beats a ufunc reduce
            worst = max(slack.tolist(), default=-math.inf)
            least = min(lam.tolist(), default=math.inf)
            norm = math.sqrt(U @ U)
        else:
            worst = slack.max(axis=1, initial=-np.inf)
            least = lam.min(axis=1, initial=np.inf)
            norm = np.sqrt(np.add.reduce(U * U, axis=1))
        # the cold loop's feasibility slack, as in _project_active_set
        ok = (worst <= KKT_TOL * (1.0 + norm + self._bmax)) & (least >= 0.0)
        return X, ok

    def accept(self, U):
        """The number of leading rows of ``U`` whose projection onto the
        held face is certified; they count as hits."""
        ok = self._warm(U)[1]
        n = len(ok) if ok.all() else int(np.argmin(ok))
        self.hits += n
        return n

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if u.shape != (self.poly.dim,):
            raise ValueError(f"point has shape {u.shape}, expected ({self.poly.dim},)")
        x, ok = self._warm(u)
        if ok:
            self.hits += 1
            return x
        self.misses += 1
        res = _project_active_set(self.poly, u, KKT_TOL)
        self._cache(res.active)
        return res.point


def _candidate(poly, J, u):
    """Affine projection of u onto {A_J x = b_J} plus its multipliers."""
    AJ = poly.A[list(J)]
    bJ = poly.b[list(J)]
    Ad = pseudo_inverse(AJ)
    x = u - Ad @ (AJ @ u - bJ)
    lam = Ad.T @ (u - x)
    return x, lam


def _project_brute_force(poly, u, tol):
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
            if poly.violation(x) > tol * scale:
                continue
            feasible_seen = True
            if k and lam.min(initial=0.0) < -tol * scale:
                continue
            certified.append(ProjectionResult(x, tuple(J), lam))
    if not certified:
        if feasible_seen:
            raise NoCertificate("feasible candidates exist but none passed the "
                                "multiplier check")
        raise Infeasible("no candidate satisfies every inequality; "
                         "the polyhedron is empty")
    best = certified[0]
    for cand in certified[1:]:
        if np.linalg.norm(cand.point - best.point) > TIE_TOL * scale:
            raise NoCertificate("two certified candidates disagree; "
                                "projection should be unique")
    return best


def _solve_working_set(poly, u, W):
    """Multipliers for the equality-constrained projection onto rows W."""
    AW = poly.A[W]
    G = AW @ AW.T
    rhs = AW @ u - poly.b[W]
    try:
        lam = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        lam = np.linalg.lstsq(G, rhs, rcond=None)[0]
    return lam


def _project_active_set(poly, u, tol):
    """Dual active-set projection (Goldfarb-Idnani style for a unit
    Hessian).

    Maintains a working set W of linearly independent rows held exactly
    at equality with multipliers lam >= 0; the primal point is
    ``u - A_W^T lam``.  The most violated row enters W; rows whose
    multiplier would turn negative leave.  A violated row lying in the
    span of A_W triggers a pure dual step that swaps out a blocking row
    (if no row blocks, the polyhedron is empty by duality).
    Self-starting: no feasible initial point is needed.
    """
    m = poly.num_rows
    scale = 1.0 + float(np.linalg.norm(u)) + float(np.abs(poly.b).max(initial=0.0))
    W = []
    lam_W = np.zeros(0)
    x = u.copy()
    max_outer = 50 * (m + 2)
    for _ in range(max_outer):
        viol = poly.A @ x - poly.b
        if W:
            viol[W] = 0.0  # working rows are tight up to solve precision
        p = int(np.argmax(viol)) if m else 0
        if m == 0 or viol[p] <= tol * scale:
            mult = np.zeros(m)
            if W:
                mult[W] = lam_W
            keep = sorted(i for i in W if mult[i] > 0.0)
            return ProjectionResult(x, tuple(keep),
                                    mult[keep] if keep else np.zeros(0))
        # let row p enter W; if a_p lies in span(A_W), a pure dual step
        # swaps out one blocking row first (removing a row carrying a
        # nonzero coefficient of a_p makes p independent of the rest)
        a_p = poly.A[p]
        dependent = False
        if W:
            AW = poly.A[W]
            r = np.linalg.solve(AW @ AW.T, AW @ a_p)
            z = a_p - AW.T @ r
            dependent = np.linalg.norm(z) <= 1e-10 * max(1.0, np.linalg.norm(a_p))
        if dependent:
            blocking = r > tol
            if not np.any(blocking):
                raise Infeasible("dual ray found: the polyhedron is empty")
            steps = lam_W[blocking] / r[blocking]
            j_local = int(np.flatnonzero(blocking)[np.argmin(steps)])
            t = float(lam_W[j_local] / r[j_local])
            lam_W = lam_W - t * r
            del W[j_local]
            lam_W = np.delete(lam_W, j_local)
            W.append(p)
            lam_W = np.append(lam_W, t)  # primal point x is unchanged
        else:
            W.append(p)
            lam_W = np.append(lam_W, 0.0)
        lam_new = _solve_working_set(poly, u, W)
        # inner loop: walk toward lam_new, dropping rows that hit zero
        guard = 0
        while lam_new.min(initial=0.0) < -tol:
            guard += 1
            if guard > 4 * m + 8:
                raise NoCertificate("multiplier cycling in active-set projection")
            neg = lam_new < -tol
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = lam_W[neg] / (lam_W[neg] - lam_new[neg])
            t = float(np.clip(np.min(steps), 0.0, 1.0))
            lam_W = lam_W + t * (lam_new - lam_W)
            drop = [i for i, l in enumerate(lam_W) if l <= tol * 1e-4 and W[i] != p]
            if not drop:
                drop = [int(np.argmin(lam_new))]
            for i in sorted(drop, reverse=True):
                del W[i]
            lam_W = np.delete(lam_W, drop)
            lam_new = _solve_working_set(poly, u, W)
        lam_W = lam_new
        x = u - poly.A[W].T @ lam_W
    # degenerate row patterns can cycle; settle emptiness before giving up
    if is_empty(poly):
        raise Infeasible("polyhedron is empty")
    raise NoCertificate("active-set projection did not terminate")
