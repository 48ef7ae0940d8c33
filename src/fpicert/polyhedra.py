"""Polyhedra in inequality form and certified Euclidean projections.

A polyhedron is ``{x : A x <= b}``.  Equality constraints are encoded as
paired inequality rows (``+row`` and ``-row``), which is how the analysis
layer builds the regions it projects onto.

``project_polyhedron`` runs the dual active-set method of Goldfarb and
Idnani (Math. Programming 27, 1983) for a unit Hessian once and keeps no
warm-start state.  A working set W of independent rows is held at
equality with multipliers ``lam >= 0`` at the point ``u - A_W^T lam``.
The most violated row p enters by dual steps: its multiplier grows by t,
``lam`` moves by ``-t r`` and the point by ``-t z``, where
``a_p = A_W^T r + z`` splits a_p along the rows of A_W and across them
(from a QR factorization of ``A_W^T``, so that near-parallel rows in W
do not square its condition number).  A full step makes p tight and
adds it; a step cut short where a working multiplier reaches zero drops
that row and goes on with the same p, which is never dropped.  No
feasible start is needed; the point and multipliers are recomputed
from a QR factorization of the final working set.  The loop raises
``Infeasible`` or ``NoCertificate`` only.  A p in the span of A_W with
no blocking row gives the dual ray ``y`` (``y_W = -r``, ``y_p = 1``);
it is checked as a Farkas certificate (``y >= 0``, ``A^T y = 0``,
``b^T y < 0``, each to ``RAY_TOL``) and, when it passes, proves the
polyhedron empty and rides on the ``Infeasible`` as ``ray``.  A ray
that fails the check and every other dead end (a singular working set,
a step that overflows or turns NaN, no termination) leave by one exit,
where HiGHS decides.  Every caller in
the package uses the loop; the tests hold it to a brute-force KKT
enumeration kept apart from it.

The loop is also the emptiness prover.  ``face_feasible_point`` decides
a face ``{x in P : A_J x = b_J}`` by projecting the origin onto P with
the rows J paired: a checked ray makes the face empty, and the loop's
point is returned only if it lies in P and on the face within
``face_slack``.  HiGHS (``_feasibility_lp``) is the fallback for
everything else, and ``is_empty`` asks it directly.

A :class:`Face` is the one factorization of a row set: ``Face.stack``
takes one batched QR ``A_J^T = Q R`` of a stack of row sets, decides
with one rule on ``|R_ii|`` which of them are independent, and forms
the projector, multipliers and affine projection of those from the same
factors; ``Face.of`` is that kernel on a stack of one.  The face walk of
the analysis layer factors its candidate faces in stacks and hands the
arrays of the faces it keeps to the piece build, and the
:class:`Projector` holds one face at a time.  A ``Projector`` tries
the face of the last certified active set first and accepts the result
only if it is feasible within the cold loop's slack and its multipliers
are nonnegative, falling back to the cold loop otherwise; it also tests
whole blocks of points against its held face under the same rule.  A
block projection tries every cold face on all open rows of a block: the
first row the held face fails goes to the cold loop, and the face of
that result is tried on every row still open.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import linprog

from .errors import Infeasible, NoCertificate
from .linalg import DEFAULT_RANK_TOL, as_matrix

#: Absolute feasibility / multiplier tolerance on unit-scaled data.
KKT_TOL = 1e-8

#: Slack, times ``1 + max|b|``, within which a point lies in a polyhedron
#: and on a face of it: ``face_feasible_point`` and the face walk.
FACE_TOL = 1e-9

#: A dual ray ``y`` proves ``{A x <= b}`` empty when ``y >= 0``,
#: ``|A^T y| <= RAY_TOL |y| max|A|`` and ``b^T y < -RAY_TOL |y| (1 + max|b|)``.
RAY_TOL = 1e-9


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
        return float(np.maximum(self.A @ x - self.b, 0.0).max(initial=0.0))


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


def _feasibility_lp(poly, J):
    """A point of ``{x in poly : A_J x = b_J}`` by a phase-1 linear
    program (HiGHS), or ``None`` when it is empty.  It is the active-set
    loop's fallback: the loop's one failure exit asks it through
    ``is_empty``, and ``face_feasible_point`` asks it where the loop
    neither proves the face empty nor finds a point on it."""
    if poly.num_rows == 0:
        return np.zeros(poly.dim)
    eq = {"A_eq": poly.A[J], "b_eq": poly.b[J]} if J else {}
    res = linprog(np.zeros(poly.dim), A_ub=poly.A, b_ub=poly.b, **eq,
                  bounds=[(None, None)] * poly.dim, method="highs")
    if res.status == 2:
        return None
    if not res.success:
        raise NoCertificate(f"feasibility LP ended with status {res.status}")
    return np.asarray(res.x, dtype=float)


def face_slack(poly):
    """``FACE_TOL * (1 + max|b|)``: the slack within which a point lies in
    ``poly`` and on a face of it."""
    return FACE_TOL * (1.0 + float(np.abs(poly.b).max(initial=0.0)))


def face_feasible_point(poly, active):
    """A point of the face ``{x in poly : A_J x = b_J}``, or ``None`` when
    it is empty (see the module docstring): a checked dual ray of the
    loop, a loop point within ``face_slack``, or else HiGHS."""
    J = list(active)
    face = intersect(poly, affine_rows(poly.A[J], poly.b[J]))
    try:
        found = _dual_loop(face, np.zeros(poly.dim))
    except Infeasible:
        return None
    if found is not None and face.contains(found[0], face_slack(poly)):
        return found[0]
    return _feasibility_lp(poly, J)


def find_feasible_point(poly):
    """A point of ``poly``, or ``None`` when the polyhedron is empty."""
    return face_feasible_point(poly, ())


def is_empty(poly):
    return _feasibility_lp(poly, []) is None


def _as_point(poly, u):
    u = np.asarray(u, dtype=float)
    if u.shape != (poly.dim,):
        raise ValueError(f"point has shape {u.shape}, expected ({poly.dim},)")
    return u


def project_polyhedron(poly, u):
    """Euclidean projection of ``u`` onto a nonempty polyhedron: the
    active-set loop run once, keeping no warm-start state.  Raises
    ``Infeasible`` or ``NoCertificate`` (see the module docstring)."""
    return _project_active_set(poly, _as_point(poly, u))[0]


@dataclass(frozen=True)
class Face:
    """The face ``{x : A_J x = b_J}`` of a polyhedron, for rows J that
    ``stack`` calls independent, held through the QR ``A_J^T = Q R`` as
    ``Q``, ``mult = R^-1 Q^T``, ``mult_rhs = R^-1 R^-T b_J`` and
    ``offset = Q R^-T b_J``, and its affine projection

        x = u - A_J^T lam = u - Q Q^T u + offset,    lam = mult u - mult_rhs.

    The empty face (J empty) is the whole space.
    """

    active: tuple
    Q: np.ndarray
    mult: np.ndarray
    mult_rhs: np.ndarray
    offset: np.ndarray

    @staticmethod
    def stack(poly, sets):
        """``(independent, (Q, mult, mult_rhs, offset))`` for the row sets
        in the rows of ``sets`` (shape ``(N, k)``): one batched QR, the one
        independence rule (every ``|R_ii| > DEFAULT_RANK_TOL max(1, max|A_J|)``)
        and the arrays of the independent sets, stacked."""
        AJ = poly.A[sets]
        Q, R = np.linalg.qr(AJ.transpose(0, 2, 1))
        tol = DEFAULT_RANK_TOL * np.maximum(1.0, np.abs(AJ).max(axis=(1, 2), initial=0.0))
        independent = (np.abs(np.diagonal(R, axis1=1, axis2=2)) > tol[:, None]).all(axis=1)
        Q, R_inv = Q[independent], np.linalg.inv(R[independent])
        QT = Q.transpose(0, 2, 1)
        y = poly.b[sets[independent]][:, None] @ R_inv  # (R^-T b_J)^T
        return independent, (Q, R_inv @ QT, (y @ R_inv.transpose(0, 2, 1))[:, 0], (y @ QT)[:, 0])

    @classmethod
    def of(cls, poly, active):
        """The face of ``poly`` with active set ``active``: ``stack`` on a
        stack of one, so it agrees with the same face of any stack to the
        last bit.  Raises ``LinAlgError`` when its rows are dependent."""
        J = tuple(active)
        independent, arrays = cls.stack(poly, np.array(J, dtype=np.intp).reshape(1, len(J)))
        if not independent[0]:
            raise np.linalg.LinAlgError("dependent rows")
        return cls(J, *(a[0] for a in arrays))

    @property
    def D(self):
        """``Q Q^T``, the orthogonal projector onto the row space of A_J
        (exactly symmetric)."""
        return self.Q @ self.Q.T

    def project(self, U):
        """``(points, multipliers)``: the projection onto the face's affine
        hull of one point, or of each row of a 2-D ``U``, and its ``lam``."""
        lam = U @ self.mult.T - self.mult_rhs
        return U - (U @ self.Q) @ self.Q.T + self.offset, lam


class Projector:
    """Warm-started Euclidean projection onto one polyhedron.

    Keeps the :class:`Face` of the active set J of the last cold
    projection.  A call first tries the projection onto that face and
    returns it only if it is KKT-certified: no row violated by more
    than ``KKT_TOL * scale`` (the cold loop's feasibility slack), the
    rows of J tight to the same slack, and every multiplier ``>= 0``
    exactly (the cold loop's final multipliers may round below zero).
    Otherwise it runs the cold loop and caches the active set of that
    result.  A 2-D block of rows is projected by the same rule: every
    open row is tried on the held face, the first row that fails goes
    to the cold loop, whose face is then tried on every row still open.
    ``hits`` and ``misses`` count the two outcomes, one per row;
    ``accept`` adds a block's certified points to ``hits``.
    """

    def __init__(self, poly):
        self.poly = poly
        self.hits = 0
        self.misses = 0
        self._bmax = float(np.abs(poly.b).max(initial=0.0))
        self._cache(())

    def _cache(self, active):
        try:
            self.face = Face.of(self.poly, active)
        except np.linalg.LinAlgError:  # numerically dependent rows: no warm face
            return self._cache(())
        self.active = self.face.active
        # rows of A x <= b followed by -A_J x <= -b_J: one product tests
        # feasibility and the tightness of J
        self._C_T = np.vstack([self.poly.A, -self.poly.A[list(self.active)]]).T
        self._d = np.concatenate([self.poly.b, -self.poly.b[list(self.active)]])

    def _warm(self, U):
        """Projections onto the held face of one point, or of each row of
        a 2-D ``U``, and whether each is KKT-certified: the one acceptance
        rule of the class."""
        X, lam = self.face.project(U)
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
        """The projection of one point, or of each row of a 2-D ``u``."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 2:
            return self._block(u)
        u = _as_point(self.poly, u)
        x, ok = self._warm(u)
        if ok:
            self.hits += 1
            return x
        self.misses += 1
        x, active = _project_active_set(self.poly, u)
        self._cache(active)
        return x

    def _block(self, U):
        if U.shape[1] != self.poly.dim:
            raise ValueError(f"rows have length {U.shape[1]}, expected {self.poly.dim}")
        X = np.empty_like(U)
        open_rows = np.arange(len(U))
        while open_rows.size:
            Y, ok = self._warm(U[open_rows])
            X[open_rows[ok]] = Y[ok]
            self.hits += int(np.count_nonzero(ok))
            open_rows = open_rows[~ok]
            if open_rows.size:
                i, open_rows = open_rows[0], open_rows[1:]
                self.misses += 1
                X[i], active = _project_active_set(self.poly, U[i])
                self._cache(active)
        return X


def _project_active_set(poly, u):
    """``(point, active)``: the projection of ``u`` by the dual method of
    Goldfarb and Idnani for a unit Hessian (see the module docstring)."""
    found = _dual_loop(poly, u)
    if found is not None:
        return found
    # the one failure exit (a dead end, a ray that fails its check or a
    # rounding cycle): HiGHS decides
    if is_empty(poly):
        raise Infeasible("polyhedron is empty")
    raise NoCertificate("active-set projection did not terminate")


def _is_farkas_ray(poly, y):
    """Whether ``y`` proves ``poly`` empty, each condition to ``RAY_TOL``:
    ``y >= 0``, ``A^T y = 0`` and ``b^T y < 0``."""
    norm = float(np.linalg.norm(y))
    return bool(y.min() >= 0.0
                and np.linalg.norm(y @ poly.A) <= RAY_TOL * norm * np.abs(poly.A).max()
                and y @ poly.b < -RAY_TOL * norm * (1.0 + np.abs(poly.b).max()))


def _factor(AW):
    """``(qr, Q)``: the QR ``A_W^T = Q R``, R in the upper triangle of ``qr``
    (LAPACK, called directly: the wrappers cost more than the work)."""
    qr, tau, _, _ = lapack.dgeqrf(AW.T)
    return qr, lapack.dorgqr(qr, tau)[0]


def _solve_r(qr, d, trans=0):
    """``R^-1 d``, or ``R^-T d`` with ``trans=1``; raises ``LinAlgError`` if R is singular."""
    r, info = lapack.dtrtrs(qr, d, trans=trans)
    if info:
        raise np.linalg.LinAlgError("singular working set")
    return r


def _split(AW, a):
    """``(r, z)`` with ``a = A_W^T r + z`` and ``A_W z = 0``, for rows A_W
    of full rank, from ``_factor``."""
    qr, Q = _factor(AW)
    d = a @ Q
    return _solve_r(qr, d), a - Q @ d


def _dual_loop(poly, u):
    """The dual steps of ``_project_active_set``: ``(point, active)``,
    ``Infeasible`` carrying a checked dual ray, or ``None`` at a dead end."""
    A, b = poly.A, poly.b
    slack = KKT_TOL * (1.0 + float(np.linalg.norm(u)) + float(np.abs(b).max(initial=0.0)))
    W, lam = [], np.zeros(0)
    x = u.copy()
    try:
        with np.errstate(over="raise", invalid="raise"):
            for _ in range(50 * (poly.num_rows + 2)):
                viol = A @ x - b
                viol[W] = 0.0  # working rows are tight up to rounding
                if viol.max(initial=-math.inf) <= slack:
                    # the point u - A_W^T lam with A_W x = b_W, lam = R^-1 d
                    qr, Q = _factor(A[W])
                    d = u @ Q - _solve_r(qr, b[W], trans=1)
                    lam = _solve_r(qr, d)
                    return u - Q @ d, tuple(sorted(i for i, l in zip(W, lam) if l > 0.0))
                p = int(np.argmax(viol))
                a_p, lam_p = A[p], 0.0
                # a_p is dependent on A_W when |z| <= 1e-10 max(1, |a_p|)
                dependent_zz = 1e-20 * max(1.0, a_p @ a_p)
                while True:  # dual steps on row p: each one adds p or drops a row of W
                    r, z = _split(A[W], a_p) if W else (np.zeros(0), a_p)
                    blocking = np.flatnonzero(r > 0.0)
                    steps = lam[blocking] / r[blocking]
                    partial = steps.min(initial=math.inf)
                    dependent = z @ z <= dependent_zz
                    if dependent and not blocking.size:
                        y = np.zeros(len(b))
                        y[W], y[p] = -r, 1.0
                        if _is_farkas_ray(poly, y):
                            raise Infeasible("checked dual ray: the polyhedron is empty", ray=y)
                        return None
                    full = math.inf if dependent else (a_p @ x - b[p]) / (z @ z)
                    t = min(partial, full)
                    if not dependent:
                        x = x - t * z
                    lam, lam_p = np.maximum(lam - t * r, 0.0), lam_p + t
                    if full <= partial:
                        W.append(p)
                        lam = np.append(lam, lam_p)
                        break
                    j = int(blocking[np.argmin(steps)])
                    del W[j]
                    lam = np.delete(lam, j)
    except (np.linalg.LinAlgError, FloatingPointError):
        pass  # a singular working set or an overflowing step: a dead end
    return None
