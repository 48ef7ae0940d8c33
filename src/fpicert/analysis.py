"""Piecewise-affine decomposition of the splitting residual map on
linear and quadratic programs, with the certified quantities built on it:
per-piece relative Hoffman bounds, the operator-level error-bound
constant, the fixed-point set as one polyhedron, and the distance to it.

The residual map ``x - F(x)`` of the Douglas-Rachford operator on
``min c'x (+ 0.5 x'Qx)  s.t.  A x <= b`` is affine on each region

    P_J = X_J + A_J^T R_+^{|J|},      X_J = {x in X : A_J x = b_J},

indexed by the active sets J with independent rows and nonempty face.
One enumeration body walks those faces (desk scale: the row count is
capped), factoring each size's candidates once with ``Face.stack``, and
builds their pieces from those arrays in stacks of one size, with
``operators.dr_piece`` and one ``spectral_summary`` per stack.  The
iterated DR step takes its face from ``Face.of`` and its map from
``dr_piece``, both on a stack of one, so its bits are the pieces'.
``enumerate_pieces_lp`` and ``enumerate_pieces_qp`` only supply the
affine prox ``prox_g(x) = W x - h`` of their objective.  The remaining
functions consume the pieces.  ``FixedPointSetDescription.distance`` is
the one distance to the fixed-point set, from one point or from each
row of a 2-D block.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import EmptyFixedSet, Infeasible, NoFixedPoints, TooLarge
from .linalg import spectral_summary
from .operators import dr_piece
from .polyhedra import (KKT_TOL, Face, Polyhedron, Projector, affine_rows,
                        face_feasible_point, face_slack, find_feasible_point,
                        intersect, project_polyhedron)
from .prox import linear, prox_map, quadratic

#: Hard cap on constraint rows for active-set enumeration.
MAX_ENUM_ROWS = 16

#: Residual tolerance certifying a point as a zero of an affine map.
ZERO_CERT_TOL = 1e-8

#: Slack for region-membership tests.
REGION_TOL = 1e-9

#: Rows times zero sets per zero-set test in ``FixedPointSetDescription.distance``.
DISTANCE_CHUNK = 4096

#: Row sets per stacked solve: the bases of ``_basic_points`` and the
#: faces of one size in ``_enumerate_pieces``.
BASIS_CHUNK = 2048


@dataclass(frozen=True)
class ActiveSetPiece:
    """One affine piece ``x -> M x - v`` of a residual map, valid on the
    region of points whose projection onto X lands on ``face``.

    ``region`` is the explicit inequality description of that region,
    built on first use; membership is equivalently certified by
    nonnegative face multipliers plus feasibility of the face
    projection, which is what ``contains`` evaluates.  ``hoffman_bound``
    is ``1 / sigma_min_plus(M)``, an upper bound on the Hoffman constant
    of the map relative to its region, and 0.0 for the zero map (whose
    region consists entirely of zeros whenever it is used).
    ``sigma_min_plus``, ``rank`` and ``zero`` come from the SVD of ``M``
    in its stack's ``spectral_summary``: ``zero`` is the least-norm
    solution of ``M x = v``, or ``None`` when its residual exceeds
    ``ZERO_CERT_TOL * (1 + ||v||)`` (the system has no solution), and
    ``zero_in_region`` is ``contains(zero, ZERO_CERT_TOL)`` (False
    without a zero).  The arrays are views into their stack's.
    """

    face: Face
    M: np.ndarray
    v: np.ndarray
    hoffman_bound: float
    sigma_min_plus: float
    rank: int
    zero: np.ndarray | None
    zero_in_region: bool
    source: Polyhedron

    @property
    def active(self):
        return self.face.active

    @property
    def dim(self):
        return self.M.shape[1]

    @cached_property
    def region(self):
        """The region as a polyhedron: the face projection lies in X,
        ``A (I - D) x <= b - A pinv(A_J) b_J`` (rows that vanish
        dropped), and the face multipliers are nonnegative.  The free
        piece's region is X itself."""
        if not self.active:
            return self.source
        X, face = self.source, self.face
        C1 = X.A @ (np.eye(self.dim) - face.D)
        d1 = X.b - X.A @ face.offset
        keep = np.abs(C1).max(axis=1) > 1e-12
        return Polyhedron(np.vstack([C1[keep], -face.mult]),
                          np.concatenate([d1[keep], -face.mult_rhs]))

    def residual(self, x):
        return self.M @ x - self.v

    def contains(self, x, tol=REGION_TOL):
        """Region membership of one point or of each row of a 2-D ``x``
        (``_in_region``)."""
        face = self.face
        return _in_region(self.source, face.Q, face.mult, face.mult_rhs, face.offset,
                          np.asarray(x, dtype=float), tol)


def _in_region(X, Q, mult, mult_rhs, offset, x, tol):
    """Region membership of points ``x`` on faces of ``X`` held as
    ``Face`` arrays: the face multipliers ``>= -tol * scale`` and the
    face projection in ``X`` within the same slack, ``scale = 1 +
    ||x||``.  One face takes one point or one per row of ``x``; a stack
    of faces takes one point per face."""
    slack = tol * (1.0 + np.sqrt(np.square(x).sum(axis=-1)))
    lam = (mult @ x[..., None])[..., 0] - mult_rhs
    points = x - (Q @ (np.swapaxes(Q, -1, -2) @ x[..., None]))[..., 0] + offset
    return X.contains(points, slack) & (lam.min(axis=-1, initial=np.inf) >= -slack)


def _basic_points(X, slack):
    """The basic points ``pinv(A_J) b_J`` over the independent row sets J
    of size ``rank(A)`` that lie in X within ``slack``, as rows.

    Each minimal face of X is ``{A_I x = b_I}`` with ``rank(A_I) =
    rank(A)``, so it holds the basic point of every independent
    ``rank(A)``-subset of I; every nonempty face contains a minimal face.
    ``rank(A)`` is the largest size with an independent set, and a basic
    point is the ``offset`` of its face, both from ``Face.stack`` in
    stacks of ``BASIS_CHUNK``.  A point is kept only for lying in X
    within ``slack``, so an inexact basis costs a call of
    ``face_feasible_point`` later or hits a face only within that slack.
    """
    m, n = X.num_rows, X.dim
    for k in range(min(m, n), 0, -1):
        sets = np.array(list(combinations(range(m), k)), dtype=np.intp)
        points = np.concatenate([Face.stack(X, sets[start:start + BASIS_CHUNK])[1][-1]
                                 for start in range(0, len(sets), BASIS_CHUNK)])
        if len(points):  # one offset per independent set
            return points[X.contains(points, slack)]
    return np.zeros((0, n))


def _enumerate_faces(X):
    """The nonempty faces X_J with independent rows J, one ``(sets,
    arrays)`` per size from the empty face up: the active sets as rows
    of ``sets``, in order, and their stacked ``Face.stack`` arrays.

    A face is certified nonempty by a stored point of X that hits it:
    the point lies in X and ``|A_J x - b_J|`` is within
    ``polyhedra.face_slack``.  The store starts with the basic feasible
    points (``_basic_points``), which hit every nonempty face.  A face
    they miss goes to ``face_feasible_point``: the active-set projection
    loop proves it empty with a checked Farkas ray, or returns a point
    that lies on it, and HiGHS decides only where the loop settles
    nothing.  A point it returns settles its face; it joins the store,
    and so hits other faces, only if it lies in X within the slack,
    which a HiGHS point need not.  When no basic point is feasible
    (rank(A) = 0, or roundoff kept every one out), the store starts from
    ``find_feasible_point``, which also decides that X is empty.

    The walk goes level by level: the candidates of size k are the sets
    whose every (k-1)-subset is a face, since a set with an empty subset
    is empty and one with a dependent subset is dependent.  A level
    needs one ``Face.stack``, for independence and the arrays, and its
    hit test reads a table over all ``2^m`` row sets that marks each
    subset of some point's tight rows.
    """
    m, n = X.num_rows, X.dim
    if m > MAX_ENUM_ROWS:
        raise TooLarge(f"{m} rows exceed the enumeration budget of "
                       f"{MAX_ENUM_ROWS}")
    slack = face_slack(X)
    points = _basic_points(X, slack)
    if not len(points):
        point = find_feasible_point(X)
        if point is None:
            raise Infeasible("the constraint polyhedron is empty")
        points = point[None] if X.contains(point, slack) else np.zeros((0, n))
    bits = 1 << np.arange(m)
    row_sets = np.arange(1 << m)

    def tight_masks(points):
        return (np.abs(points @ X.A.T - X.b) <= slack) @ bits

    # hit[S]: the row set S is tight at some stored point
    hit = np.zeros(1 << m, dtype=bool)
    hit[tight_masks(points)] = True
    for i in range(m):
        # S without row i is hit wherever S with row i is
        halves = hit.reshape(-1, 2, 1 << i)
        halves[:, 0] |= halves[:, 1]

    is_face = np.zeros(1 << m, dtype=bool)
    is_face[0] = True
    level = np.zeros((1, 0), dtype=np.intp)   # faces of size k-1, in order
    levels = [(level, Face.stack(X, level)[1])]
    for k in range(1, min(m, n) + 1):
        # extend each face by a later row: candidates come out in order
        last = level[:, -1] if k > 1 else np.full(len(level), -1)
        f, j = np.nonzero(np.arange(m) > last[:, None])
        cand = np.hstack([level[f], j[:, None]])
        masks = bits[cand].sum(axis=1)
        # dropping the last row gives level[f], a face already
        whole = is_face[masks[:, None] ^ bits[cand[:, :-1]]].all(axis=1)
        cand, masks = cand[whole], masks[whole]
        if not len(cand):
            break
        independent, arrays = Face.stack(X, cand)
        cand, masks = cand[independent], masks[independent]
        nonempty = hit[masks]
        for i in np.flatnonzero(~nonempty):
            if hit[masks[i]]:   # hit by a point found earlier in this level
                nonempty[i] = True
                continue
            w = face_feasible_point(X, tuple(cand[i].tolist()))
            if w is not None:
                nonempty[i] = True
                if X.contains(w, slack):
                    hit[(row_sets & tight_masks(w)) == row_sets] = True
        level = cand[nonempty]
        is_face[masks[nonempty]] = True
        levels.append((level, tuple(a[nonempty] for a in arrays)))
    return levels


def _enumerate_pieces(X, W, h, alpha):
    """One piece per face of X: the DR residual map ``dr_piece`` gives
    on that face, with ``prox_g(x) = W x - h``, built by ``_piece_stack``
    on the faces of each size in stacks of at most ``BASIS_CHUNK``."""
    pieces = []
    for sets, arrays in _enumerate_faces(X):
        for start in range(0, len(sets), BASIS_CHUNK):
            chunk = slice(start, start + BASIS_CHUNK)
            pieces += _piece_stack(X, W, h, alpha, sets[chunk], [a[chunk] for a in arrays])
    return pieces


def _piece_stack(X, W, h, alpha, sets, faces):
    """The pieces of the faces with the active sets in the rows of
    ``sets`` and the walk's stacked ``Face.stack`` arrays ``faces``: one
    ``dr_piece`` and one ``spectral_summary`` for all of them.  The
    projectors ``D = Q Q^T`` and the SVD's ``U``, which serves the
    least-norm zeros only, go with the stack."""
    Q, mult, mult_rhs, offset = faces
    M, v = dr_piece(W, h, alpha, Q @ Q.transpose(0, 2, 1), offset)
    svd = spectral_summary(M)
    sigma = svd.sigma_min_plus
    zero = svd.least_norm_solution(v)
    residual = (M @ zero[..., None])[..., 0] - v
    solvable = (np.linalg.norm(residual, axis=1)
                <= ZERO_CERT_TOL * (1.0 + np.linalg.norm(v, axis=1)))
    inside = solvable & _in_region(X, *faces, zero, ZERO_CERT_TOL)
    hoffman = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma != 0.0)
    return [ActiveSetPiece(face=Face(J, *arrays), M=Mi, v=vi, hoffman_bound=bound,
                           sigma_min_plus=s, rank=r, zero=x0 if ok else None,
                           zero_in_region=ins, source=X)
            for J, *arrays, Mi, vi, bound, s, r, x0, ok, ins in zip(
                map(tuple, sets.tolist()), *faces, M, v, hoffman.tolist(),
                sigma.tolist(), svd.rank.tolist(), zero, solvable.tolist(),
                inside.tolist())]


def enumerate_pieces_lp(X, c, gamma, alpha):
    """Pieces of the residual map of the Douglas-Rachford operator for
    ``min c'x s.t. x in X``: ``prox_g(x) = x - g c``, so on each region
    ``M = 2a pinv(A_J) A_J`` and ``v = 2a (pinv(A_J) b_J - g c)``."""
    return _enumerate_pieces(X, *prox_map(linear(c), gamma).affine, alpha)


def enumerate_pieces_qp(X, Q, c, gamma, alpha):
    """Pieces of the residual map of the Douglas-Rachford operator for
    ``min 0.5 x'Qx + c'x s.t. x in X``: ``prox_g(x) = W x - h`` with
    ``W = inv(g Q + I)``, ``h = W g c`` (see ``dr_piece``)."""
    return _enumerate_pieces(X, *prox_map(quadratic(Q, c), gamma).affine, alpha)


@dataclass(frozen=True)
class FixedPointSetDescription:
    """The fixed-point set as one polyhedron ``poly``, with one
    representative point, the pieces whose region meets it (none for a
    point set), their affine zero sets ``{B x = e}`` (orthonormal rows
    B) as ``(B, e)`` pairs and the orthonormal null bases of their maps
    (columns, from the SVD that gave B).
    """

    pieces: tuple
    poly: Polyhedron
    zero_sets: tuple
    representative: np.ndarray
    null_bases: tuple = ()

    @cached_property
    def projector(self):
        """Warm-started projection onto ``poly``."""
        return Projector(self.poly)

    @cached_property
    def _stacked_zero_sets(self):
        """``B'B`` and ``B'e`` of every zero set, stacked; ``||B'B x - B'e||
        = ||B x - e||`` for orthonormal rows B."""
        return (np.stack([B.T @ B for B, _ in self.zero_sets]),
                np.stack([B.T @ e for B, e in self.zero_sets]))

    def _nearest_zero_set(self, xs):
        """For each row of ``xs``: the distance to the nearest zero set
        (the first on ties), a lower bound on the distance to the set, and
        whether the projection there lies in ``poly`` within
        ``KKT_TOL * (1 + ||z||)``, which makes it exact.  ``||B x - e||``
        over all sets at once picks, within roundoff, the sets to project on."""
        P, c = self._stacked_zero_sets
        # skips the projections onto far zero sets; lp-n6-m12-s14's fixed set has 345
        bound = np.linalg.norm(xs @ P - c[:, None, :], axis=2)
        near = bound <= bound.min(axis=0) + 1e-12 * (1.0 + np.linalg.norm(xs, axis=1))
        lower = np.full(xs.shape[0], np.inf)
        nearest = np.empty_like(xs)
        for i in np.flatnonzero(near.any(axis=1)):
            Bi, ei = self.zero_sets[i]
            Z = xs - (xs @ Bi.T - ei) @ Bi
            d = np.linalg.norm(xs - Z, axis=1)
            closer = near[i] & (d < lower)
            lower[closer] = d[closer]
            nearest[closer] = Z[closer]
        slack = KKT_TOL * (1.0 + np.linalg.norm(nearest, axis=1))
        return lower, self.poly.contains(nearest, slack)

    def distance(self, x):
        """Distance to the set from one point, or from each row of a 2-D
        ``x``.  The zero-set test runs on equal chunks of at most
        ``DISTANCE_CHUNK`` rows per zero set; a row it settles is at the
        nearest zero set's distance, and every row it leaves open goes
        through one block projection onto ``poly``."""
        x = np.asarray(x, dtype=float)
        xs = x.reshape(-1, x.shape[-1])
        out = np.empty(len(xs))
        inside = np.empty(len(xs), dtype=bool)
        chunks = -(-len(xs) * len(self.zero_sets) // DISTANCE_CHUNK)
        for rows in np.array_split(np.arange(len(xs)), max(1, chunks)):
            out[rows], inside[rows] = self._nearest_zero_set(xs[rows])
        far = xs[~inside]
        out[~inside] = np.linalg.norm(far - self.projector(far), axis=1)
        return out if x.ndim == 2 else float(out[0])


def point_fixed_set(x):
    """Fixed-set description for the singleton {x}, also used with a
    converged limit as a distance proxy (an upper bound)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return FixedPointSetDescription(pieces=(), poly=affine_rows(np.eye(n), x),
                                    zero_sets=((np.eye(n), x.copy()),),
                                    representative=x.copy())


def fixed_point_set(pieces):
    """Certified description of the zero set of the Douglas-Rachford
    residual map with the pieces ``pieces`` (``enumerate_pieces_lp/qp``).

    Each piece's ``zero`` is projected onto (zero set) intersect
    (region); the piece meets the fixed-point set only if that projection
    exists and its residual under the affine map stays below
    ``ZERO_CERT_TOL``.  Raises ``NoFixedPoints`` when every intersection
    is empty.

    The set is ``Opt - s``: with ``w`` the first certified point and ``p``
    its face projection, ``s = p - w`` is gamma times the objective
    gradient, which is constant on the optimal set ``Opt``.  That is
    ``{A x <= b - A s, R x = R w, s'x <= s'w}`` with rows R spanning
    ``Range(Q)``, the row space of the free piece's M (none for an LP).
    """
    certified = []
    for piece in pieces:
        x0, inside = piece.zero, piece.zero_in_region
        if x0 is None:
            continue  # M x = v has no solution at all
        if not inside and piece.rank == piece.dim:
            continue  # the zero set is the single point x0, outside the region
        svd = spectral_summary(piece.M)
        B = svd.row_basis
        e = B @ x0
        z = x0
        if not inside:
            try:
                z = project_polyhedron(intersect(piece.region, affine_rows(B, e)), x0)
            except Infeasible:
                continue
        if np.linalg.norm(piece.residual(z)) > ZERO_CERT_TOL * (1.0 + np.linalg.norm(z)):
            continue
        certified.append((piece, (B, e), z, svd.null_basis))
    if not certified:
        raise NoFixedPoints("no piece region meets the zero set of its "
                            "affine map (the problem has no optimum)")
    fixed, zero_sets, witnesses, null_bases = zip(*certified)
    first, w = fixed[0], witnesses[0]
    s = first.face.project(w)[0] - w
    R = spectral_summary(next(p for p in pieces if not p.active).M).row_basis
    X = first.source
    poly = intersect(Polyhedron(X.A, X.b - X.A @ s), affine_rows(R, R @ w),
                     Polyhedron(s[None, :], [s @ w]))
    return FixedPointSetDescription(pieces=fixed, poly=poly, zero_sets=zero_sets,
                                    representative=w.copy(), null_bases=null_bases)


def error_bound_constant(pieces, fixset):
    """Operator-level error-bound constant: the largest per-piece
    Hoffman bound among pieces whose region meets the fixed-point set.

    A region meets the fixed-point set exactly when the piece's own zero
    set does (pieces agree on overlaps), so the certified pieces of
    ``fixset`` identify the relevant maximum.
    """
    if fixset is None or not fixset.pieces:
        raise EmptyFixedSet("error-bound constant needs the pieces that "
                            "meet the fixed-point set")
    return max(p.hoffman_bound for p in fixset.pieces)


def estimate_min_residual(piece):
    """Sampled upper bound on ``inf ||M x - v||`` over the region of a
    piece: a minimum over the projections onto the region of 16 seeded
    normal points of scale 5 (used to report the radius on which the
    error bound is in force for pieces that miss the fixed-point set).

    The infimum itself is a structured polyhedral problem we do not
    solve exactly; the returned value is labeled as a sampled upper
    bound wherever it is surfaced.
    """
    rng = np.random.default_rng(0)
    n = piece.dim
    best = np.inf
    for _ in range(16):
        u = 5.0 * rng.standard_normal(n)
        x = project_polyhedron(piece.region, u)
        best = min(best, float(np.linalg.norm(piece.residual(x))))
    return best
