from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpicert import analysis, engine, problems, rates
from fpicert.analysis import (enumerate_pieces_lp, enumerate_pieces_qp,
                              error_bound_constant, estimate_min_residual,
                              fixed_point_set, point_fixed_set)
from fpicert.errors import EmptyFixedSet, Infeasible, NoFixedPoints, TooLarge
from fpicert.linalg import (condition_number_plus, lambda_max_psd,
                            spectral_summary)
from fpicert.operators import make_dr
from fpicert.polyhedra import (KKT_TOL, Polyhedron, affine_rows,
                               face_feasible_point, find_feasible_point,
                               intersect, project_polyhedron, whole_space)

# canonical one-dimensional instance: min x over x >= 0, optimum 0;
# the splitting operator's fixed point is w = -gamma
X1 = Polyhedron(np.array([[-1.0]]), np.array([0.0]))
C1 = np.array([1.0])


def test_one_dimensional_lp_pieces():
    pieces = enumerate_pieces_lp(X1, C1, gamma=1.0, alpha=0.5)
    assert [p.active for p in pieces] == [(), (0,)]
    free, active = pieces
    assert np.allclose(free.M, 0.0)
    assert np.allclose(free.v, -1.0)  # -2*alpha*gamma*c
    assert free.hoffman_bound == 0.0
    assert active.hoffman_bound == pytest.approx(1.0)


def test_one_dimensional_lp_fixed_point():
    pieces = enumerate_pieces_lp(X1, C1, gamma=1.0, alpha=0.5)
    fs = fixed_point_set(pieces)
    assert fs.representative == pytest.approx(-1.0)
    assert len(fs.pieces) == 1
    assert fs.pieces[0].active == (0,)
    assert error_bound_constant(pieces, fs) == pytest.approx(1.0)
    # cross-check by iterating the operator itself
    f, g = problems.split_functions(
        problems.ProblemInstance(kind="lp", c=C1, X=X1))
    op, extraction = make_dr(f, g, 1.0, 0.5)
    tr = engine.iterate(op, np.array([4.0]), residual_tol=1e-13)
    assert tr.limit == pytest.approx(-1.0)
    assert extraction(tr.limit) == pytest.approx(0.0)


def test_free_space_lp_has_single_piece_and_no_fixed_points():
    pieces = enumerate_pieces_lp(whole_space(2), np.array([1.0, 0.0]),
                                 gamma=1.0, alpha=0.5)
    assert len(pieces) == 1 and pieces[0].active == ()
    assert np.allclose(pieces[0].M, 0.0)
    assert np.allclose(pieces[0].v, [-1.0, 0.0])
    with pytest.raises(NoFixedPoints):
        fixed_point_set(pieces)


def test_zero_objective_makes_feasible_set_fixed():
    pieces = enumerate_pieces_lp(X1, np.zeros(1), gamma=1.0, alpha=0.5)
    fs = fixed_point_set(pieces)
    # every feasible point (x >= 0) is optimal and fixed
    assert fs.distance(np.array([3.0])) <= 1e-9
    assert fs.distance(np.array([0.5])) <= 1e-9


def test_unbounded_orientation_has_no_fixed_points():
    # min x over x <= 0 is unbounded below: no piece certifies
    X = Polyhedron(np.array([[1.0]]), np.array([0.0]))
    pieces = enumerate_pieces_lp(X, np.array([1.0]), gamma=1.0, alpha=0.5)
    with pytest.raises(NoFixedPoints):
        fixed_point_set(pieces)


def test_enumeration_budget():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((20, 2))
    b = A @ np.zeros(2) + 1.0
    with pytest.raises(TooLarge):
        enumerate_pieces_lp(Polyhedron(A, b), np.ones(2), 1.0, 0.5)


def test_enumeration_rejects_empty_set():
    X = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    with pytest.raises(Infeasible):
        enumerate_pieces_lp(X, np.ones(1), 1.0, 0.5)


def _faces_one_lp_per_face(X):
    """Reference face enumeration: every row subset in order of size,
    skipping supersets of empty faces and dependent sets; a subset is a
    face when a point found so far hits it or a feasibility LP finds
    one."""
    m, n = X.num_rows, X.dim
    seed_point = find_feasible_point(X)
    if seed_point is None:
        raise Infeasible("the constraint polyhedron is empty")
    witnesses = seed_point[None, :]
    empties = []
    scale = 1.0 + float(np.abs(X.b).max(initial=0.0))
    faces = [()]
    for k in range(1, min(m, n) + 1):
        for J in combinations(range(m), k):
            if any(e <= frozenset(J) for e in empties):
                continue
            AJ = X.A[list(J)]
            if np.linalg.matrix_rank(AJ.T, tol=1e-10 * max(1.0, np.abs(AJ).max())) < k:
                continue
            bJ = X.b[list(J)]
            if not (np.abs(witnesses @ AJ.T - bJ).max(axis=1) <= 1e-9 * scale).any():
                w = face_feasible_point(X, J)
                if w is None:
                    empties.append(frozenset(J))
                    continue
                witnesses = np.vstack([witnesses, w])
            faces.append(J)
    return faces


def _acceptance_instances():
    """The 20 acceptance LPs (seeds 0-19) and 20 acceptance QPs (seeds
    100-119)."""
    lp_cases = [(2, 4), (3, 6), (4, 8), (5, 10), (6, 12)] * 4
    qp_cases = [(2, 4, 1), (3, 6, 2), (4, 8, 3), (5, 10, 4), (3, 6, 3)] * 4
    instances = [problems.generate_lp(n, m, seed)[0]
                 for seed, (n, m) in enumerate(lp_cases)]
    return instances + [problems.generate_qp(n, m, r, 100 + i)[0]
                        for i, (n, m, r) in enumerate(qp_cases)]


def _dr_pieces(inst):
    """Pieces of the acceptance operator: alpha = 1/2, gamma = 1 for an
    LP and gamma * lambda_max(Q) = 1/2 for a QP."""
    if inst.kind == "lp":
        return enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.5)
    return enumerate_pieces_qp(inst.X, inst.Q, inst.c,
                               0.5 / lambda_max_psd(inst.Q), 0.5)


def test_piece_rank_and_zero_match_lstsq_on_acceptance_problems():
    # one SVD per piece: its rank is the 1e-10 * sigma_max rule and its
    # zero exists exactly when lstsq solves M x = v, at the same point
    for inst in _acceptance_instances():
        for piece in _dr_pieces(inst):
            svals = np.linalg.svd(piece.M, compute_uv=False)
            assert piece.rank == np.count_nonzero(svals > 1e-10 * svals[0])
            x0 = np.linalg.lstsq(piece.M, piece.v, rcond=None)[0]
            scale = 1.0 + np.linalg.norm(piece.v)
            solvable = np.linalg.norm(piece.M @ x0 - piece.v) <= analysis.ZERO_CERT_TOL * scale
            assert (piece.zero is not None) == solvable, (inst.name, piece.active)
            if solvable:
                assert np.linalg.norm(piece.zero - x0) <= 1e-9 * (1.0 + np.linalg.norm(x0))


def test_faces_match_the_per_face_loop_on_acceptance_problems():
    for inst in _acceptance_instances():
        assert analysis._enumerate_faces(inst.X) == _faces_one_lp_per_face(inst.X)


@st.composite
def degenerate_polyhedra(draw):
    """Random rows around a point at which some are tight, with paired
    equality rows, duplicate rows, columns no row uses (a lineality
    space) and, optionally, a pair of contradicting rows."""
    n = draw(st.integers(2, 4))
    rows = draw(st.integers(1, 5))
    pairs = draw(st.integers(0, min(2, rows)))
    duplicates = draw(st.integers(0, 2))
    unused = draw(st.integers(0, n - 1))
    empty = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((rows, n))
    A[:, :unused] = 0.0
    x0 = rng.standard_normal(n)
    slack = rng.uniform(0.0, 1.0, rows) * (rng.random(rows) < 0.5)
    slack[:pairs] = 0.0
    b = A @ x0 + slack
    A, b = np.vstack([A, -A[:pairs]]), np.concatenate([b, -b[:pairs]])
    copies = rng.integers(0, len(b), duplicates)
    A, b = np.vstack([A, A[copies]]), np.concatenate([b, b[copies]])
    if empty:
        a = rng.standard_normal(n)
        A, b = np.vstack([A, a, -a]), np.concatenate([b, [-1.0, -1.0]])
    order = rng.permutation(len(b))
    return Polyhedron(A[order], b[order]), empty


@settings(max_examples=40, deadline=None)
@given(degenerate_polyhedra())
def test_faces_match_the_per_face_loop_on_degenerate_rows(case):
    X, empty = case
    if empty:
        with pytest.raises(Infeasible):
            analysis._enumerate_faces(X)
    else:
        assert analysis._enumerate_faces(X) == _faces_one_lp_per_face(X)


def test_lazy_region_equals_the_explicit_formula():
    inst, _ = problems.generate_qp(4, 8, 3, 102)
    X, n = inst.X, inst.X.dim
    pieces = enumerate_pieces_qp(X, inst.Q, inst.c, 0.5 / lambda_max_psd(inst.Q), 0.5)
    assert not any("region" in vars(p) for p in pieces)
    for p in pieces:
        if not p.active:
            assert p.region is X
            continue
        AJ, bJ = X.A[list(p.active)], X.b[list(p.active)]
        gram_inv = np.linalg.inv(AJ @ AJ.T)
        C1 = X.A @ (np.eye(n) - AJ.T @ (gram_inv @ AJ))
        d1 = X.b - X.A @ (AJ.T @ (gram_inv @ bJ))
        keep = np.abs(C1).max(axis=1) > 1e-12
        assert np.array_equal(p.region.A, np.vstack([C1[keep], -(gram_inv @ AJ)]))
        assert np.array_equal(p.region.b, np.concatenate([d1[keep], -(gram_inv @ bJ)]))
        assert p.region is p.region


def test_qp_pieces_reduce_to_lp_at_zero_curvature():
    inst, _ = problems.generate_lp(3, 6, seed=1)
    lp = enumerate_pieces_lp(inst.X, inst.c, 0.7, 0.4)
    qp = enumerate_pieces_qp(inst.X, np.zeros((3, 3)), inst.c, 0.7, 0.4)
    assert [p.active for p in lp] == [p.active for p in qp]
    for a, b in zip(lp, qp):
        assert np.allclose(a.M, b.M, atol=1e-12)
        assert np.allclose(a.v, b.v, atol=1e-12)


def test_qp_unconstrained_piece_fixed_points_solve_stationarity():
    rng = np.random.default_rng(2)
    G = rng.standard_normal((3, 3))
    Q = G @ G.T + 0.2 * np.eye(3)
    c = rng.standard_normal(3)
    gamma = 0.4 / lambda_max_psd(Q)
    pieces = enumerate_pieces_qp(whole_space(3), Q, c, gamma, 0.5)
    assert len(pieces) == 1
    W = np.linalg.inv(gamma * Q + np.eye(3))
    assert np.allclose(pieces[0].M, 2 * 0.5 * (np.eye(3) - W), atol=1e-12)
    fs = fixed_point_set(pieces)
    xstar = np.linalg.solve(Q, -c)
    # fixed point w satisfies prox(w) = xstar; here prox is the identity
    # for f = indicator of R^n... the constraint-free split uses f = 0, so
    # the fixed points coincide with the stationary points shifted by the
    # residual map; check G(w) = 0 implies W(w - gamma c) solves Qx = -c
    w = fs.representative
    x = W @ (w - gamma * c)
    assert np.allclose(Q @ x, -c, atol=1e-8)


def _piece_part(piece, B, e):
    """The fixed points on one piece: its zero set {B x = e} intersected
    with its region."""
    return intersect(piece.region, affine_rows(B, e))


def _sample_region_point(rng, piece, scale=3.0):
    u = scale * rng.standard_normal(piece.dim)
    return project_polyhedron(piece.region, u)


def test_lp_pieces_agree_with_operator_residual():
    inst, _ = problems.generate_lp(3, 7, seed=3)
    gamma, alpha = 0.9, 0.3
    pieces = enumerate_pieces_lp(inst.X, inst.c, gamma, alpha)
    f, g = problems.split_functions(inst)
    op, _ = make_dr(f, g, gamma, alpha)
    rng = np.random.default_rng(4)
    for piece in pieces[::3]:
        for _ in range(3):
            x = _sample_region_point(rng, piece)
            assert np.linalg.norm(piece.residual(x) - (x - op.evaluate(x))) \
                <= 1e-9 * (1 + np.linalg.norm(x))


def test_qp_pieces_agree_with_operator_residual():
    inst, _ = problems.generate_qp(3, 6, 2, seed=5)
    gamma = 0.5 / lambda_max_psd(inst.Q)
    pieces = enumerate_pieces_qp(inst.X, inst.Q, inst.c, gamma, 0.5)
    f, g = problems.split_functions(inst)
    op, _ = make_dr(f, g, gamma, 0.5)
    rng = np.random.default_rng(6)
    for piece in pieces[::3]:
        for _ in range(3):
            x = _sample_region_point(rng, piece)
            assert np.linalg.norm(piece.residual(x) - (x - op.evaluate(x))) \
                <= 1e-9 * (1 + np.linalg.norm(x))


def test_regions_cover_space_and_agree_on_overlaps():
    inst, _ = problems.generate_lp(3, 6, seed=7)
    pieces = enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.5)
    rng = np.random.default_rng(8)
    for _ in range(40):
        x = 4 * rng.standard_normal(3)
        holders = [p for p in pieces if p.contains(x, tol=1e-9)]
        assert holders, "sampled point not covered by any region"
        vals = [p.residual(x) for p in holders]
        for v in vals[1:]:
            assert np.linalg.norm(v - vals[0]) <= 1e-8


def test_region_tests_take_one_point_or_one_per_row():
    inst, _ = problems.generate_lp(3, 6, seed=7)
    pieces = enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.5)
    rng = np.random.default_rng(8)
    xs = 4 * rng.standard_normal((100, 3))
    for p in pieces:
        assert p.contains(xs).tolist() == [bool(p.contains(x)) for x in xs]
    tols = rng.uniform(0.0, 2.0, size=100)
    rows = inst.X.contains(xs, tols)
    assert rows.tolist() == [bool(inst.X.contains(x, t)) for x, t in zip(xs, tols)]
    assert 0 < rows.sum() < 100
    assert whole_space(3).contains(xs).all() and whole_space(3).contains(xs[0])


def test_boundary_points_shared_by_parent_and_child_pieces():
    # drop one active multiplier to zero: the point lies in both regions
    inst, _ = problems.generate_lp(3, 6, seed=9)
    pieces = {p.active: p for p in enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.5)}
    rng = np.random.default_rng(10)
    checked = 0
    for active, piece in pieces.items():
        if len(active) < 2:
            continue
        child_active = active[1:]
        if child_active not in pieces:
            continue
        child = pieces[child_active]
        # force the dropped row's multiplier to zero inside the region
        from fpicert.polyhedra import affine_rows, intersect
        extra = affine_rows(piece.face.mult[:1], piece.face.mult_rhs[:1])
        try:
            x = project_polyhedron(intersect(piece.region, extra),
                                   rng.standard_normal(3))
        except Infeasible:
            continue
        if not (piece.contains(x, 1e-8) and child.contains(x, 1e-8)):
            continue
        assert np.linalg.norm(piece.residual(x) - child.residual(x)) <= 1e-8
        checked += 1
        if checked >= 3:
            break
    assert checked > 0


def test_lp_hoffman_bounds_are_inverse_two_alpha():
    inst, _ = problems.generate_lp(2, 5, seed=11)
    for alpha, expect in ((0.5, 1.0), (0.25, 2.0)):
        pieces = enumerate_pieces_lp(inst.X, inst.c, 1.0, alpha)
        for p in pieces:
            if p.active:
                assert p.hoffman_bound == pytest.approx(expect, abs=1e-9)
    fs = fixed_point_set(enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.25))
    K = error_bound_constant(enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.25), fs)
    assert K == pytest.approx(2.0, abs=1e-9)


def test_lp_sampled_ratio_within_piece_bound():
    # dist(x, zeros within region) / ||residual|| <= 1/sigma_min_plus
    inst, _ = problems.generate_lp(3, 6, seed=12)
    pieces = enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.5)
    fs = fixed_point_set(pieces)
    rng = np.random.default_rng(13)
    for piece, (B, e) in zip(fs.pieces, fs.zero_sets):
        part = _piece_part(piece, B, e)
        for _ in range(10):
            x = _sample_region_point(rng, piece)
            r = np.linalg.norm(piece.residual(x))
            if r <= 1e-12:
                continue
            dist = np.linalg.norm(x - project_polyhedron(part, x))
            assert dist / r <= piece.hoffman_bound + 1e-6


def test_qp_dominance_holds_for_full_rank_curvature():
    # with full-rank Q every piece map has rank(M) = n and the closed-form
    # certificate dominates the computed per-piece bound
    for seed in range(4):
        inst, _ = problems.generate_qp(3, 6, 3, seed=seed, kappa_plus=3.0)
        lam_max = lambda_max_psd(inst.Q)
        kappa = condition_number_plus(inst.Q)
        gamma = 0.5 / lam_max
        pieces = enumerate_pieces_qp(inst.X, inst.Q, inst.c, gamma, 0.5)
        cert = rates.qp_certificate(0.5, gamma, lam_max, kappa)
        fs = fixed_point_set(pieces)
        for piece in fs.pieces:
            assert piece.hoffman_bound <= cert.K * (1 + 1e-9)


def test_qp_dominance_counterexample_with_rank_deficiency():
    # documented limitation: when the optimal active rows leave the row
    # space of a rank-deficient Q, the certified piece bound -- and the
    # true local dist/residual ratio -- exceed the closed-form certificate
    inst, _ = problems.generate_qp(5, 8, 4, seed=59,
                                   kappa_plus=1.5274425846922983)
    lam_max = lambda_max_psd(inst.Q)
    kappa = condition_number_plus(inst.Q)
    gamma = 0.5 / lam_max
    pieces = enumerate_pieces_qp(inst.X, inst.Q, inst.c, gamma, 0.5)
    fs = fixed_point_set(pieces)
    K = error_bound_constant(pieces, fs)
    cert = rates.qp_certificate(0.5, gamma, lam_max, kappa)
    assert K > cert.K  # closed form violated by the certified piece
    assert K > cert.extras["K_compact"] * 0.99 or K > cert.K
    # the witness really is a fixed point of the operator
    f, g = problems.split_functions(inst)
    op, _ = make_dr(f, g, gamma, 0.5)
    z = fs.representative
    assert np.linalg.norm(op.evaluate(z) - z) <= 1e-10
    # and the measured ratio along the worst direction matches 1/sigma_min
    pc = fs.pieces[0]
    vmin = np.linalg.svd(pc.M)[2][-1]
    x = z + 1e-4 * vmin
    ratio = fs.distance(x) / np.linalg.norm(op.evaluate(x) - x)
    assert ratio == pytest.approx(K, rel=1e-6)


def test_null_space_inclusion_on_certified_pieces():
    for seed in (5, 9, 21):
        inst, _ = problems.generate_qp(4, 7, 2, seed=seed)
        gamma = 0.5 / lambda_max_psd(inst.Q)
        pieces = enumerate_pieces_qp(inst.X, inst.Q, inst.c, gamma, 0.5)
        fs = fixed_point_set(pieces)
        for pc in fs.pieces:
            basis = spectral_summary(pc.M).null_basis
            if basis.shape[1] == 0:
                continue
            assert np.abs(inst.Q @ basis).max() <= 1e-8
            if pc.active:
                assert np.abs(inst.X.A[list(pc.active)] @ basis).max() <= 1e-8


def test_distance_zero_on_fixed_set_and_linear_nearby():
    pieces = enumerate_pieces_lp(X1, C1, gamma=1.0, alpha=0.5)
    fs = fixed_point_set(pieces)
    assert fs.distance(np.array([-1.0])) <= 1e-12
    for t in (1e-3, -1e-3, 5e-2):
        assert fs.distance(np.array([-1.0 + t])) \
            == pytest.approx(abs(t), abs=1e-10)


def test_distance_matches_dense_sampling_oracle():
    # rank deficiency 1: the fixed set is (locally) a segment; scan it
    inst, _ = problems.generate_qp(3, 6, 2, seed=14)
    gamma = 0.5 / lambda_max_psd(inst.Q)
    pieces = enumerate_pieces_qp(inst.X, inst.Q, inst.c, gamma, 0.5)
    fs = fixed_point_set(pieces)
    rng = np.random.default_rng(15)
    for _ in range(5):
        x = fs.representative + rng.standard_normal(3)
        got = fs.distance(x)
        best = np.inf
        for B, e in fs.zero_sets:
            directions = spectral_summary(B).null_basis if B.shape[0] else None
            center = fs.representative - (B @ fs.representative - e) @ B
            if directions is None or directions.shape[1] == 0:
                candidates = [center]
            else:
                span = np.linspace(-8.0, 8.0, 3201)
                candidates = [center + directions @ (t * np.ones(directions.shape[1]))
                              for t in span]
            for cand in candidates:
                cand = project_polyhedron(fs.poly, cand)
                best = min(best, float(np.linalg.norm(x - cand)))
        assert got <= best + 1e-9
        assert got == pytest.approx(best, abs=1e-4)


def _union_scan_distance(fs, x):
    """Reference distance to the fixed-point set as the union of its
    per-piece parts, each projected onto on its own.  Parts are visited
    by ascending distance to their zero set, a lower bound, and the scan
    stops once that bound reaches the best distance found."""
    bounds = sorted(((float(np.linalg.norm(B @ x - e)), i)
                     for i, (B, e) in enumerate(fs.zero_sets)))
    best = np.inf
    for lower, i in bounds:
        if lower >= best:
            break
        part = _piece_part(fs.pieces[i], *fs.zero_sets[i])
        best = min(best, float(np.linalg.norm(x - project_polyhedron(part, x))))
    return best


def test_distances_match_the_union_of_pieces_on_acceptance_problems():
    rng = np.random.default_rng(18)
    radii = np.repeat([1e-3, 1e-2, 1e-1, 1.0, 10.0], 2)[:, None]
    for inst in _acceptance_instances():
        fs = fixed_point_set(_dr_pieces(inst))
        d = rng.standard_normal((len(radii), inst.dim))
        xs = fs.representative + radii * d / np.linalg.norm(d, axis=1)[:, None]
        reference = [_union_scan_distance(fs, x) for x in xs]
        assert np.abs(fs.distances(xs) - reference).max() <= KKT_TOL, inst.name


def test_fixed_set_polyhedron_holds_the_witnesses_and_projects_exactly():
    # LPs, QPs with paired rows R x = R w, and a full-rank QP, whose R
    # rows pin the set to one point and leave the s'x row redundant
    cases = [problems.generate_lp(2, 4, 0)[0], problems.generate_lp(3, 6, 1)[0],
             problems.generate_qp(2, 4, 1, 100)[0],
             problems.generate_qp(3, 6, 2, 101)[0],
             problems.generate_qp(3, 6, 3, 104)[0]]
    rng = np.random.default_rng(19)
    for inst in cases:
        fs = fixed_point_set(_dr_pieces(inst))
        rank_q = 0 if inst.kind == "lp" else np.linalg.matrix_rank(inst.Q)
        assert fs.poly.num_rows == inst.X.num_rows + 2 * rank_q + 1
        for piece, (B, e) in zip(fs.pieces, fs.zero_sets):
            x0 = np.linalg.lstsq(piece.M, piece.v, rcond=None)[0]
            z = project_polyhedron(_piece_part(piece, B, e), x0)
            assert fs.poly.contains(z, KKT_TOL * (1.0 + np.linalg.norm(z)))
        for _ in range(5):
            u = fs.representative + rng.standard_normal(inst.dim)
            got = project_polyhedron(fs.poly, u)
            want = project_polyhedron(fs.poly, u, method="brute_force")
            assert np.linalg.norm(got - want) <= 1e-9 * (1.0 + np.linalg.norm(u))


def test_error_bound_realized_at_small_radii():
    inst, _ = problems.generate_qp(3, 6, 3, seed=16)
    gamma = 0.5 / lambda_max_psd(inst.Q)
    pieces = enumerate_pieces_qp(inst.X, inst.Q, inst.c, gamma, 0.5)
    fs = fixed_point_set(pieces)
    K = error_bound_constant(pieces, fs)
    f, g = problems.split_functions(inst)
    op, _ = make_dr(f, g, gamma, 0.5)
    rng = np.random.default_rng(17)
    for R in (1e-2, 1e-3, 1e-4):
        for _ in range(25):
            d = rng.standard_normal(3)
            x = fs.representative + R * d / np.linalg.norm(d)
            dist = fs.distance(x)
            assert dist <= K * np.linalg.norm(op.evaluate(x) - x) + 1e-8


def test_error_bound_constant_requires_fixed_points():
    pieces = enumerate_pieces_lp(X1, C1, 1.0, 0.5)
    with pytest.raises(EmptyFixedSet):
        error_bound_constant(pieces, None)


def test_point_fixed_set_distance():
    fs = point_fixed_set(np.array([1.0, 2.0]))
    assert fs.distance(np.array([1.0, 5.0])) == pytest.approx(3.0)


def test_estimate_min_residual_positive_off_fixed_pieces():
    pieces = enumerate_pieces_lp(X1, C1, 1.0, 0.5)
    free = pieces[0]  # residual is constant 2*alpha*gamma*c = 1 in norm
    est = estimate_min_residual(free, samples=8, seed=0)
    assert est == pytest.approx(1.0, abs=1e-9)
