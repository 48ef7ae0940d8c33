import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpicert import polyhedra, verify
from fpicert.errors import Infeasible
from fpicert.polyhedra import (KKT_TOL, Face, Polyhedron, Projector,
                               affine_rows, face_feasible_point,
                               find_feasible_point, intersect, is_empty,
                               project_polyhedron, whole_space)
from fpicert.problems import generate_lp, generate_qp
from oracles import project_brute_force


def _random_nonempty(rng, n, m):
    while True:
        A = rng.standard_normal((m, n))
        b = A @ rng.standard_normal(n) + rng.uniform(-0.3, 1.0, size=m)
        X = Polyhedron(A, b)
        if not is_empty(X):
            return X


def test_projection_of_feasible_point_is_identity():
    X = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    u = np.array([0.3, -2.0])
    for project in (project_polyhedron, project_brute_force):
        assert np.allclose(project(X, u), u)


def test_projection_single_halfspace():
    X = Polyhedron(np.array([[1.0, 0.0]]), np.array([0.0]))  # x1 <= 0
    got = project_polyhedron(X, np.array([1.0, 2.0]))
    assert np.allclose(got, [0.0, 2.0])


def test_projection_idempotent():
    rng = np.random.default_rng(0)
    X = _random_nonempty(rng, 3, 6)
    u = 4 * rng.standard_normal(3)
    p = project_polyhedron(X, u)
    assert np.linalg.norm(project_polyhedron(X, p) - p) <= 1e-10


def test_methods_agree_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 11))
        X = _random_nonempty(rng, n, m)
        u = 3 * rng.standard_normal(n)
        p1 = project_polyhedron(X, u)
        p2 = project_brute_force(X, u)
        assert np.linalg.norm(p1 - p2) <= 1e-8


def test_certificate_reconstructs_displacement():
    rng = np.random.default_rng(2)
    X = _random_nonempty(rng, 4, 8)
    u = 5 * rng.standard_normal(4)
    project = Projector(X)
    x = project(u)
    lam = project.face.project(u)[1]
    resid = (u - x) - X.A[list(project.active)].T @ lam
    assert np.linalg.norm(resid) <= KKT_TOL * (1.0 + np.linalg.norm(u))
    assert np.all(lam >= 0.0)


def test_empty_polyhedron_detected_by_both_methods():
    X = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert is_empty(X)
    for project in (project_polyhedron, project_brute_force):
        with pytest.raises(Infeasible):
            project(X, np.array([0.0]))


def test_dependent_violated_rows():
    # x1 <= 1 and 2 x1 <= 1: the second is tighter and parallel
    X = Polyhedron(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]))
    got = project_polyhedron(X, np.array([3.0, 0.5]))
    assert np.allclose(got, [0.5, 0.5])


def test_paired_equality_rows():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        E = rng.standard_normal((k, n))
        x0 = rng.standard_normal(n)
        C = rng.standard_normal((int(rng.integers(1, 5)), n))
        d = C @ x0 + rng.uniform(0.1, 1.0, size=C.shape[0])
        X = intersect(affine_rows(E, E @ x0), Polyhedron(C, d))
        u = 2 * rng.standard_normal(n)
        p1 = project_polyhedron(X, u)
        p2 = project_brute_force(X, u)
        assert np.linalg.norm(p1 - p2) <= 1e-8
        assert np.abs(E @ p1 - E @ x0).max() <= 1e-9


def test_whole_space_projection_is_identity():
    u = np.array([1.0, -2.0, 3.0])
    assert np.allclose(project_polyhedron(whole_space(3), u), u)


def test_find_feasible_point():
    X = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0]]), np.array([2.0, 0.0]))
    p = find_feasible_point(X)
    assert X.contains(p)
    assert find_feasible_point(
        Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))) is None


def test_face_feasible_point():
    X = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    p = face_feasible_point(X, [0])
    assert p is not None and p[0] == pytest.approx(1.0)
    # face of an unreachable equality is empty
    Y = Polyhedron(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
    assert face_feasible_point(Y, [1]) is None


def _degenerate_polyhedron(rng, kind):
    """A random polyhedron around a feasible point with paired equality
    rows, a duplicated row, a near-parallel row, or an implicit equality:
    ``k + 1`` positively dependent inequality rows tight at ``x0``, which
    cut out a point or face with no paired rows (an LP's fixed-point set
    has this shape)."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(3, 6))
    x0 = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    if kind == "paired":
        e = rng.standard_normal((1, n))
        return intersect(Polyhedron(A, b), affine_rows(e, e @ x0)), x0
    if kind == "implicit":
        B = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        E = np.vstack([B, -rng.uniform(0.5, 2.0, size=len(B)) @ B])
        return intersect(Polyhedron(A, b), Polyhedron(E, E @ x0)), x0
    if kind == "duplicate":
        return Polyhedron(np.vstack([A, A[:1]]), np.concatenate([b, b[:1]])), x0
    a = A[0] + 1e-6 * rng.standard_normal(n)
    return Polyhedron(np.vstack([A, a]), np.concatenate([b, [b[0] + 1e-7]])), x0


def test_warm_projector_agrees_with_cold_and_brute_force():
    rng = np.random.default_rng(11)
    hits = misses = 0
    for kind in ("paired", "duplicate", "near_parallel", "implicit") * 3:
        X, x0 = _degenerate_polyhedron(rng, kind)
        project = Projector(X)
        u = x0 + 3 * rng.standard_normal(X.dim)
        for step in range(20):
            if step % 5 == 4:  # a jump: the cached face goes stale
                u = x0 + 3 * rng.standard_normal(X.dim)
            else:              # a short walk: the cached face still fits
                u = u + 1e-3 * rng.standard_normal(X.dim)
            warm = project(u)
            for project_cold in (project_polyhedron, project_brute_force):
                cold = project_cold(X, u)
                assert np.abs(warm - cold).max() <= 1e-9
        hits += project.hits
        misses += project.misses
    assert hits > 0 and misses > 0


def test_near_parallel_rows_do_not_cycle():
    # rows 0 and 4 are near-parallel; a drop heuristic that could remove
    # the entering row once alternated between the working sets (0, 2)
    # and (0, 2, 4) here until the loop gave up
    X = Polyhedron(
        np.array([[-0.5618160151207174, 0.800918505476355, -2.611063829076305],
                  [0.9804291237371938, 1.3374585424631027, 1.8969017541526847],
                  [-2.3597407953153993, -0.459142890450915, -0.6474848469245938],
                  [1.451267059706092, 0.6673570092858983, 1.0243929175623487],
                  [-0.5618155732217454, 0.8009187067019896, -2.611064009488481]]),
        np.array([4.106253557174473, -0.8683387128645051, 0.9026015050714684,
                  0.22266990639119488, 4.106253657174474]))
    u = np.array([-0.8044816247896017, -0.48896122550065135, -3.0181558889453344])
    project = Projector(X)
    x = project(u)
    assert project.active == (2, 4)
    assert np.abs(x - project_brute_force(X, u)).max() <= 1e-12
    assert np.array_equal(project_polyhedron(X, u), x)


@pytest.mark.parametrize("generate, args, J", [
    (generate_lp, (6, 16, 1000), (0, 1, 4, 9, 11)),
    (generate_lp, (8, 16, 1001), (7, 11)),
    (generate_qp, (8, 16, 6, 1001), (2, 7, 11)),
    (generate_qp, (6, 16, 4, 0), (2, 5, 10)),
], ids=["lp-n6-m16-s1000", "lp-n8-m16-s1001", "qp-n8-m16-r6-s1001",
        "qp-n6-m16-r4-s0"])
def test_dead_ends_on_empty_faces_raise_infeasible(generate, args, J):
    # faces of the face walk made empty by paired equality rows: their
    # working sets are near-dependent, and dual steps solved through the
    # Gram matrix of A_W overflow there before they find a dual ray; with
    # warnings as errors (pyproject.toml) an escaping overflow warning
    # fails too
    X = generate(*args)[0].X
    P = intersect(X, affine_rows(X.A[list(J)], X.b[list(J)]))
    assert is_empty(P)
    with pytest.raises(Infeasible):
        project_polyhedron(P, np.zeros(X.dim))
    with pytest.raises(Infeasible):
        Projector(P)(np.zeros(X.dim))


def _near_parallel_variant(seed):
    """``generate_lp(4, 7, seed)``'s X with one more row, row 0 tilted by
    ``1e-7 delta`` and passing ``1e-9`` above the planted optimum."""
    inst, truth = generate_lp(4, 7, seed)
    a = inst.X.A[0] + 1e-7 * np.random.default_rng(seed).standard_normal(4)
    return Polyhedron(np.vstack([inst.X.A, a]),
                      np.append(inst.X.b, a @ truth.known_optimum + 1e-9))


def _face(X, J):
    return intersect(X, affine_rows(X.A[list(J)], X.b[list(J)]))


@pytest.mark.parametrize("X, J", [
    (Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, -1.0])), ()),
    (_near_parallel_variant(28), (2, 7)),
], ids=["contradicting-rows", "near-parallel-s28-face-2-7"])
def test_empty_face_raises_with_a_checked_ray(X, J):
    # on the variant, near-parallel rows 0 and 7 enter the working set
    # together; the ray is still a Farkas certificate to 1e-9
    P = _face(X, J)
    with pytest.raises(Infeasible) as raised:
        project_polyhedron(P, np.zeros(X.dim))
    y = raised.value.ray
    norm = np.linalg.norm(y)
    assert y.min() >= 0.0
    assert np.linalg.norm(y @ P.A) <= 1e-9 * norm * np.abs(P.A).max()
    assert y @ P.b < -1e-9 * norm * (1.0 + np.abs(P.b).max())
    # HiGHS, asked with J as equalities, agrees
    assert polyhedra._feasibility_lp(X, list(J)) is None
    assert face_feasible_point(X, J) is None


def _gram_split(AW, a):
    """``polyhedra._split`` through the Gram system ``A_W A_W^T r = A_W a``."""
    r = np.linalg.solve(AW @ AW.T, AW @ a)
    return r, a - r @ AW


def test_a_ray_that_fails_its_check_goes_to_highs(monkeypatch):
    # split through the Gram matrix, which squares the condition number
    # of the near-parallel rows in W, the loop on seed 28's face (2, 7)
    # ends on a dual ray with b^T y > 0: no proof, so HiGHS decides
    X = _near_parallel_variant(28)
    P = _face(X, (2, 7))
    ray_b, highs_calls = [], []
    is_ray, highs = polyhedra._is_farkas_ray, polyhedra._feasibility_lp
    monkeypatch.setattr(polyhedra, "_split", _gram_split)
    monkeypatch.setattr(polyhedra, "_is_farkas_ray",
                        lambda poly, y: ray_b.append(y @ poly.b) or is_ray(poly, y))
    monkeypatch.setattr(polyhedra, "_feasibility_lp",
                        lambda poly, J: highs_calls.append(J) or highs(poly, J))
    # the loop raises no Infeasible of its own: it leaves by its failure exit
    assert polyhedra._dual_loop(P, np.zeros(X.dim)) is None
    assert len(ray_b) == 1 and ray_b[0] > 0.0
    assert face_feasible_point(X, (2, 7)) is None
    assert len(ray_b) == 2 and highs_calls == [[2, 7]]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(("paired", "implicit", "duplicate", "near_parallel")),
       st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_projection_is_certified_on_degenerate_rows(kind, seed, spread):
    rng = np.random.default_rng(seed)
    X, x0 = _degenerate_polyhedron(rng, kind)
    u = x0 + spread * rng.standard_normal(X.dim)
    s = KKT_TOL * (1.0 + np.linalg.norm(u) + np.abs(X.b).max())
    project = Projector(X)
    x = project(u)
    assert X.violation(x) <= s
    y, lam = project.face.project(u)
    assert np.abs(y - x).max() <= s
    assert lam.min(initial=0.0) >= -s
    # both routes stop within the KKT slack s, which on near-parallel rows
    # and implicit equalities leaves them up to about 1e-5 apart, so only
    # these two kinds are held to the oracle at 1e-9
    if kind in ("paired", "duplicate"):
        assert np.abs(x - project_brute_force(X, u)).max() <= 1e-9


def test_projector_falls_back_on_a_stale_face():
    # the unit box [-1, 1]^2: rows x1 <= 1, x2 <= 1, -x1 <= 1, -x2 <= 1
    X = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    project = Projector(X)
    assert np.allclose(project(np.array([2.0, 0.5])), [1.0, 0.5])
    assert (project.hits, project.misses, project.active) == (0, 1, (0,))
    assert np.allclose(project(np.array([3.0, -0.2])), [1.0, -0.2])
    assert (project.hits, project.misses) == (1, 1)
    # a multiplier of -1e-10 is within the cold loop's slack but not >= 0:
    # fall back, and return the point itself instead of the face point
    u = np.array([1.0 - 1e-10, 0.3])
    assert np.array_equal(project(u), u)
    assert (project.hits, project.misses, project.active) == (1, 2, ())
    project(np.array([2.0, 0.5]))  # caches the face x1 = 1 again
    # the cached face x1 = 1 now has a negative multiplier: fall back
    assert np.allclose(project(np.array([0.2, 0.3])), [0.2, 0.3])
    assert (project.hits, project.misses, project.active) == (1, 4, ())
    # the empty face leaves a row violated: fall back again
    assert np.allclose(project(np.array([0.5, 4.0])), [0.5, 1.0])
    assert (project.hits, project.misses, project.active) == (1, 5, (1,))
    with pytest.raises(ValueError):
        project(np.zeros(3))


def test_projector_holds_no_face_when_its_rows_are_dependent(monkeypatch):
    # a face whose rows Face.of calls dependent is not held: the
    # projector keeps the whole space as its face, and every later call
    # goes through the cold loop
    X = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    face_of = Face.of.__func__

    def singular(cls, poly, active):
        if active:
            raise np.linalg.LinAlgError("dependent rows")
        return face_of(cls, poly, active)

    monkeypatch.setattr(Face, "of", classmethod(singular))
    project = Projector(X)
    for _ in range(2):
        assert np.allclose(project(np.array([2.0, 0.5])), [1.0, 0.5])
        assert project.active == () and project.face.active == ()
    assert (project.hits, project.misses) == (0, 2)


#: The 20 acceptance LPs, ``generate_lp(n, m, seed)``, as ``(seed, (n, m))``.
ACCEPTANCE_LPS = list(enumerate([(2, 4), (3, 6), (4, 8), (5, 10), (6, 12)] * 4))


def _fixed_set(inst):
    return verify.certify(inst, 1.0, 0.5)[1]


def _samples(center, R, count, seed):
    """Rows drawn as ``engine.estimate_rates`` draws its samples."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        direction = rng.standard_normal(center.shape[0])
        rows.append(center + (R * rng.uniform(0.0, 1.0)) * direction
                    / np.linalg.norm(direction))
    return np.reshape(rows, (count, center.shape[0]))


def test_block_projections_match_cold_projections():
    # the nine-piece fixed set of lp-n3-m6-s0, and X of every acceptance
    # LP with rows drawn around its fixed point as estimate_rates draws them
    inst, _ = generate_lp(3, 6, 0)
    fs = _fixed_set(inst)
    assert len(fs.zero_sets) == 9
    cases = [(fs.poly, _samples(fs.representative, R, 200, 5)) for R in (1e-3, 1.0)]
    for seed, (n, m) in ACCEPTANCE_LPS:
        inst, _ = generate_lp(n, m, seed)
        center = _fixed_set(inst).representative
        cases.append((inst.X, _samples(center, 1e-3 * (1.0 + np.linalg.norm(center)),
                                       200, seed)))
    for poly, U in cases:
        project = Projector(poly)
        got = project(U)
        cold = np.array([project_polyhedron(poly, u) for u in U])
        assert np.abs(got - cold).max() <= 1e-12
        assert project.misses < project.hits


def test_a_block_of_one_gives_the_point_call_bits():
    inst, _ = generate_lp(3, 6, 0)
    fs = _fixed_set(inst)
    for poly in (inst.X, fs.poly):
        one, block = Projector(poly), Projector(poly)
        for u in _samples(fs.representative, 1.0, 100, 3):
            x = one(u)
            assert np.array_equal(block(u[None])[0], x)
            assert block.active == one.active
        assert (block.hits, block.misses) == (one.hits, one.misses)
        assert one.misses > 0 and one.hits > 0


def test_a_block_counts_one_hit_or_miss_per_row():
    inst, _ = generate_lp(4, 8, 2)
    center = _fixed_set(inst).representative
    project = Projector(inst.X)
    for R, count in ((1e-3, 50), (1.0, 50), (10.0, 7), (1.0, 0)):
        before = project.hits + project.misses
        assert project(_samples(center, R, count, count)).shape == (count, inst.dim)
        assert project.hits + project.misses == before + count
    with pytest.raises(ValueError):
        project(np.zeros((2, inst.dim + 1)))
