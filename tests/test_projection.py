import numpy as np
import pytest

from fpicert.errors import Infeasible
from fpicert.polyhedra import (Polyhedron, Projector, affine_rows,
                               face_feasible_point, find_feasible_point,
                               intersect, is_empty, project_polyhedron,
                               project_with_certificate, whole_space)


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
    for method in ("active_set", "brute_force"):
        assert np.allclose(project_polyhedron(X, u, method=method), u)


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
        p1 = project_polyhedron(X, u, method="active_set")
        p2 = project_polyhedron(X, u, method="brute_force")
        assert np.linalg.norm(p1 - p2) <= 1e-8


def test_certificate_reconstructs_displacement():
    rng = np.random.default_rng(2)
    X = _random_nonempty(rng, 4, 8)
    u = 5 * rng.standard_normal(4)
    res = project_with_certificate(X, u, method="active_set")
    assert res.displacement_matches(X, u)
    assert np.all(res.multipliers >= 0.0)


def test_empty_polyhedron_detected_by_both_methods():
    X = Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
    assert is_empty(X)
    for method in ("active_set", "brute_force"):
        with pytest.raises(Infeasible):
            project_polyhedron(X, np.array([0.0]), method=method)


def test_dependent_violated_rows():
    # x1 <= 1 and 2 x1 <= 1: the second is tighter and parallel
    X = Polyhedron(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, 1.0]))
    got = project_polyhedron(X, np.array([3.0, 0.5]), method="active_set")
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
        p1 = project_polyhedron(X, u, method="active_set")
        p2 = project_polyhedron(X, u, method="brute_force")
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
            for method in ("active_set", "brute_force"):
                cold = project_polyhedron(X, u, method=method)
                assert np.abs(warm - cold).max() <= 1e-9
        hits += project.hits
        misses += project.misses
    assert hits > 0 and misses > 0


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
