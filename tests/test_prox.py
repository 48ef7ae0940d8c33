import numpy as np
import pytest
from scipy.optimize import minimize

from fpicert import prox as fn
from fpicert.polyhedra import Polyhedron
from fpicert.prox import (box_indicator, conjugate_pair_examples, l1, linear,
                          moreau_residual, polyhedral_indicator, prox,
                          prox_map, quadratic, reflect)


def test_prox_linear_shifts_by_gamma_c():
    # a linear term is the quadratic with Q = 0; W = inv(0 + I) and W x
    # are exact, so the prox is bitwise x - gamma c
    c = np.array([2.0, -1.0, 0.5])
    x = np.array([1.0, -3.7, 0.2])
    f = linear(c)
    for gamma in (1.0, 0.25, 0.37):
        W, h = prox_map(f, gamma).affine
        assert np.array_equal(W, np.eye(3)) and np.array_equal(h, gamma * c)
        assert np.array_equal(prox(f, gamma, x), x - gamma * c)


def test_prox_quadratic_identity_halves():
    f = quadratic(np.eye(2), np.zeros(2))
    x = np.array([3.0, -4.0])
    assert np.allclose(prox(f, 1.0, x), x / 2)


def test_prox_l1_soft_threshold():
    f = l1(1.0, 2)
    got = prox(f, 0.5, np.array([1.0, -0.2]))
    assert np.allclose(got, [0.5, 0.0])


def test_prox_box_clamps():
    f = box_indicator(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert np.allclose(prox(f, 3.0, np.array([5.0, -3.0])), [1.0, 0.0])


def test_prox_quadratic_matches_numeric_minimizer():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        G = rng.standard_normal((n, n))
        f = quadratic(G @ G.T + 0.1 * np.eye(n), rng.standard_normal(n))
        gamma = float(rng.uniform(0.2, 3.0))
        x = rng.standard_normal(n)

        Q, c = f.data["Q"], f.data["c"]

        def objective(u):
            return gamma * fn.function_value(f, u) + 0.5 * np.sum((u - x) ** 2)

        def grad(u):
            return gamma * (Q @ u + c) + (u - x)

        def hess(u):
            return gamma * Q + np.eye(n)

        res = minimize(objective, x, method="Newton-CG", jac=grad, hess=hess,
                       options={"xtol": 1e-13, "maxiter": 200})
        assert np.linalg.norm(prox(f, gamma, x) - res.x) <= 1e-8


def test_prox_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        prox(linear(np.zeros(1)), 0.0, np.zeros(1))


def test_quadratic_rejects_indefinite():
    with pytest.raises(Exception):
        quadratic(np.diag([1.0, -1.0]), np.zeros(2))


def test_reflect_indicator_fixes_interior_points():
    X = Polyhedron(np.array([[1.0, 0.0]]), np.array([1.0]))
    f = polyhedral_indicator(X)
    x = np.array([0.0, 5.0])
    assert np.allclose(reflect(f, 1.0, x), x)


def test_reflect_linear():
    c = np.array([1.5, -2.0])
    x = np.array([0.0, 1.0])
    assert np.allclose(reflect(linear(c), 1.0, x), x - 2.0 * c)


def _random_function(rng, dim):
    kind = rng.integers(0, 5)
    if kind == 0:
        G = rng.standard_normal((dim, dim))
        return quadratic(G @ G.T, rng.standard_normal(dim))
    if kind == 1:
        return linear(rng.standard_normal(dim))
    if kind == 2:
        lo = rng.standard_normal(dim)
        return box_indicator(lo, lo + rng.uniform(0.1, 2.0, dim))
    if kind == 3:
        return l1(float(rng.uniform(0.0, 2.0)), dim)
    A = rng.standard_normal((int(rng.integers(1, 5)), dim))
    b = A @ rng.standard_normal(dim) + rng.uniform(0.1, 1.0, A.shape[0])
    return polyhedral_indicator(Polyhedron(A, b))


def test_reflector_nonexpansive_on_samples():
    rng = np.random.default_rng(4)
    for _ in range(30):
        dim = int(rng.integers(1, 5))
        f = _random_function(rng, dim)
        gamma = float(rng.uniform(0.2, 2.0))
        x, y = rng.standard_normal(dim), rng.standard_normal(dim)
        lhs = np.linalg.norm(reflect(f, gamma, x) - reflect(f, gamma, y))
        assert lhs <= np.linalg.norm(x - y) + 1e-9


def test_prox_firmly_nonexpansive_on_samples():
    rng = np.random.default_rng(5)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        f = _random_function(rng, dim)
        gamma = float(rng.uniform(0.2, 2.0))
        x, y = 2 * rng.standard_normal(dim), 2 * rng.standard_normal(dim)
        px, py = prox(f, gamma, x), prox(f, gamma, y)
        assert np.sum((px - py) ** 2) <= (x - y) @ (px - py) + 1e-9


def _subgradient_residual(f, gamma, x, u):
    """Distance of (x - u)/gamma from the subdifferential of f at u."""
    s = (x - u) / gamma
    if f.kind == fn.QUADRATIC:
        return np.linalg.norm(s - (f.data["Q"] @ u + f.data["c"]))
    if f.kind == fn.L1:
        w = f.data["weight"]
        worst = 0.0
        for si, ui in zip(s, u):
            if abs(ui) > 1e-12:
                worst = max(worst, abs(si - w * np.sign(ui)))
            else:
                worst = max(worst, max(0.0, abs(si) - w))
        return worst
    if f.kind == fn.BOX_INDICATOR:
        lo, hi = f.data["lo"], f.data["hi"]
        worst = 0.0
        for si, ui, l, h in zip(s, u, lo, hi):
            allow_pos = ui >= h - 1e-10
            allow_neg = ui <= l + 1e-10
            lo_s = -np.inf if allow_neg else 0.0
            hi_s = np.inf if allow_pos else 0.0
            worst = max(worst, max(lo_s - si, si - hi_s, 0.0))
        return worst
    # polyhedral indicator: s must be a nonnegative combination of the
    # active rows (normal cone)
    from scipy.optimize import nnls
    poly = f.data["poly"]
    slack = poly.b - poly.A @ u
    act = [i for i in range(poly.num_rows) if slack[i] <= 1e-7]
    if not act:
        return float(np.linalg.norm(s))
    _, resid = nnls(poly.A[act].T, s)
    return float(resid)


def test_prox_subgradient_characterization():
    rng = np.random.default_rng(6)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        f = _random_function(rng, dim)
        gamma = float(rng.uniform(0.2, 2.0))
        x = 2 * rng.standard_normal(dim)
        u = prox(f, gamma, x)
        assert _subgradient_residual(f, gamma, x, u) <= 1e-7


def test_moreau_l1_box_pair():
    rng = np.random.default_rng(8)
    f = l1(1.0, 3)
    f_conj = box_indicator(-np.ones(3), np.ones(3))
    for _ in range(10):
        gamma = float(rng.uniform(0.2, 3.0))
        x = 3 * rng.standard_normal(3)
        assert moreau_residual(f, f_conj, gamma, x) <= 1e-10


def test_moreau_quadratic_pair():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        G = rng.standard_normal((n, n))
        Q = G @ G.T + 0.5 * np.eye(n)
        c = rng.standard_normal(n)
        Qinv = np.linalg.inv(Q)
        f = quadratic(Q, c)
        f_conj = quadratic(Qinv, -Qinv @ c)
        gamma = float(rng.uniform(0.3, 2.0))
        assert moreau_residual(f, f_conj, gamma, rng.standard_normal(n)) <= 1e-8


def test_moreau_linear_singleton_pair():
    c = np.array([0.7, -1.2])
    f = linear(c)
    f_conj = box_indicator(c, c)
    rng = np.random.default_rng(10)
    for _ in range(5):
        assert moreau_residual(f, f_conj, 1.0, rng.standard_normal(2)) <= 1e-10


def test_conjugate_pair_examples_are_valid():
    rng = np.random.default_rng(11)
    for f, f_conj in conjugate_pair_examples(3, rng):
        for _ in range(5):
            gamma = float(rng.uniform(0.3, 2.0))
            x = 2 * rng.standard_normal(3)
            assert moreau_residual(f, f_conj, gamma, x) <= 1e-8
