import numpy as np
import pytest

import fpicert.prox
from fpicert import engine, problems
from fpicert.errors import StepTooLarge
from fpicert.operators import (compose_alpha, make_admm_xy_split, make_dr,
                               make_gd, make_pr, make_proximal_gradient,
                               make_proximal_point)
from fpicert.polyhedra import Polyhedron, whole_space
from fpicert.prox import l1, linear, polyhedral_indicator, prox, quadratic
from oracles import run_admm_direct


def test_gd_on_identity_quadratic_is_scaled_identity():
    for lam in (0.1, 0.5, 0.9):
        op = make_gd(quadratic(np.eye(2), np.zeros(2)), lam)
        x = np.array([1.0, -2.0])
        assert np.allclose(op.evaluate(x), (1 - lam) * x)
        assert op.alpha == pytest.approx(lam / 2)


def test_gd_componentwise():
    op = make_gd(quadratic(np.diag([2.0, 1.0]), np.zeros(2)), 0.5)
    assert np.allclose(op.evaluate(np.array([1.0, 1.0])), [0.0, 0.5])


def test_gd_step_too_large():
    with pytest.raises(StepTooLarge):
        make_gd(quadratic(np.diag([4.0]), np.zeros(1)), 0.5)  # 2/lmax = 0.5


def test_operator_factories_reject_invalid_parameters():
    f = quadratic(np.eye(2), np.zeros(2))
    flat = quadratic(np.zeros((2, 2)), np.ones(2))  # lambda_max = 0
    g = l1(0.5, 2)
    for lam in (0.0, -0.1):
        for make in (lambda: make_gd(f, lam), lambda: make_gd(flat, lam),
                     lambda: make_proximal_gradient(f, g, lam),
                     lambda: make_proximal_gradient(flat, g, lam)):
            with pytest.raises(ValueError, match="lambda must be positive"):
                make()
    for alpha in (0.0, 1.0):
        with pytest.raises(ValueError, match="alpha must lie in"):
            make_dr(f, g, 1.0, alpha)
    with pytest.raises(ValueError, match="different spaces"):
        make_dr(f, l1(0.5, 3), 1.0, 0.5)
    for rho in (0.0, -1.0):
        with pytest.raises(ValueError, match="rho must be positive"):
            make_admm_xy_split(f, g, rho)
        with pytest.raises(ValueError, match="rho must be positive"):
            run_admm_direct(f, g, rho)


def test_gd_zero_curvature_flagged_nonaveraged():
    op = make_gd(quadratic(np.zeros((2, 2)), np.ones(2)), 0.3)
    assert op.alpha == 1.0


def test_proximal_point_linear():
    c = np.array([1.0, -0.5])
    op = make_proximal_point(linear(c), 1.0)
    x = np.array([2.0, 2.0])
    assert np.allclose(op.evaluate(x), x - c)
    assert op.alpha == 0.5


def test_proximal_point_indicator_fixes_members():
    X = Polyhedron(np.array([[1.0, 0.0]]), np.array([1.0]))
    op = make_proximal_point(polyhedral_indicator(X), 2.0)
    x = np.array([0.0, 7.0])
    assert np.allclose(op.evaluate(x), x)


def test_proximal_point_l1_fixed_point_is_minimizer():
    op = make_proximal_point(l1(1.0, 3), 0.7)
    z = np.zeros(3)
    assert np.linalg.norm(op.evaluate(z) - z) == 0.0


def test_gradient_projection_free_space_reduces_to_gd():
    f = quadratic(np.diag([1.0, 0.5]), np.array([0.3, -0.2]))
    gd = make_gd(f, 0.4)
    gp = make_proximal_gradient(f, polyhedral_indicator(whole_space(2)), 0.4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2)
        assert np.allclose(gp.evaluate(x), gd.evaluate(x))


def test_gradient_projection_box_least_squares():
    # min 0.5||x - z||^2 over a box: optimum is clamp(z)
    z = np.array([2.0, -3.0, 0.25])
    lo, hi = -np.ones(3), np.ones(3)
    box = Polyhedron(np.vstack([np.eye(3), -np.eye(3)]),
                     np.concatenate([hi, -lo]))
    op = make_proximal_gradient(quadratic(np.eye(3), -z), polyhedral_indicator(box), 0.5)
    tr = engine.iterate(op, np.zeros(3), residual_tol=1e-13)
    assert np.allclose(tr.limit, np.clip(z, lo, hi), atol=1e-10)


def test_gradient_projection_stationary_feasible_point_is_fixed():
    z = np.array([0.2, -0.1])
    box = Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    op = make_proximal_gradient(quadratic(np.eye(2), -z), polyhedral_indicator(box), 0.3)
    assert np.allclose(op.evaluate(z), z)


def test_proximal_gradient_zero_weight_equals_gd():
    f = quadratic(np.diag([1.0, 2.0]) / 2, np.array([0.1, 0.2]))
    pg = make_proximal_gradient(f, l1(0.0, 2), 0.3)
    gd = make_gd(f, 0.3)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(2)
        assert np.allclose(pg.evaluate(x), gd.evaluate(x))


def test_proximal_gradient_lasso_fixed_point_is_stationary():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    Q, c = A.T @ A, -A.T @ b
    tau = 0.5
    lam = 0.9 / np.linalg.eigvalsh(Q).max()
    op = make_proximal_gradient(quadratic(Q, c), l1(tau, 3), lam)
    tr = engine.iterate(op, np.zeros(3), residual_tol=1e-13)
    inst = problems.ProblemInstance(kind="lasso", c=c, Q=Q, l1_weight=tau)
    assert problems.kkt_residual(inst, tr.limit) <= 1e-8


def test_proximal_gradient_stationary_point_is_fixed():
    f = quadratic(np.eye(2), np.zeros(2))  # grad = x, zero at origin
    op = make_proximal_gradient(f, l1(0.5, 2), 0.4)
    assert np.allclose(op.evaluate(np.zeros(2)), np.zeros(2))


def test_compose_alpha():
    assert compose_alpha(0.0, 0.5) == 0.5
    a = compose_alpha(0.25, 0.5)
    assert a == pytest.approx((0.25 + 0.5 - 2 * 0.125) / (1 - 0.125))


def _lp_bits(rng, n=3, m=6):
    inst, _ = problems.generate_lp(n, m, seed=int(rng.integers(0, 1000)))
    return inst


def test_dr_indicator_same_set_fixes_members():
    X = Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 1.0]))
    f = polyhedral_indicator(X)
    op, _ = make_dr(f, f, 1.0, 0.5)
    w = np.array([0.5, -2.0])
    assert np.allclose(op.evaluate(w), w)


def test_dr_lp_closed_form():
    rng = np.random.default_rng(3)
    inst = _lp_bits(rng)
    f, g = problems.split_functions(inst)
    gamma, alpha = 0.8, 0.35
    op, _ = make_dr(f, g, gamma, alpha)
    for _ in range(5):
        x = 2 * rng.standard_normal(3)
        proj = prox(f, gamma, x)
        expected = (1 - 2 * alpha) * x + 2 * alpha * proj - 2 * alpha * gamma * inst.c
        assert np.allclose(op.evaluate(x), expected, atol=1e-12)


def test_dr_qp_closed_form():
    rng = np.random.default_rng(4)
    inst, _ = problems.generate_qp(3, 6, 2, seed=9)
    f, g = problems.split_functions(inst)
    gamma, alpha = 0.4, 0.5
    op, _ = make_dr(f, g, gamma, alpha)
    W = np.linalg.inv(gamma * inst.Q + np.eye(3))
    for _ in range(5):
        x = 2 * rng.standard_normal(3)
        proj = prox(f, gamma, x)
        expected = x + 2 * alpha * (W @ (2 * proj - x - gamma * inst.c)) \
            - 2 * alpha * proj
        assert np.allclose(op.evaluate(x), expected, atol=1e-12)


def test_pr_is_dr_with_unit_averaging():
    rng = np.random.default_rng(5)
    inst = _lp_bits(rng)
    f, g = problems.split_functions(inst)
    pr, _ = make_pr(f, g, 1.0)
    assert pr.alpha == 1.0
    for _ in range(5):
        w = rng.standard_normal(3)
        p = prox(f, 1.0, w)
        q = prox(g, 1.0, 2 * p - w)
        assert np.allclose(pr.evaluate(w), w + 2.0 * (q - p))


def test_pr_shares_dr_fixed_points():
    rng = np.random.default_rng(6)
    inst = _lp_bits(rng)
    f, g = problems.split_functions(inst)
    dr, dr_extraction = make_dr(f, g, 1.0, 0.5)
    pr, pr_extraction = make_pr(f, g, 1.0)
    tr = engine.iterate(dr, 5 * np.ones(3), residual_tol=1e-12)
    assert np.linalg.norm(pr.evaluate(tr.limit) - tr.limit) <= 1e-9
    assert np.array_equal(pr_extraction(tr.limit), dr_extraction(tr.limit))


def test_pr_nonexpansive_on_samples():
    rng = np.random.default_rng(7)
    inst = _lp_bits(rng)
    f, g = problems.split_functions(inst)
    pr, _ = make_pr(f, g, 0.7)
    for _ in range(20):
        x, y = 2 * rng.standard_normal(3), 2 * rng.standard_normal(3)
        assert (np.linalg.norm(pr.evaluate(x) - pr.evaluate(y))
                <= np.linalg.norm(x - y) * (1 + 1e-9))


def test_admm_operator_is_scaled_dr():
    rng = np.random.default_rng(8)
    G = rng.standard_normal((3, 3))
    f = quadratic(G @ G.T + 0.2 * np.eye(3), rng.standard_normal(3))
    g = l1(0.8, 3)
    rho = 1.7
    admm, _ = make_admm_xy_split(f, g, rho)
    dr, _ = make_dr(f, g, rho, 0.5)
    w = rng.standard_normal(3)
    wa, wd = w.copy(), rho * w.copy()
    for _ in range(30):
        wa = admm.evaluate(wa)
        wd = dr.evaluate(wd)
        assert np.linalg.norm(rho * wa - wd) <= 1e-9 * (1 + np.linalg.norm(wd))


def test_admm_with_unit_rho_equals_dr():
    rng = np.random.default_rng(9)
    f = quadratic(np.eye(2), np.zeros(2))
    g = l1(0.3, 2)
    admm, _ = make_admm_xy_split(f, g, 1.0)
    dr, _ = make_dr(f, g, 1.0, 0.5)
    for _ in range(5):
        w = rng.standard_normal(2)
        assert np.allclose(admm.evaluate(w), dr.evaluate(w))


def test_admm_direct_matches_operator_on_lp():
    rng = np.random.default_rng(10)
    inst = _lp_bits(rng)
    f, g = problems.split_functions(inst)
    rho = 0.6
    op, _ = make_admm_xy_split(f, g, rho)
    w0 = rng.standard_normal(3)
    trace, _, _ = run_admm_direct(f, g, rho, w0=w0, iters=60)
    w = w0.copy()
    for k in range(61):
        assert np.linalg.norm(trace.iterates[k] - w) <= 1e-8
        w = op.evaluate(w)


def test_admm_direct_arbitrary_start_syncs_after_one_step():
    rng = np.random.default_rng(11)
    f = quadratic(np.diag([1.0, 3.0]), np.array([0.5, -0.5]))
    g = l1(0.4, 2)
    rho = 2.0
    op, _ = make_admm_xy_split(f, g, rho)
    w0 = rng.standard_normal(2)
    trace, _, _ = run_admm_direct(f, g, rho, y0=rng.standard_normal(2), w0=w0,
                                  iters=40)
    w = trace.iterates[1].copy()
    for k in range(1, 41):
        assert np.linalg.norm(trace.iterates[k] - w) <= 1e-9
        w = op.evaluate(w)


def test_admm_direct_identity_quadratics_converge_to_zero():
    f = quadratic(np.eye(2), np.zeros(2))
    g = quadratic(np.eye(2), np.zeros(2))
    _, xs, ys = run_admm_direct(f, g, 1.3, w0=np.array([4.0, -2.0]), iters=300)
    assert np.linalg.norm(xs[-1]) <= 1e-10
    assert np.linalg.norm(ys[-1]) <= 1e-10


def test_admm_direct_primal_residual_vanishes():
    rng = np.random.default_rng(12)
    for trial in range(5):
        dim = int(rng.integers(1, 4))
        G = rng.standard_normal((dim, dim))
        f = quadratic(G @ G.T + 0.3 * np.eye(dim), rng.standard_normal(dim))
        g = l1(float(rng.uniform(0.1, 1.0)), dim)
        _, xs, ys = run_admm_direct(f, g, float(rng.uniform(0.4, 2.0)),
                                    w0=rng.standard_normal(dim), iters=400)
        assert np.linalg.norm(xs[-1] - ys[-1]) <= 1e-8


def _averaged_operator_pool(rng):
    pool = []
    op = problems.example_contraction_operator(0.4)
    pool.append((op, np.zeros(1)))
    op = problems.example_rotation_operator(np.pi / 3)
    pool.append((op, np.zeros(2)))
    inst = _lp_bits(rng)
    f, g = problems.split_functions(inst)
    dr, _ = make_dr(f, g, 1.0, 0.5)
    fixed = engine.iterate(dr, np.zeros(3), residual_tol=1e-13).limit
    pool.append((dr, fixed))
    qp, _ = problems.generate_qp(3, 5, 2, seed=21)
    fq, gq = problems.split_functions(qp)
    drq, _ = make_dr(fq, gq, 0.5, 0.5)
    fixedq = engine.iterate(drq, np.zeros(3), residual_tol=1e-13).limit
    pool.append((drq, fixedq))
    return pool


def test_averaged_inequality_with_fixed_point():
    # (1-a)/a ||F(x)-x||^2 + ||F(x)-xhat||^2 <= ||x-xhat||^2
    rng = np.random.default_rng(13)
    for op, xhat in _averaged_operator_pool(rng):
        a = op.alpha
        for _ in range(25):
            x = xhat + 3 * rng.standard_normal(op.dimension)
            fx = op.evaluate(x)
            lhs = (1 - a) / a * np.sum((fx - x) ** 2) + np.sum((fx - xhat) ** 2)
            assert lhs <= np.sum((x - xhat) ** 2) + 1e-8


def test_averagedness_characterization_on_pairs():
    rng = np.random.default_rng(14)
    for op, xhat in _averaged_operator_pool(rng):
        a = op.alpha
        for _ in range(25):
            x = xhat + 2 * rng.standard_normal(op.dimension)
            y = xhat + 2 * rng.standard_normal(op.dimension)
            fx, fy = op.evaluate(x), op.evaluate(y)
            lhs = (1 - a) / a * np.sum(((x - fx) - (y - fy)) ** 2) \
                + np.sum((fx - fy) ** 2)
            assert lhs <= np.sum((x - y) ** 2) + 1e-8


def test_extraction_recovers_optimum():
    inst, truth = problems.generate_lp(3, 7, seed=5)
    f, g = problems.split_functions(inst)
    op, extraction = make_dr(f, g, 1.0, 0.5)
    tr = engine.iterate(op, 10 * np.ones(3), residual_tol=1e-12)
    xhat = extraction(tr.limit)
    assert problems.kkt_residual(inst, xhat) <= 1e-6
    assert abs(inst.objective(xhat)
               - inst.objective(truth.known_optimum)) <= 1e-6


@pytest.mark.parametrize("algorithm", ["dr", "pr", "admm"])
def test_extraction_shares_the_steps_projector(algorithm, monkeypatch):
    # one prepared prox map of f per operator: its step and its extraction
    # use the same Projector onto X, so the extraction starts warm
    built = []

    class CountingProjector(fpicert.prox.Projector):
        def __init__(self, poly):
            built.append(self)
            super().__init__(poly)

    monkeypatch.setattr(fpicert.prox, "Projector", CountingProjector)
    inst, truth = problems.generate_lp(3, 7, seed=5)
    op, extraction = problems.operator_for(inst, algorithm, gamma=1.0, rho=1.0)
    tr = engine.iterate(op, 10 * np.ones(3), residual_tol=1e-12, max_iters=2000)
    assert len(built) == 1
    misses = built[0].misses
    xhat = extraction(tr.limit)
    assert built[0].misses == misses
    if algorithm != "pr":
        assert problems.kkt_residual(inst, xhat) <= 1e-6


def _block_cases():
    """``build`` for every operator ``operator_for`` builds and the two
    example operators, each a test parameter with its name as id;
    ``build()`` returns a fresh operator."""
    lp, _ = problems.generate_lp(3, 6, 2)
    qp, _ = problems.generate_qp(3, 6, 2, 102)
    rng = np.random.default_rng(7)
    G = rng.standard_normal((3, 3))
    Q = G @ G.T + 0.5 * np.eye(3)
    smooth = problems.ProblemInstance(kind="lasso", c=rng.standard_normal(3), Q=Q,
                                      l1_weight=0.0)
    lasso = problems.ProblemInstance(kind="lasso", c=rng.standard_normal(3), Q=Q,
                                     l1_weight=0.3)
    quad = problems.ProblemInstance(kind="prox_demo", c=rng.standard_normal(3), Q=Q)
    l1_demo = problems.ProblemInstance(kind="prox_demo", c=np.zeros(3), l1_weight=0.4)
    lam = 0.5 / np.linalg.eigvalsh(Q).max()
    cases = [(f"{alg}-{inst.kind}", inst, alg, {})
             for inst in (lp, qp) for alg in ("dr", "pr", "admm", "gp", "pg")]
    cases += [("gd-lasso", smooth, "gd", {"lam": lam}),
              ("pg-lasso", lasso, "pg", {"lam": lam}),
              ("admm-lasso", lasso, "admm", {}),
              ("prox-quadratic", quad, "prox", {}),
              ("prox-l1", l1_demo, "prox", {})]
    builds = [pytest.param(lambda inst=inst, alg=alg, kw=kw:
                           problems.operator_for(inst, alg, **kw)[0], id=name)
              for name, inst, alg, kw in cases]
    builds += [pytest.param(lambda: problems.example_contraction_operator(0.3),
                            id="contraction"),
               pytest.param(lambda: problems.example_rotation_operator(np.pi / 3),
                            id="rotation")]
    return builds


@pytest.mark.parametrize("build", _block_cases())
def test_evaluate_maps_each_row_of_a_block(build):
    # one calling convention: a block of rows maps as its rows one by one
    op = build()
    U = 3.0 * np.random.default_rng(8).standard_normal((40, op.dimension))
    one = build()
    expected = np.array([one.evaluate(u) for u in U])
    got = op.evaluate(U)
    assert got.shape == U.shape
    scale = 1.0 + np.linalg.norm(U, axis=1)
    assert (np.linalg.norm(got - expected, axis=1) <= 1e-12 * scale).all()
