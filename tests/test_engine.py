import numpy as np
import pytest

from fpicert import analysis, engine, problems, rates, verify
from fpicert.errors import EmptyFixedSet, NonFinite, TooShort
from fpicert.operators import FixedPointOperator, Provenance, make_dr


def _op(fn, dim, alpha=0.5):
    return FixedPointOperator(dimension=dim, alpha=alpha, evaluate=fn,
                              provenance=Provenance("test"))


def test_iterate_identity_stops_immediately():
    op = _op(lambda x: x, 2)
    tr = engine.iterate(op, np.array([1.0, 2.0]), residual_tol=1e-12)
    assert tr.num_steps == 1
    assert tr.residuals[0] == 0.0
    assert tr.stop_reason == engine.STOP_RESIDUAL


def test_iterate_contraction_residuals_halve():
    op = problems.example_contraction_operator(0.5)
    tr = engine.iterate(op, np.array([1.0]), residual_tol=1e-12)
    ratios = tr.residuals[1:] / tr.residuals[:-1]
    assert np.allclose(ratios, 0.5, atol=1e-9)


def test_iterate_rotation_residual_ratio():
    theta = np.pi / 2
    op = problems.example_rotation_operator(theta)
    tr = engine.iterate(op, np.array([1.0, 0.0]), residual_tol=1e-10)
    ratios = tr.residuals[1:] / tr.residuals[:-1]
    assert np.allclose(ratios, np.cos(theta / 2), atol=1e-9)


@pytest.mark.filterwarnings("ignore:overflow")
def test_iterate_rejects_nonfinite():
    op = _op(lambda x: x * 2.0 + 1e308, 1)
    with pytest.raises(NonFinite):
        engine.iterate(op, np.array([1.0]), max_iters=10)


def test_iterate_max_iters_stop():
    op = problems.example_rotation_operator(np.pi / 6)
    tr = engine.iterate(op, np.array([1.0, 0.0]), residual_tol=1e-30,
                        max_iters=15)
    assert tr.stop_reason == engine.STOP_MAX_ITERS
    assert tr.num_steps == 15


def test_residual_monotonicity_for_averaged_operators():
    ops = [problems.example_contraction_operator(0.3),
           problems.example_rotation_operator(2 * np.pi / 3)]
    inst, _ = problems.generate_lp(3, 7, seed=2)
    f, g = problems.split_functions(inst)
    ops.append(make_dr(f, g, 1.0, 0.5)[0])
    rng = np.random.default_rng(0)
    for op in ops:
        tr = engine.iterate(op, 5 * rng.standard_normal(op.dimension),
                            residual_tol=1e-12)
        diffs = np.diff(tr.residuals)
        assert diffs.max(initial=0.0) <= 1e-12


def test_estimate_rates_contraction_exact():
    for lam in (0.1, 0.3, 0.5, 0.9):
        op = problems.example_contraction_operator(lam)
        fs = analysis.point_fixed_set(np.zeros(1))
        er = engine.estimate_rates(op, fs, R=1.0, samples=50, seed=1)
        assert er.k_tilde == pytest.approx(1.0 / lam, abs=1e-9)
        assert er.rho_tilde == pytest.approx(1.0 - lam, abs=1e-9)


def test_estimate_rates_rotation():
    theta = np.pi / 3
    op = problems.example_rotation_operator(theta)
    fs = analysis.point_fixed_set(np.zeros(2))
    er = engine.estimate_rates(op, fs, R=2.0, samples=100, seed=2)
    assert er.k_tilde == pytest.approx(1.0 / np.sin(theta / 2), abs=1e-6)
    assert er.rho_tilde == pytest.approx(np.cos(theta / 2), abs=1e-6)


def test_estimate_rates_deterministic():
    op = problems.example_rotation_operator(np.pi / 2)
    fs = analysis.point_fixed_set(np.zeros(2))
    a = engine.estimate_rates(op, fs, R=1.0, samples=64, seed=9)
    b = engine.estimate_rates(op, fs, R=1.0, samples=64, seed=9)
    assert a == b


def _estimate_rates_loop(F, fixset, R, samples, seed):
    """Reference: one sample at a time with the scalar ``distance``."""
    rng = np.random.default_rng(seed)
    center = fixset.representative
    rho_max = k_max = 0.0
    used = 0
    for _ in range(samples):
        direction = rng.standard_normal(center.shape[0])
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            continue
        x = center + (R * rng.uniform(0.0, 1.0)) * direction / norm
        d_x = fixset.distance(x)
        if d_x <= 1e-14 * (1.0 + np.linalg.norm(x)):
            continue
        fx = F.evaluate(x)
        rho_max = max(rho_max, fixset.distance(fx) / d_x)
        k_max = max(k_max, d_x / np.linalg.norm(fx - x))
        used += 1
    return rho_max, k_max, used


def test_batched_estimate_rates_matches_the_loop(monkeypatch):
    # an LP with a nine-piece fixed set (some distances fall back to a
    # projection) and a QP; the batched and scalar distances agree to
    # roundoff, far inside the projection slack KKT_TOL = 1e-8
    cases = []
    for inst, _ in (problems.generate_lp(3, 6, 0), problems.generate_qp(3, 6, 2, 4)):
        gamma = 1.0 if inst.Q is None else 0.5 / np.linalg.eigvalsh(inst.Q).max()
        f, g = problems.split_functions(inst)
        op, _ = make_dr(f, g, gamma, 0.5)
        if inst.Q is None:
            pieces = analysis.enumerate_pieces_lp(inst.X, inst.c, gamma, 0.5)
        else:
            pieces = analysis.enumerate_pieces_qp(inst.X, inst.Q, inst.c, gamma, 0.5)
        cases.append((op, analysis.fixed_point_set(pieces)))
    batched = analysis.FixedPointSetDescription.distances
    calls = []

    def counting(self, xs):
        calls.append(len(xs))
        return batched(self, xs)

    monkeypatch.setattr(analysis.FixedPointSetDescription, "distances", counting)
    for op, fs in cases:
        for R in (1e-3, 1.0):
            calls.clear()
            er = engine.estimate_rates(op, fs, R=R, samples=200, seed=5)
            rho, k, used = _estimate_rates_loop(op, fs, R, 200, 5)
            assert calls == [200, used] and er.sample_count == used
            assert er.k_tilde == pytest.approx(k, rel=1e-8)
            assert er.rho_tilde == pytest.approx(rho, abs=1e-8)


def test_estimate_rates_needs_fixed_set():
    op = problems.example_contraction_operator(0.5)
    with pytest.raises(EmptyFixedSet):
        engine.estimate_rates(op, None, R=1.0)


def test_sandwich_on_shipped_operators():
    # measured quantities respect both two-sided chains
    cases = []
    op = problems.example_contraction_operator(0.3)
    cases.append((op, analysis.point_fixed_set(np.zeros(1)), 1.0))
    op = problems.example_rotation_operator(np.pi / 4)
    cases.append((op, analysis.point_fixed_set(np.zeros(2)), 1.0))
    inst, _ = problems.generate_lp(3, 6, seed=4)
    f, g = problems.split_functions(inst)
    dr, _ = make_dr(f, g, 1.0, 0.5)
    pieces = analysis.enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.5)
    fs = analysis.fixed_point_set(pieces)
    cases.append((dr, fs, 1e-3))
    qp, _ = problems.generate_qp(3, 6, 2, seed=4)
    fq, gq = problems.split_functions(qp)
    gamma = 0.5 / np.linalg.eigvalsh(qp.Q).max()
    drq, _ = make_dr(fq, gq, gamma, 0.5)
    piecesq = analysis.enumerate_pieces_qp(qp.X, qp.Q, qp.c, gamma, 0.5)
    cases.append((drq, analysis.fixed_point_set(piecesq), 1e-3))
    for op, fs, R in cases:
        er = engine.estimate_rates(op, fs, R=R, samples=100, seed=3)
        assert 0.0 <= er.rho_tilde <= 1.0
        sw = rates.sandwich(op.alpha, er.rho_tilde, er.k_tilde)
        assert all(s >= -1e-6 for s in sw.slacks.values())


def test_fit_exact_geometric_sequence():
    q = 0.37
    tr = engine.IterationTrace(
        iterates=np.zeros((41, 1)),
        residuals=q ** np.arange(40),
        limit=np.zeros(1), stop_reason=engine.STOP_MAX_ITERS)
    assert engine.fit_asymptotic_rate(tr, 0.5) == pytest.approx(q, abs=1e-12)


def test_fit_contraction_trace():
    lam = 0.3
    op = problems.example_contraction_operator(lam)
    tr = engine.iterate(op, np.array([1.0]), residual_tol=1e-11)
    assert engine.fit_asymptotic_rate(tr, 0.5) == pytest.approx(1 - lam,
                                                                abs=1e-9)


def test_fit_too_short():
    tr = engine.IterationTrace(
        iterates=np.zeros((6, 1)), residuals=np.full(5, 0.5),
        limit=np.zeros(1), stop_reason=engine.STOP_MAX_ITERS)
    with pytest.raises(TooShort):
        engine.fit_asymptotic_rate(tr, 1.0)


def test_fit_zero_residual_means_finite_convergence():
    r = np.concatenate([0.5 ** np.arange(15), [0.0] * 15])
    tr = engine.IterationTrace(
        iterates=np.zeros((31, 1)), residuals=r,
        limit=np.zeros(1), stop_reason=engine.STOP_MAX_ITERS)
    assert engine.fit_asymptotic_rate(tr, 1.0) == 0.0


def test_terminal_contraction_counts_a_roundoff_residual_as_finite_convergence():
    # three steps ending at roundoff, at exactly 0.0, or at a residual well
    # above the floor 1e-13 * (1 + ||limit||) = 4e-13
    def terminal(last):
        tr = engine.IterationTrace(
            iterates=np.zeros((4, 1)), residuals=np.array([0.6, 0.3, last]),
            limit=np.full(1, 3.0), stop_reason=engine.STOP_RESIDUAL)
        return verify.terminal_contraction(tr)
    assert terminal(4e-16) == terminal(0.0) == (0.0, "finite-convergence")
    fit, mode = terminal(5e-11)
    assert mode == "finite-convergence-fallback"
    assert fit == pytest.approx((5e-11 / 0.6) ** 0.5)
