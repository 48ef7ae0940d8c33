import numpy as np
import pytest

from fpicert import engine, problems
from fpicert.errors import ParseError, ValidationError
from fpicert.linalg import condition_number_plus
from fpicert.operators import make_dr
from fpicert.problems import (ProblemInstance, generate_lp, generate_qp,
                              kkt_residual, load, operator_for, save, serialize)
from oracles import example_operators

TINY_LP = "A: -1\nb: 0\nc: 1\nkind: lp\nm: 1\nn: 1\n"


def test_load_minimal_lp(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_LP)
    inst = load(path)
    assert inst.kind == "lp" and inst.dim == 1
    assert np.allclose(inst.X.A, [[-1.0]])
    assert np.allclose(inst.c, [1.0])


def test_load_rejects_asymmetric_q(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Q: 1 2 0 1\nA: 1 0\nb: 1\nc: 0 0\nkind: qp\nm: 1\nn: 2\n")
    with pytest.raises(ValidationError) as err:
        load(path)
    assert err.value.reason == "not_psd" and err.value.field == "Q"


def test_load_rejects_infeasible_constraints(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("A: 1 -1\nb: -1 -1\nc: 1\nkind: lp\nm: 2\nn: 1\n")
    with pytest.raises(ValidationError) as err:
        load(path)
    assert err.value.reason == "infeasible"


def test_load_rejects_shape_mismatch(tmp_path):
    path = tmp_path / "shape.txt"
    # the second file's row under m = 0 was dropped, leaving the LP
    # unconstrained
    for text, field in (("A: 1 0\nb: 1\nc: 1\nkind: lp\nm: 1\nn: 2\n", "c"),
                        ("A: 1 0\nb: -5\nc: 1 0\nkind: lp\nm: 0\nn: 2\n", "A")):
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load(path)
        assert err.value.reason == "shape_mismatch" and err.value.field == field


#: A value for every optional field of any kind.
FIELD_VALUES = {"Q": "1 0 0 1", "A": "1 0", "b": "1", "l1_weight": "0.5"}


@pytest.mark.parametrize("kind", problems.KIND_FIELDS)
def test_load_checks_the_fields_of_each_kind(kind, tmp_path):
    reads, requires = problems.KIND_FIELDS[kind]
    base = {"kind": kind, "n": "2", "m": "0", "c": "0 0",
            **{key: FIELD_VALUES[key] for key in requires}}
    path = tmp_path / "p.txt"

    def load_with(fields):
        path.write_text("".join(f"{k}: {v}\n" for k, v in fields.items()))
        return load(path)

    assert load_with(base).kind == kind
    # an LP or QP with l1_weight, and a lasso with A and b, were accepted
    # and the unread term silently dropped
    for key in sorted(FIELD_VALUES.keys() - reads) + ["l1weight"]:
        with pytest.raises(ValidationError) as err:
            load_with({**base, key: FIELD_VALUES.get(key, "1")})
        assert err.value.field == key
    for key in requires:
        with pytest.raises(ValidationError) as err:
            load_with({k: v for k, v in base.items() if k != key})
        assert err.value.field == key


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("kind lp\n")
    with pytest.raises(ParseError):
        load(path)


def test_round_trip_is_byte_identical(tmp_path):
    inst, _ = generate_qp(3, 5, 2, seed=4)
    p1 = tmp_path / "a.txt"
    save(inst, p1)
    again = load(p1)
    assert serialize(again) == p1.read_text()
    p2 = tmp_path / "b.txt"
    save(again, p2)
    assert p1.read_text() == p2.read_text()


def test_generate_lp_planted_optimum():
    for seed in range(6):
        inst, truth = generate_lp(3, 7, seed=seed)
        assert kkt_residual(inst, truth.known_optimum) <= 1e-10
        assert inst.X.contains(truth.known_optimum, tol=1e-10)


def test_generate_lp_one_dimensional_reduces_to_halfspace():
    inst, truth = generate_lp(1, 1, seed=0)
    assert inst.X.num_rows == 1
    assert kkt_residual(inst, truth.known_optimum) <= 1e-12


def test_generators_deterministic():
    a, _ = generate_lp(4, 9, seed=123)
    b, _ = generate_lp(4, 9, seed=123)
    assert serialize(a) == serialize(b)
    qa, _ = generate_qp(3, 6, 2, seed=7)
    qb, _ = generate_qp(3, 6, 2, seed=7)
    assert serialize(qa) == serialize(qb)


def test_generate_qp_condition_number_and_rank():
    for kappa in (1.5, 3.0, 8.0):
        inst, truth = generate_qp(4, 6, 3, seed=2, kappa_plus=kappa)
        got = condition_number_plus(inst.Q)
        assert abs(got - kappa) / kappa <= 0.05
        assert np.linalg.matrix_rank(inst.Q, tol=1e-9) == 3
        assert kkt_residual(inst, truth.known_optimum) <= 1e-8


def test_generate_qp_unconstrained_full_rank():
    inst, truth = generate_qp(3, 0, 3, seed=3)
    assert inst.X.num_rows == 0
    assert np.allclose(truth.known_optimum,
                       np.linalg.solve(inst.Q, -inst.c), atol=1e-10)
    assert kkt_residual(inst, truth.known_optimum) <= 1e-8
    with pytest.raises(ValueError):
        generate_qp(3, 0, 2, seed=3)  # rank-deficient unconstrained


def test_qp_extraction_gap_with_rank_deficiency():
    inst, truth = generate_qp(3, 6, 2, seed=11)
    f, g = problems.split_functions(inst)
    gamma = 0.5 / np.linalg.eigvalsh(inst.Q).max()
    op, extraction = make_dr(f, g, gamma, 0.5)
    tr = engine.iterate(op, np.zeros(3), residual_tol=1e-12)
    xhat = extraction(tr.limit)
    assert abs(inst.objective(xhat)
               - inst.objective(truth.known_optimum)) <= 1e-6


def test_example_operators_grids():
    ops = example_operators()
    assert len(ops) == 8
    rng = np.random.default_rng(0)
    for theta in (np.pi / 6, np.pi / 2):
        op = problems.example_rotation_operator(theta)
        for _ in range(5):
            x = rng.standard_normal(2)
            assert np.linalg.norm(op.evaluate(x)) == pytest.approx(
                np.cos(theta / 2) * np.linalg.norm(x), abs=1e-12)
            assert np.linalg.norm(op.evaluate(x) - x) == pytest.approx(
                np.sin(theta / 2) * np.linalg.norm(x), abs=1e-12)
    gd = problems.example_contraction_operator(0.4)
    assert np.allclose(gd.evaluate(np.zeros(1)), np.zeros(1))


def test_operator_dispatch():
    lp, _ = generate_lp(2, 4, seed=1)
    for algo in ("dr", "pr", "admm", "gp", "pg"):
        op, _ = operator_for(lp, algo, gamma=1.0, alpha=0.5, lam=0.1, rho=1.0)
        assert op.dimension == 2
    qp, _ = generate_qp(2, 4, 2, seed=1)
    for algo in ("dr", "admm", "gp", "pg"):
        op, _ = operator_for(qp, algo, gamma=0.4, lam=0.1)
        assert op.dimension == 2
    with pytest.raises(ValueError):
        operator_for(lp, "prox")


@pytest.mark.parametrize("inst", [generate_lp(3, 6, 0)[0],
                                  generate_qp(3, 6, 2, 4)[0]],
                         ids=["lp", "qp"])
def test_gradient_projection_is_proximal_gradient_with_the_indicator(inst):
    # on an LP or QP gp and pg are one operator, and neither reads gamma
    x0 = np.full(inst.dim, 3.0)
    gp, _ = operator_for(inst, "gp", lam=0.1)
    pg, _ = operator_for(inst, "pg", gamma=0.37, lam=0.1)
    assert gp.alpha == pg.alpha
    a = engine.iterate(gp, x0, residual_tol=1e-12, max_iters=500)
    b = engine.iterate(pg, x0, residual_tol=1e-12, max_iters=500)
    assert a.num_steps > 1
    assert np.array_equal(a.iterates, b.iterates)
    assert np.array_equal(a.residuals, b.residuals)


def test_prox_demo_dispatch():
    inst = ProblemInstance(kind="prox_demo", c=np.zeros(2), l1_weight=1.0)
    op, _ = operator_for(inst, "prox", gamma=0.5)
    tr = engine.iterate(op, np.array([3.0, -0.2]), residual_tol=1e-12)
    assert np.allclose(tr.limit, 0.0, atol=1e-10)
    with pytest.raises(ValueError):
        operator_for(inst, "dr")


def test_lasso_dispatch_and_kkt():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 3))
    b = rng.standard_normal(8)
    inst = ProblemInstance(kind="lasso", c=-A.T @ b, Q=A.T @ A, l1_weight=0.7)
    op, extraction = operator_for(inst, "dr", gamma=0.5, alpha=0.5)
    tr = engine.iterate(op, np.zeros(3), residual_tol=1e-12)
    xhat = extraction(tr.limit)
    assert kkt_residual(inst, xhat) <= 1e-7


def test_kkt_residual_flags_suboptimal_points():
    inst, truth = generate_lp(2, 5, seed=9)
    bad = truth.known_optimum + np.array([0.5, 0.5])
    assert kkt_residual(inst, bad) > 1e-3
