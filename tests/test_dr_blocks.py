"""The block path of the Douglas-Rachford step (``AffineDRStep.orbit``)
against the one-step path it replaces.

``engine.iterate`` steps in blocks when ``op.evaluate`` has ``orbit``;
wrapping the step in a plain function hides it, which gives the one-step
reference.  Runs are started as ``verify`` starts them: 30 away from the
fixed-point set, gamma*lambda_max = 1/2 for a QP and gamma = 1 for an LP,
alpha = 1/2.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fpicert import engine, problems, verify
from fpicert import prox as fn
from fpicert.errors import NonFinite
from fpicert.linalg import lambda_max_psd
from fpicert.operators import (FIRST_BLOCK, MAX_BLOCK, FixedPointOperator, Provenance,
                               make_dr)
from fpicert.polyhedra import Face, Polyhedron, Projector, project_polyhedron

CASES = {"s117": ("qp", 4, 8, 3, 117), "s106": ("qp", 3, 6, 2, 106),
         "lp-s12": ("lp", 4, 8, 0, 12)}


def _start(name):
    kind, n, m, rank_q, seed = CASES[name]
    if kind == "qp":
        inst, _ = problems.generate_qp(n, m, rank_q, seed)
        gamma = 0.5 / lambda_max_psd(inst.Q)
    else:
        inst, _ = problems.generate_lp(n, m, seed)
        gamma = 1.0
    fixset = verify.certify(inst, gamma, 0.5)[1]
    direction = np.random.default_rng(seed).standard_normal(n)
    direction /= np.linalg.norm(direction)
    return inst, gamma, fixset.representative + 30.0 * direction


def _run(inst, gamma, x0, blocks, **kwargs):
    """A run and the DR step's projector; without ``blocks`` the step is
    wrapped in a plain function, which has no ``orbit``."""
    op, _ = make_dr(*problems.split_functions(inst), gamma, 0.5)
    step = op.evaluate
    if not blocks:
        op = dataclasses.replace(op, evaluate=lambda w: step(w))
    return engine.iterate(op, x0, **kwargs), step.prox_f.projector


def _assert_same_run(one, block):
    assert block.num_steps == one.num_steps
    assert block.stop_reason == one.stop_reason
    scale = 1.0 + np.linalg.norm(one.iterates, axis=1)
    assert (np.abs(block.iterates - one.iterates).max(axis=1) <= 1e-10 * scale).all()
    assert np.abs(block.residuals - one.residuals).max() <= 1e-10 * scale.max()


@pytest.mark.parametrize("name, max_iters", [("s117", 200_000), ("s106", 20_000),
                                             ("lp-s12", 200_000)])
def test_blocks_follow_the_one_step_path(name, max_iters):
    inst, gamma, x0 = _start(name)
    one, p_one = _run(inst, gamma, x0, False, max_iters=max_iters)
    block, p_block = _run(inst, gamma, x0, True, max_iters=max_iters)
    _assert_same_run(one, block)
    assert (p_block.hits, p_block.misses) == (p_one.hits, p_one.misses)
    assert p_one.hits > p_one.misses


def _row_by_row_orbit(step):
    """An ``orbit`` for ``step`` that computes each row of a block as one
    product by the held face's ``_Tt``, not by doubling."""

    def orbit(w, k, tol):
        project = step.prox_f.projector
        if project.active != step._face:
            step._hold(project)
        L = min(step._length, k)
        X = np.empty((L + 1, len(w) + 1))
        X[0] = np.append(w, 1.0)
        for j in range(L):
            X[j + 1] = step._Tt @ X[j]
        X = X[:, :-1]
        r = np.linalg.norm(X[1:] - X[:-1], axis=1)
        stop = np.flatnonzero(r <= tol)
        if stop.size:
            L = int(stop[0]) + 1
        taken = project.accept(X[:L])
        if taken < L:
            X[taken + 1] = step(X[taken])
            r[taken] = np.linalg.norm(X[taken + 1] - X[taken])
            L = taken + 1
        elif taken == step._length:
            step._length = min(2 * taken, MAX_BLOCK)
        return X[1:L + 1], r[:L]

    return orbit


def test_doubled_blocks_follow_row_by_row_blocks_over_the_s106_budget():
    # s106 stalls: it takes all 200,000 steps of its budget, nearly all in
    # blocks of MAX_BLOCK rows, so every power the doubling squares is used
    inst, gamma, x0 = _start("s106")
    runs = []
    for row_by_row in (True, False):
        op, _ = make_dr(*problems.split_functions(inst), gamma, 0.5)
        step = op.evaluate
        if row_by_row:
            step.orbit = _row_by_row_orbit(step)
        runs.append((engine.iterate(op, x0, max_iters=200_000), step.prox_f.projector))
    (rows, p_rows), (doubled, p_doubled) = runs
    _assert_same_run(rows, doubled)
    assert doubled.num_steps == 200_000
    assert (p_doubled.hits, p_doubled.misses) == (p_rows.hits, p_rows.misses)
    assert len(step._powers) == MAX_BLOCK.bit_length()  # T, T^2, ..., T^MAX_BLOCK


def test_each_held_face_starts_its_own_powers():
    # lp-s12 changes face several times: the first block on each held face
    # must be row-by-row products of that face's map, so no power of the
    # face before survives the change
    inst, gamma, x0 = _start("lp-s12")
    op, _ = make_dr(*problems.split_functions(inst), gamma, 0.5)
    step = op.evaluate
    project = step.prox_f.projector
    hold, orbit = step._hold, step.orbit
    held, checked = [], []

    def record(project):
        hold(project)
        held.append(project.active)

    def checked_orbit(w, k, tol):
        holds, misses = len(held), project.misses
        rows, r = orbit(w, k, tol)
        assert len(step._powers) <= MAX_BLOCK.bit_length()  # log2(MAX_BLOCK) + 1
        if len(held) > holds:
            kept = len(rows) - (project.misses - misses)  # a face change ends in a cold step
            x = np.append(w, 1.0)
            for row in rows[:kept]:
                x = step._Tt @ x
                assert np.abs(row - x[:-1]).max() <= 1e-12 * (1.0 + np.linalg.norm(x[:-1]))
            checked.append(kept)
        return rows, r

    step._hold = record
    step.orbit = checked_orbit
    engine.iterate(op, x0, max_iters=200_000)
    assert len(set(held)) > 1 and len(checked) == len(held)
    assert max(checked) == FIRST_BLOCK


@pytest.mark.parametrize("residual_tol, max_iters", [(1e-6, 200_000), (1e-30, 1000)])
def test_a_stop_inside_a_block_is_exact(residual_tol, max_iters):
    # s117 stays on one face for thousands of steps, so the blocks reach
    # hundreds of rows and both stops fall inside one
    inst, gamma, x0 = _start("s117")
    one, _ = _run(inst, gamma, x0, False, residual_tol=residual_tol, max_iters=max_iters)
    block, _ = _run(inst, gamma, x0, True, residual_tol=residual_tol, max_iters=max_iters)
    _assert_same_run(one, block)
    assert len(block.residuals) == block.num_steps
    assert len(block.iterates) == block.num_steps + 1
    if max_iters == 1000:
        assert block.stop_reason == engine.STOP_MAX_ITERS and block.num_steps == 1000
    else:
        assert block.stop_reason == engine.STOP_RESIDUAL
        assert block.residuals[-1] <= residual_tol < block.residuals[:-1].min()


def test_a_face_change_ends_the_block_at_the_first_uncertified_row():
    inst, gamma, w = _start("lp-s12")
    op, _ = make_dr(*problems.split_functions(inst), gamma, 0.5)
    step = op.evaluate
    project = step.prox_f.projector
    while True:  # take blocks until one meets a point off its face after a row
        face, hits, misses = project.active, project.hits, project.misses
        rows, r = step.orbit(w, 200_000, 1e-10)
        if project.misses > misses and len(rows) > 1:
            break
        if project.misses == misses:
            assert project.hits == hits + len(rows)
        w = rows[-1]
    n = len(rows) - 1
    assert n > 0 and project.hits == hits + n and project.misses == misses + 1
    starts = np.vstack([w, rows[:-1]])
    held = Projector(inst.X)
    held._cache(face)
    # the held face certifies the first n points and not the next one
    assert held.accept(starts) == n
    # the last row is one step from that point through a cold projection
    p = project_polyhedron(inst.X, starts[n])
    q = 2.0 * p - starts[n] - gamma * inst.c  # the prox of the linear objective
    assert np.allclose(rows[-1], starts[n] + (q - p), atol=1e-12)
    assert project.active != face
    assert r[-1] == pytest.approx(np.linalg.norm(rows[-1] - starts[n]))


@pytest.mark.parametrize("name", ["s117", "lp-s12"])
def test_held_faces_step_by_the_enumerated_pieces(name):
    # the block map of every face the step holds is [[I - M_J, v_J], [0, 1]]
    # of the enumerated piece on that face, to the last bit
    inst, gamma, x0 = _start(name)
    op, _ = make_dr(*problems.split_functions(inst), gamma, 0.5)
    step = op.evaluate
    held, hold = {}, step._hold

    def record(project):
        hold(project)
        held[project.active] = step._Tt.copy()

    step._hold = record
    engine.iterate(op, x0, max_iters=200_000)
    pieces = {p.active: p for p in verify.certify(inst, gamma, 0.5)[0]}
    assert len(held) > 1
    for active, Tt in held.items():
        n = len(x0)
        piece = pieces[active]
        expected = np.zeros((n + 1, n + 1))
        expected[:n, :n] = np.eye(n) - piece.M
        expected[:n, n] = piece.v
        expected[n, n] = 1.0
        assert np.array_equal(Tt, expected), active


def test_the_empty_face_projects_as_the_identity():
    inst, _, _ = _start("lp-s12")
    face = Face.of(inst.X, ())
    U = np.random.default_rng(0).standard_normal((5, inst.dim))
    for u in (U, U[0]):
        points, mult = face.project(u)
        assert np.array_equal(points, u)
        assert mult.size == 0
    assert np.array_equal(face.D, np.zeros((inst.dim, inst.dim)))
    assert np.array_equal(face.offset, np.zeros(inst.dim))


class _Overflow:
    """A step whose blocks leave the floating-point range on their
    second row."""

    def __call__(self, x):
        return x * 1e300

    def orbit(self, x, k, tol):
        rows = x * np.array([[1e300], [np.inf]])[:k]
        return rows, np.linalg.norm(rows - np.vstack([x, rows[:-1]]), axis=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_block_that_leaves_the_finite_range_raises():
    op = FixedPointOperator(dimension=1, alpha=0.5, evaluate=_Overflow(),
                            provenance=Provenance("test"))
    with pytest.raises(NonFinite):
        engine.iterate(op, np.array([1.0]))


def test_blocks_of_a_large_qp_keep_quadratic_memory():
    # n = 300 and a constraint that never binds: the blocks reach MAX_BLOCK
    # rows, and what they allocate is the cached affine step with its
    # log2(MAX_BLOCK) squarings and a few blocks of rows, never a stack of
    # one n x n power per row
    n = 300
    f = fn.polyhedral_indicator(Polyhedron(np.ones((1, n)), np.array([1e6])))
    g = fn.quadratic(np.diag(np.linspace(1e-3, 1.0, n)), np.ones(n))
    step = make_dr(f, g, 0.5, 0.5)[0].evaluate
    w = np.zeros(n)
    tracemalloc.start()
    try:
        for _ in range(9):  # 4, 8, ..., 1024 rows
            rows, r = step.orbit(w, 200_000, 0.0)
            w = rows[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == MAX_BLOCK
    assert peak <= 8 * 8 * (n * n + MAX_BLOCK * n)


def test_only_affine_pieces_get_blocks():
    # without a polyhedral f and an affine prox of g, iterate takes one
    # call per step
    box = fn.polyhedral_indicator(Polyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)))
    quadratic = fn.quadratic(np.eye(2), np.ones(2))
    l1 = fn.l1(0.5, 2)
    assert hasattr(make_dr(box, quadratic, 1.0, 0.5)[0].evaluate, "orbit")
    assert not hasattr(make_dr(box, l1, 1.0, 0.5)[0].evaluate, "orbit")
    assert not hasattr(make_dr(quadratic, l1, 1.0, 0.5)[0].evaluate, "orbit")


@pytest.mark.parametrize("name", ["s117", "lp-s12"])
def test_rows_take_one_step_from_each_row(name):
    inst, gamma, x0 = _start(name)
    op, _ = make_dr(*problems.split_functions(inst), gamma, 0.5)
    U = x0 + np.random.default_rng(1).standard_normal((40, len(x0)))
    one, _ = make_dr(*problems.split_functions(inst), gamma, 0.5)
    expected = np.array([one.evaluate(u) for u in U])
    got = op.evaluate(U)
    assert np.abs(got - expected).max() <= 1e-12 * (1.0 + np.abs(U).max())
    project = op.evaluate.prox_f.projector
    assert project.hits + project.misses == len(U)
