"""Batched computations over recorded traces against their one-row
references: ``FixedPointSetDescription.distances`` against ``distance``,
and ``verify.per_step_contraction_checks`` against a plain loop.

The traces are the acceptance QPs s106 and s117 as ``verify`` runs them
(gamma*lambda_max = 1/2, alpha = 1/2, started 30 away); s106 stalls, so
its trace is cut at 10,000 steps.
"""

import numpy as np
import pytest

from fpicert import analysis, engine, problems, rates, verify
from fpicert.linalg import lambda_max_psd
from fpicert.operators import make_dr
from fpicert.polyhedra import project_polyhedron


def _record(n, m, rank_q, seed, max_iters):
    inst, _ = problems.generate_qp(n, m, rank_q, seed)
    gamma = 0.5 / lambda_max_psd(inst.Q)
    pieces = analysis.enumerate_pieces_qp(inst.X, inst.Q, inst.c, gamma, 0.5)
    fixset = analysis.fixed_point_set(pieces)
    f, g = problems.split_functions(inst)
    op, _ = make_dr(f, g, gamma, 0.5)
    direction = np.random.default_rng(seed).standard_normal(n)
    direction /= np.linalg.norm(direction)
    trace = engine.iterate(op, fixset.representative + 30.0 * direction,
                           residual_tol=1e-10, max_iters=max_iters, fixset=fixset)
    return trace, fixset, analysis.error_bound_constant(pieces, fixset)


@pytest.fixture(scope="module")
def traces():
    return {"s106": _record(3, 6, 2, 106, 10_000),
            "s117": _record(4, 8, 3, 117, 200_000)}


@pytest.fixture
def scalar_calls(monkeypatch):
    """Rows that ``distances`` sent to the scalar ``distance``."""
    calls = []
    scalar = analysis.FixedPointSetDescription.distance

    def counting(self, x):
        calls.append(1)
        return scalar(self, x)

    monkeypatch.setattr(analysis.FixedPointSetDescription, "distance", counting)
    return calls


def _one_by_one(fixset, xs):
    return np.array([fixset.distance(x) for x in xs])


def test_batched_distances_match_scalar_on_traces(traces):
    for trace, fixset, _ in traces.values():
        batched = fixset.distances(trace.iterates)
        assert np.abs(batched - _one_by_one(fixset, trace.iterates)).max() <= 1e-12
        assert np.array_equal(batched, trace.dist_to_fix)


def test_batched_distances_fall_back_off_the_affine_hits(scalar_calls):
    # a point set, where every row is an affine hit, and an LP whose
    # fixed set has nine pieces, where some rows miss
    rng = np.random.default_rng(0)
    point = analysis.point_fixed_set(rng.standard_normal(3))
    xs = point.representative + rng.standard_normal((300, 3))
    batched = point.distances(xs)
    assert not scalar_calls
    assert np.abs(batched - _one_by_one(point, xs)).max() <= 1e-12
    inst, _ = problems.generate_lp(3, 6, 0)
    pieces = analysis.enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.5)
    fixset = analysis.fixed_point_set(pieces)
    assert len(fixset.pieces) > 1
    xs = fixset.representative + rng.standard_normal((300, 3))
    scalar_calls.clear()
    batched = fixset.distances(xs)
    assert 0 < len(scalar_calls) < len(xs)
    assert np.abs(batched - _one_by_one(fixset, xs)).max() <= 1e-12


def test_fallback_projections_are_warm_and_exact():
    # the nine-piece LP fixed set: rows whose affine projections miss go
    # through the set's cached Projector, whose answers match a cold
    # projection onto the set
    rng = np.random.default_rng(1)
    inst, _ = problems.generate_lp(3, 6, 0)
    fixset = analysis.fixed_point_set(
        analysis.enumerate_pieces_lp(inst.X, inst.c, 1.0, 0.5))
    xs = fixset.representative + rng.standard_normal((300, 3))
    cold = [np.linalg.norm(x - project_polyhedron(fixset.poly, x)) for x in xs]
    assert np.abs(fixset.distances(xs) - cold).max() <= 1e-12
    assert "projector" in vars(fixset) and fixset.projector.hits > 0


def _per_step_loop(trace, K, alpha):
    """The loop form of ``per_step_contraction_checks``."""
    cert = rates.rates_from_K(alpha, K)
    d, r = trace.dist_to_fix, trace.residuals
    qualifying = [k for k in range(len(r))
                  if d[k] <= K * r[k] * (1.0 + 1e-9) + 1e-12]
    dist_slack = 0.0
    for k in qualifying:
        dist_slack = max(dist_slack, d[k + 1] - cert.rho_dist * d[k])
    qualifying_set = set(qualifying)
    k0 = len(r)
    for k in reversed(range(len(r))):
        if k not in qualifying_set:
            break
        k0 = k
    norms = np.linalg.norm(trace.iterates - trace.limit, axis=1)
    seq_slack = 0.0
    for k in range(k0, len(r)):
        seq_slack = max(seq_slack, norms[k + 1] - cert.rho_seq * norms[k])
    return {"rho_dist": cert.rho_dist, "rho_seq": cert.rho_seq,
            "distance_form_slack": dist_slack, "sequence_form_slack": seq_slack,
            "qualifying_steps": len(qualifying), "sequence_from": k0}


@pytest.mark.parametrize("name", ["s106", "s117"])
@pytest.mark.parametrize("certified", [True, False])
def test_per_step_checks_equal_the_loop(traces, name, certified):
    # K = 2, far below the certified constant, leaves steps outside the
    # error bound, so the sequence form starts after the last of them
    trace, _, K = traces[name]
    K = K if certified else 2.0
    got = verify.per_step_contraction_checks(trace, K, 0.5)
    assert got == _per_step_loop(trace, K, 0.5)
    if not certified:
        assert 0 < got["qualifying_steps"] < trace.num_steps
