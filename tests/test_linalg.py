import numpy as np
import pytest
import scipy.linalg

from fpicert.errors import NotPSD, ZeroMatrix
from fpicert.linalg import (condition_number_plus, pseudo_inverse,
                            spectral_summary)


def test_pseudo_inverse_identity():
    assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))


def test_pseudo_inverse_single_row():
    A = np.array([[2.0, 0.0]])
    assert np.allclose(pseudo_inverse(A), np.array([[0.5], [0.0]]))


def test_pseudo_inverse_full_row_rank_matches_normal_equations():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 6))
    Ad = pseudo_inverse(A)
    assert np.allclose(Ad, A.T @ np.linalg.inv(A @ A.T), atol=1e-10)
    assert np.linalg.norm(A @ Ad @ A - A) <= 1e-10


@pytest.mark.parametrize("shape,rank", [((4, 6), 4), ((6, 4), 3), ((5, 5), 2)])
def test_moore_penrose_identities(shape, rank):
    rng = np.random.default_rng(7)
    A = (rng.standard_normal((shape[0], rank))
         @ rng.standard_normal((rank, shape[1])))
    Ad = pseudo_inverse(A)
    nA, nAd = np.linalg.norm(A), np.linalg.norm(Ad)
    assert np.linalg.norm(A @ Ad @ A - A) <= 1e-9 * nA
    assert np.linalg.norm(Ad @ A @ Ad - Ad) <= 1e-9 * nAd
    assert np.linalg.norm(A @ Ad - (A @ Ad).T) <= 1e-9
    assert np.linalg.norm(Ad @ A - (Ad @ A).T) <= 1e-9


def test_projector_spectrum():
    # every nonzero singular value of pinv(A) A equals 1
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = rng.integers(1, 7, size=2)
        A = rng.standard_normal((m, n))
        P = pseudo_inverse(A) @ A
        svals = np.linalg.svd(P, compute_uv=False)
        nonzero = svals[svals > 1e-9]
        assert np.all(np.abs(nonzero - 1.0) <= 1e-9)


def test_spectral_summary_diagonal():
    s = spectral_summary(np.diag([3.0, 2.0, 0.0]))
    assert np.allclose(s.singular_values, [3.0, 2.0, 0.0])
    assert s.rank == 2
    assert s.sigma_min_plus == pytest.approx(2.0)
    b = np.array([3.0, 4.0, 5.0])
    assert np.allclose(s.least_norm_solution(b), [1.0, 2.0, 0.0])


def test_spectral_summary_ignores_values_below_the_cutoff():
    # singular values (1, 1e-12): the 1e-12 direction is below the
    # 1e-10 cutoff, so it counts as null and is not inverted, where
    # lstsq's default cutoff (about n * eps * sigma_max) would invert it
    rng = np.random.default_rng(12)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    A = U @ np.diag([1.0, 1e-12]) @ V.T
    b = rng.standard_normal(2)
    s = spectral_summary(A)
    assert s.rank == 1 and s.sigma_min_plus == pytest.approx(1.0)
    x = s.least_norm_solution(b)
    assert np.allclose(x, np.linalg.pinv(A, rcond=1e-10) @ b, rtol=0, atol=1e-12)
    assert np.linalg.norm(np.linalg.lstsq(A, b, rcond=None)[0]) > 1e10
    R, N = s.row_basis, s.null_basis
    assert R.shape == (1, 2) and N.shape == (2, 1)
    assert np.allclose(np.vstack([R, N.T]) @ np.vstack([R, N.T]).T, np.eye(2), atol=1e-12)
    assert np.abs(A @ N).max() <= 1e-11


def test_spectral_summary_zero_matrix():
    s = spectral_summary(np.zeros((3, 4)))
    assert s.rank == 0
    assert s.sigma_min_plus == 0.0
    assert s.row_basis.shape == (0, 4) and s.null_basis.shape == (4, 4)
    assert np.array_equal(s.least_norm_solution(np.ones(3)), np.zeros(4))


def test_spectral_summary_scaled_projector():
    # M = 2*alpha*pinv(AJ) AJ with full-row-rank AJ and alpha = 0.5:
    # all positive singular values equal 2*alpha = 1
    rng = np.random.default_rng(11)
    AJ = rng.standard_normal((3, 5))
    M = 2 * 0.5 * (pseudo_inverse(AJ) @ AJ)
    s = spectral_summary(M)
    assert s.rank == 3
    assert s.sigma_min_plus == pytest.approx(1.0, abs=1e-12)


def test_spectral_summary_of_a_stack_ranks_each_slice_as_one_matrix():
    # slices of rank 0 to 4 at scales far apart, so one slice's cutoff
    # would misrank another's; and the least-norm solutions per slice
    rng = np.random.default_rng(13)
    stack = np.stack([scale * rng.standard_normal((5, r)) @ rng.standard_normal((r, 4))
                      for r in range(5) for scale in (1e-6, 1.0, 1e6)])
    b = rng.standard_normal((len(stack), 5))
    s = spectral_summary(stack)
    assert s.rank.tolist() == [r for r in range(5) for _ in range(3)]
    for i, A in enumerate(stack):
        one = spectral_summary(A)
        assert (s.rank[i], s.sigma_min_plus[i]) == (one.rank, one.sigma_min_plus)
        x = s.least_norm_solution(b)[i]
        assert np.allclose(x, one.least_norm_solution(b[i]), rtol=0,
                           atol=1e-12 * (1.0 + np.linalg.norm(x)))


def test_spectral_summary_of_a_stack_with_a_zero_slice():
    s = spectral_summary(np.stack([np.zeros((3, 3)), np.eye(3)]))
    assert s.rank.tolist() == [0, 3]
    assert s.sigma_min_plus.tolist() == [0.0, 1.0]
    assert np.array_equal(s.least_norm_solution(np.ones((2, 3))), [[0.0] * 3, [1.0] * 3])


def test_spectral_summary_rejects_a_non_finite_entry_of_a_stack():
    stack = np.zeros((3, 2, 2))
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValueError):
        spectral_summary(stack)


def test_condition_number_identity():
    assert condition_number_plus(np.eye(4)) == pytest.approx(1.0)


def test_condition_number_rank_deficient_diagonal():
    assert condition_number_plus(np.diag([4.0, 1.0, 0.0])) == pytest.approx(4.0)


def test_condition_number_matches_independent_eigensolver():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((6, 3))
    Q = G @ G.T  # rank 3 of 6
    got = condition_number_plus(Q)
    eigs = scipy.linalg.eigh(Q, eigvals_only=True)
    positive = eigs[eigs > 1e-10 * eigs[-1]]
    assert got == pytest.approx(eigs[-1] / positive[0], abs=1e-9)


def test_condition_number_scale_invariance():
    rng = np.random.default_rng(6)
    G = rng.standard_normal((5, 4))
    Q = G @ G.T
    base = condition_number_plus(Q)
    for c in (1e-3, 7.0, 1e4):
        assert condition_number_plus(c * Q) == pytest.approx(base, rel=1e-10)


def test_condition_number_rejects_asymmetric():
    with pytest.raises(NotPSD):
        condition_number_plus(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_condition_number_rejects_indefinite():
    with pytest.raises(NotPSD):
        condition_number_plus(np.diag([1.0, -0.5]))


def test_condition_number_rejects_zero():
    with pytest.raises(ZeroMatrix):
        condition_number_plus(np.zeros((3, 3)))


def test_null_and_row_space_bases():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((2, 5))
    s = spectral_summary(A)
    R, N = s.row_basis, s.null_basis
    assert N.shape == (5, 3) and R.shape == (2, 5)
    assert np.abs(A @ N).max() <= 1e-12
    assert np.allclose(R @ R.T, np.eye(2), atol=1e-12)
