"""Dense matrix kernels used by the analysis layer.

Everything here is SVD- or eigendecomposition-based and meant for
desk-scale matrices (a few hundred rows at most); no sparse formats.
All functions are pure and safe to call concurrently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotPSD, ZeroMatrix

#: Relative cutoff separating "zero" from "positive" singular values.
DEFAULT_RANK_TOL = 1e-10

#: Tolerance of the symmetry and PSD check on problem data.
PSD_TOL = 1e-9


def as_matrices(A):
    """Return ``A`` as a finite float array of one matrix or a stack of
    them (``ndim >= 2``), validating the entries."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return A


def as_matrix(A):
    """Return ``A`` as a finite 2-d float array, validating the entries."""
    A = as_matrices(A)
    if A.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={A.ndim}")
    return A


def pseudo_inverse(A):
    """Moore-Penrose pseudoinverse of a dense matrix.

    Defined for every matrix via the SVD.  For full-row-rank ``A`` this
    equals ``A.T @ inv(A @ A.T)``.
    """
    A = as_matrix(A)
    return np.linalg.pinv(A, rcond=DEFAULT_RANK_TOL)


@dataclass(frozen=True)
class SpectralSummary:
    """The SVD ``A = U diag(singular_values) Vt`` of a matrix with its
    numerical rank, the count of singular values above ``tol * sigma_max``;
    ``sigma_min_plus`` is the smallest of them (0.0 for the zero matrix).
    For a stack of matrices every field is stacked along the leading
    axes, ``rank`` and ``sigma_min_plus`` as arrays."""

    singular_values: np.ndarray
    rank: int | np.ndarray
    sigma_min_plus: float | np.ndarray
    U: np.ndarray
    Vt: np.ndarray

    @property
    def row_basis(self):
        """Orthonormal rows spanning the row space (one matrix)."""
        return self.Vt[:self.rank]

    @property
    def null_basis(self):
        """Orthonormal columns spanning the null space (one matrix)."""
        return self.Vt[self.rank:].T

    def least_norm_solution(self, b):
        """Least-norm solution of ``A x = b`` on the values above the
        cutoff; for a stack, one solution per slice and its row of ``b``."""
        s = self.singular_values
        k = s.shape[-1]
        kept = np.arange(k) < np.expand_dims(self.rank, -1)
        Ub = (np.swapaxes(self.U[..., :k], -1, -2) @ b[..., None])[..., 0]
        coef = np.divide(Ub, s, out=np.zeros_like(s), where=kept)
        return (np.swapaxes(self.Vt[..., :k, :], -1, -2) @ coef[..., None])[..., 0]


def spectral_summary(A):
    """Singular values (nonincreasing), numerical rank, smallest positive
    singular value and SVD factors of ``A``, a matrix or a stack of them
    (shape ``(..., m, n)``, ranked slice by slice): the one rank rule.

    Rank counts values above ``DEFAULT_RANK_TOL * sigma_max``, which makes
    the cutoff invariant under rescaling of ``A``.
    """
    A = as_matrices(A)
    U, svals, Vt = np.linalg.svd(A)
    kept = svals > DEFAULT_RANK_TOL * svals.max(axis=-1, initial=0.0, keepdims=True)
    rank = np.count_nonzero(kept, axis=-1)
    least = np.where(kept, svals, np.inf).min(axis=-1, initial=np.inf)
    sigma_min_plus = np.where(rank > 0, least, 0.0)
    if A.ndim == 2:
        rank, sigma_min_plus = int(rank), float(sigma_min_plus)
    return SpectralSummary(svals, rank, sigma_min_plus, U, Vt)


def psd_eigenvalues(Q, tol=PSD_TOL, relative=False):
    """Ascending eigenvalues of a symmetric positive semidefinite ``Q``.

    Raises ``NotPSD`` when ``Q`` is not square, when ``|Q - Q'|`` exceeds
    ``tol * max(1, max|Q|)``, or when an eigenvalue lies below
    ``-tol * max(1, |lambda_max|)``.  With ``relative`` the eigenvalue
    test is ``-tol * lambda_max`` instead, and ``lambda_max <= tol``
    raises ``ZeroMatrix`` before it.
    """
    if Q.shape[0] != Q.shape[1]:
        raise NotPSD(f"matrix is {Q.shape[0]}x{Q.shape[1]}, not square")
    scale = max(1.0, float(np.abs(Q).max(initial=0.0)))
    if np.abs(Q - Q.T).max(initial=0.0) > tol * scale:
        raise NotPSD("matrix is not symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (Q + Q.T))
    if not eigs.size:
        return eigs
    if relative and eigs[-1] <= tol:
        raise ZeroMatrix("largest eigenvalue is numerically zero")
    floor = eigs[-1] if relative else max(1.0, abs(eigs[-1]))
    if eigs[0] < -tol * floor:
        raise NotPSD(f"negative eigenvalue {eigs[0]:.3e}")
    return eigs


def condition_number_plus(Q):
    """Restricted condition number lambda_max / lambda_min_plus of a
    symmetric PSD matrix, where lambda_min_plus is the smallest eigenvalue
    above ``DEFAULT_RANK_TOL * lambda_max``.

    Raises ``NotPSD`` for asymmetric input or a negative eigenvalue below
    ``-DEFAULT_RANK_TOL * lambda_max``, and ``ZeroMatrix`` when
    lambda_max <= DEFAULT_RANK_TOL.
    """
    eigs = psd_eigenvalues(as_matrix(Q), DEFAULT_RANK_TOL, relative=True)
    lam_max = float(eigs[-1])
    positive = eigs[eigs > DEFAULT_RANK_TOL * lam_max]
    lam_min_plus = float(positive[0])
    return lam_max / lam_min_plus


def lambda_max_psd(Q):
    """Largest eigenvalue of a symmetric PSD matrix (0.0 for Q = 0)."""
    Q = as_matrix(Q)
    if Q.size == 0:
        return 0.0
    return float(np.linalg.eigvalsh(0.5 * (Q + Q.T))[-1])
