"""Dense numerical kernels shared by the distance-regression models.

Pairwise Euclidean distances, ridge-regularized least squares, and the
leverages that closed-form leave-one-out predictions need. Everything is
float64 and deterministic: repeated calls with identical inputs give
bit-identical results.

Distances between integer-valued rows come from exact integer arithmetic
when their sums stay below 2**53 (see euclidean), so they have cdist's bits
in any batch and at any BLAS thread count; other inputs go to cdist.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist


class SingularSystemError(np.linalg.LinAlgError):
    """Raised when the regularized normal equations cannot be solved."""


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def pairwise_distances(A, B) -> np.ndarray:
    """Euclidean distance matrix between the rows of A (N x M) and B (K x M)."""
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"column mismatch: A has {A.shape[1]} columns, B has {B.shape[1]}"
        )
    return euclidean(A, B, integer_norms(B))


def integer_valued(a: np.ndarray) -> bool:
    """Whether every entry of a float64 array is an integer (NaN is not)."""
    return np.array_equal(a, np.rint(a))


def integer_norms(A: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The squared row norms and the largest |entry| of a finite float64 matrix
    whose entries are all integers; None if any entry is not."""
    v = A[A != 0.0]
    if not integer_valued(v):
        return None
    return np.einsum("ij,ij->i", A, A), float(np.abs(v).max(initial=0.0))


def euclidean(A: np.ndarray, B: np.ndarray,
              b_norms: tuple[np.ndarray, float] | None) -> np.ndarray:
    """Distances between the rows of A (Q x M) and of B (K x M), finite float64
    matrices that the caller has checked; b_norms is integer_norms(B).

    cdist sums squared differences. When A and B are integer-valued and
    4*M*m**2 < 2**53, m their largest |entry|, |a|^2 + |b|^2 - 2 a.b gives
    the same sum instead: every product and partial sum is an integer below
    2**53, exact in any order, so the sqrt has cdist's bits whatever the
    batch, the column subset or the BLAS thread count. When at most half
    the columns hold a nonzero of A, the product runs over those alone,
    which makes a sparse row's query O(nonzeros x K).
    """
    a_norms = None if b_norms is None else integer_norms(A)
    # in floats the bound is exact below 2**53, and rounding is monotone above
    if a_norms is None or 4 * A.shape[1] * max(a_norms[1], b_norms[1]) ** 2 >= 2.0**53:
        return cdist(A, B, metric="euclidean")
    cols = np.flatnonzero((A != 0.0).any(axis=0))
    if 2 * cols.size <= A.shape[1]:
        # denser, the copy of B's columns costs more time and memory than it saves
        A, B = A[:, cols], B[:, cols]
    d2 = A @ B.T
    d2 *= -2.0
    d2 += a_norms[0][:, None]
    d2 += b_norms[0]
    return np.sqrt(d2, out=d2)


class RegularizedGram:
    """Cholesky factorization of U = Dx^T Dx + alpha*I, for a float64 matrix
    Dx that the caller has checked (models.fit's comes from pairwise_distances).

    Raises SingularSystemError if U is not positive definite after the
    alpha shift; cho_factor refuses a non-finite U with a ValueError.
    """

    def __init__(self, Dx: np.ndarray, alpha: float):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        U = Dx.T @ Dx
        if alpha > 0:
            U[np.diag_indices_from(U)] += alpha
        try:
            self._factor = cho_factor(U, lower=True, overwrite_a=True)
        except np.linalg.LinAlgError as exc:
            raise SingularSystemError(
                "U = Dx^T Dx + alpha*I is not positive definite"
            ) from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve U z = rhs."""
        return cho_solve(self._factor, rhs)


def fit_ridge(Dx, Dy, alpha: float) -> tuple[RegularizedGram | None, np.ndarray]:
    """Minimize ||Dx B - Dy||_F^2 + alpha * ||B||_F^2 for B (K x C), given
    float64 matrices as RegularizedGram takes them; Dx^T Dy refuses a row mismatch.

    Returns the factorization it solved with and B, so that callers can
    reuse the one factorization. Falls back to a rank-revealing SVD
    least-squares solve, and returns None for the factorization, when the
    Gram matrix is numerically indefinite (possible only for alpha == 0).
    """
    try:
        gram = RegularizedGram(Dx, alpha)
        return gram, gram.solve(Dx.T @ Dy)
    except SingularSystemError:
        if alpha > 0:
            raise
        B = np.linalg.lstsq(Dx, Dy, rcond=None)[0]
        if not np.all(np.isfinite(B)):
            raise SingularSystemError("least-squares fallback failed")
        return None, B


def leverages(gram: RegularizedGram, Dx) -> np.ndarray:
    """Diagonal of H = Dx U^{-1} Dx^T, length N."""
    return np.einsum("ij,ji->i", Dx, gram.solve(Dx.T))
