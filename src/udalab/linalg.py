"""Dense Hermitian linear algebra: eigensolves, signatures, spans and ranks.

Everything here works on plain complex ``numpy`` arrays.  Matrices are small
(dimension of order tens), so dense LAPACK routines are used throughout.
Every span, orthocomplement and rank question in the package is answered by
one SVD kernel, :func:`row_span`, which also reports the singular-value
margin that decided the rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-12
SIGNATURE_TOL = 1e-9


def check_hermitian(mat: np.ndarray, tol: float = HERMITIAN_TOL) -> None:
    """Raise ``ValueError`` unless ``mat`` is square and Hermitian within ``tol``.

    The tolerance is relative: the defect is compared against
    ``tol * max(1, max |entry|)`` so that large, well-scaled matrices are not
    rejected for roundoff in their biggest entries.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    check_hermitian_stack(mat[None], tol)


def check_hermitian_stack(stack: np.ndarray, tol: float = HERMITIAN_TOL) -> None:
    """:func:`check_hermitian` for a ``(k, d, d)`` stack, each matrix against its own scale."""
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2), initial=0.0))
    defect = np.max(np.abs(stack - np.conj(np.swapaxes(stack, 1, 2))), axis=(1, 2), initial=0.0)
    if np.any(defect > tol * scale):
        raise ValueError("matrix is not Hermitian within tolerance")


def hermitize(mat: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(M + M†)/2``."""
    return (mat + mat.conj().T) / 2


def hs_norm(a: np.ndarray) -> float:
    """Frobenius / Hilbert-Schmidt norm."""
    return float(np.linalg.norm(a))


def real_rows(mats: np.ndarray) -> np.ndarray:
    """Matrices as rows of their entries' real and imaginary parts: dots are Re tr(A† B)."""
    mats = np.ascontiguousarray(mats, dtype=complex)
    return mats.reshape(mats.shape[:-2] + (mats.shape[-2] * mats.shape[-1],)).view(float)


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value; for Hermitian input the largest |eigenvalue|."""
    return float(np.linalg.norm(np.asarray(mat), 2))


def eig_hermitian(mat: np.ndarray, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(values, vectors)`` with eigenvalues ascending and eigenvectors
    in the columns of ``vectors``.  Input is validated and symmetrized before
    the solve; non-Hermitian input raises ``ValueError``.
    """
    mat = np.asarray(mat, dtype=complex)
    check_hermitian(mat, tol)
    values, vectors = np.linalg.eigh(hermitize(mat))
    return values, vectors


def signature(mat: np.ndarray, tol: float = SIGNATURE_TOL) -> tuple[int, int, int]:
    """Count eigenvalues above, below, and inside a scale-free zero band.

    The band is ``tol * max(1, spectral norm)`` wide on each side, so the
    decision does not depend on the overall scale of the matrix.

    Returns ``(n_plus, n_minus, n_zero)`` with ``n_plus + n_minus + n_zero``
    equal to the dimension.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    values, _ = eig_hermitian(mat)
    cut = tol * max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    n_plus = int(np.sum(values > cut))
    n_minus = int(np.sum(values < -cut))
    return n_plus, n_minus, len(values) - n_plus - n_minus


def interlacing_check(mat: np.ndarray, rows, slack: float = 1e-9) -> bool:
    """Check Cauchy interlacing of a principal submatrix against the full matrix.

    ``rows`` selects the principal submatrix (same row and column indices).
    With ascending eigenvalues w (full, size d) and s (submatrix, size r) the
    test is ``w[k] <= s[k] <= w[k + d - r]`` for all k, inside a slack scaled
    by ``max(1, spectral norm)``.
    """
    rows = sorted(set(int(r) for r in rows))
    if not rows:
        raise ValueError("rows must be a non-empty index subset")
    mat = np.asarray(mat, dtype=complex)
    d = mat.shape[0]
    if rows[0] < 0 or rows[-1] >= d:
        raise ValueError("row indices out of range")
    full, _ = eig_hermitian(mat)
    sub, _ = eig_hermitian(mat[np.ix_(rows, rows)])
    r = len(rows)
    eps = slack * max(1.0, float(np.max(np.abs(full))))
    for k in range(r):
        if not (full[k] - eps <= sub[k] <= full[k + d - r] + eps):
            return False
    return True


@dataclass(frozen=True)
class Span:
    """Row span of a matrix, as decided by one SVD.

    ``basis`` and ``complement`` hold orthonormal rows spanning the row space
    and its orthocomplement (``None`` when only singular values were
    computed).  ``kept`` and ``dropped`` are the smallest kept and the largest
    dropped singular value, each relative to the largest: the margin that
    decided ``rank``.  Both are 0.0 when there is nothing on that side.
    """

    rank: int
    kept: float
    dropped: float
    basis: np.ndarray | None = None
    complement: np.ndarray | None = None

    def outside(self, rows: np.ndarray) -> np.ndarray:
        """Norm of each row's component orthogonal to the span."""
        flat = np.asarray(rows).reshape(len(rows), -1)
        inside = (flat @ self.basis.conj().T) @ self.basis
        return np.linalg.norm(flat - inside, axis=1)


def row_span(rows: np.ndarray, tol: float, vectors: bool = True) -> Span:
    """Span, orthocomplement and rank of the rows of a matrix.

    A singular value counts toward the rank when it exceeds ``tol`` times the
    largest one, so the verdict does not depend on the overall scale.  With
    ``vectors=False`` only singular values are computed, which is all a rank
    question needs and keeps the memory of large systems down.
    """
    rows = np.asarray(rows)
    if vectors:
        # a full V is needed for the complement only when rows are too few
        _, svals, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    else:
        svals = np.linalg.svd(rows, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    rank = int(np.sum(svals > tol * top)) if top > 0 else 0
    kept = float(svals[rank - 1]) / top if rank else 0.0
    dropped = float(svals[rank]) / top if top > 0 and rank < svals.size else 0.0
    if not vectors:
        return Span(rank, kept, dropped)
    return Span(rank, kept, dropped, basis=vh[:rank], complement=vh[rank:])
