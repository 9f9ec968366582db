"""Antidiagonal line-matrix families and the observable sets they complement.

A "line matrix" is a Hermitian matrix supported on a single antidiagonal
(entries at row + col = k, zero diagonal).  Filling the usable lines with
columns of a totally nonsingular matrix produces a family whose real span
contains only matrices with at least q+1 positive and q+1 negative
eigenvalues; the orthocomplement of that span inside the traceless
Hermitians is an observable set that pins down every rank <= q state among
all states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .basis import gellmann_basis
from .linalg import check_hermitian, eig_hermitian, real_rows, row_span, signature, spectral_norm

# The largest family_span_outside at which a complement counts as inside.
FAMILY_SPAN_CUT = 1e-9


@dataclass(frozen=True)
class LineMatrixFamily:
    """Hermitian matrices each supported on one antidiagonal line.

    ``lines[j]`` records ``(k, kind)`` for ``matrices[j]`` where ``kind`` is
    ``"real"`` or ``"imag"``.
    """

    d: int
    q: int
    matrices: np.ndarray
    lines: tuple[tuple[int, str], ...]

    def __len__(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True)
class OperatorSubspace:
    """Orthonormal (Hilbert-Schmidt) basis of a real subspace of Hermitians."""

    d: int
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class ObservableSet:
    """Ordered tuple of Hermitian observables.

    It carries no claim about itself: certifiers decide the structure of the
    span from ``matrices`` alone (see :func:`family_span_outside`).
    """

    matrices: np.ndarray

    def __len__(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True)
class SignatureReport:
    samples: int
    min_n_plus: int
    min_n_minus: int
    worst_margin: float
    counterexample: np.ndarray | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None


def line_length(d: int, k: int) -> int:
    """Number of strictly-upper entries on the antidiagonal row + col = k."""
    if not 1 <= k <= 2 * d - 3:
        raise ValueError(f"line index must lie in 1..{2 * d - 3}, got {k}")
    if k <= d - 1:
        return (k + 1) // 2
    return (2 * d - 1 - k) // 2


def line_positions(d: int, k: int) -> list[tuple[int, int]]:
    """Strictly-upper (row, col) positions on line k, ordered by row."""
    lo = max(0, k - d + 1)
    return [(j, k - j) for j in range(lo, (k + 1) // 2) if j != k - j]


def totally_nonsingular_matrix(n: int) -> np.ndarray:
    """Vandermonde matrix on nodes 1..n; every square submatrix is invertible.

    A Vandermonde matrix with increasing positive nodes is totally positive,
    hence totally nonsingular.
    """
    if n < 1:
        raise ValueError("size must be positive")
    nodes = np.arange(1, n + 1, dtype=float)
    return np.vander(nodes, n, increasing=True)


def _line_matrix(d: int, k: int, vec: np.ndarray, imaginary: bool) -> np.ndarray:
    mat = np.zeros((d, d), dtype=complex)
    fill = 1j * vec if imaginary else vec.astype(complex)
    for value, (row, col) in zip(fill, line_positions(d, k)):
        mat[row, col] = value
        mat[col, row] = np.conj(value)
    return mat


def complement_family(d: int, q: int = 1) -> LineMatrixFamily:
    """Build the line-matrix family for dimension d and rank parameter q.

    Usable lines are ``2q+1 <= k <= 2d-2q-3`` (length at least q+1); each
    contributes ``line_length - q`` real and as many imaginary matrices,
    their vectors taken from the leading columns of a totally nonsingular
    matrix.  For d too small the range is empty and an empty family is
    returned.
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if q < 1:
        raise ValueError("rank parameter must be at least 1")
    mats: list[np.ndarray] = []
    lines: list[tuple[int, str]] = []
    for k in range(2 * q + 1, 2 * d - 2 * q - 2):
        length = line_length(d, k)
        if length < q + 1:
            continue
        columns = totally_nonsingular_matrix(length)[:, : length - q]
        for kind, imaginary in (("real", False), ("imag", True)):
            for c in range(columns.shape[1]):
                mats.append(_line_matrix(d, k, columns[:, c], imaginary))
                lines.append((k, kind))
    matrices = np.array(mats) if mats else np.zeros((0, d, d), dtype=complex)
    return LineMatrixFamily(d=d, q=q, matrices=matrices, lines=tuple(lines))


def family_size_formula(d: int, q: int = 1) -> int:
    """Closed form d^2 - (4q+1)d + (4q^2+2q); valid whenever usable lines exist
    (d >= 2q+2) and, for q=1, down to d=3 where it degenerates to zero."""
    return d * d - (4 * q + 1) * d + (4 * q * q + 2 * q)


def observable_count_formula(d: int, q: int = 1) -> int:
    """Closed form (4q+1)d - (4q^2+2q+1) for the complementary observable count."""
    return (4 * q + 1) * d - (4 * q * q + 2 * q + 1)


def family_signature_check(family: LineMatrixFamily, samples: int = 1000,
                           seed: int = 0, tol: float = 1e-9) -> SignatureReport:
    """Sample random unit combinations and verify the two-sided signature bound.

    Every nonzero real combination of the family must show at least q+1
    positive and q+1 negative eigenvalues.  The report carries the worst
    margin observed: the smallest magnitude of the (q+1)-th eigenvalue from
    either end, relative to the combination's spectral norm scale.
    """
    if len(family) == 0:
        raise ValueError("family is empty")
    rng = np.random.default_rng(seed)
    need = family.q + 1
    stacked = family.matrices
    min_plus = stacked.shape[1]
    min_minus = stacked.shape[1]
    worst = np.inf
    for _ in range(samples):
        coeff = rng.standard_normal(len(family))
        coeff /= np.linalg.norm(coeff)
        combo = np.tensordot(coeff, stacked, axes=1)
        n_plus, n_minus, _ = signature(combo, tol)
        values = np.linalg.eigvalsh(combo)
        margin = min(abs(values[need - 1]), abs(values[-need]))
        worst = min(worst, margin)
        min_plus = min(min_plus, n_plus)
        min_minus = min(min_minus, n_minus)
        if n_plus < need or n_minus < need:
            return SignatureReport(samples, min_plus, min_minus, worst, coeff)
    return SignatureReport(samples, min_plus, min_minus, worst, None)


def complex_span_rank_demo(family: LineMatrixFamily) -> tuple[np.ndarray, int]:
    """Rank drop inside the complex span of the d=4 q=1 family.

    Returns ``(M1 + i M2, rank)``; the real span keeps rank at least four
    while this complex combination has rank two.
    """
    if family.d != 4 or family.q != 1 or len(family) != 2:
        raise ValueError("demo requires the d=4, q=1 two-matrix family")
    combo = family.matrices[0] + 1j * family.matrices[1]
    return combo, row_span(combo, 1e-9, vectors=False).rank


def _traceless_span(mats: np.ndarray, d: int, drop_tol: float):
    """Kernel span of the traceless parts of ``mats`` in orthonormal real coordinates.

    The coordinates are taken against the traceless Gell-Mann elements
    scaled to unit Hilbert-Schmidt norm, so Euclidean geometry on them is
    operator geometry.  Returns the span and the coordinate frame.
    """
    frame = gellmann_basis(d)[1:] / np.sqrt(d * (d - 1))
    coords = np.real(np.einsum("nab,iba->ni", np.asarray(mats, dtype=complex).reshape(-1, d, d),
                               frame))
    return row_span(coords, drop_tol), frame


def subspace_from_matrices(mats: np.ndarray, d: int, drop_tol: float = 1e-12) -> OperatorSubspace:
    """Orthonormal basis of the span of traceless Hermitian matrices."""
    span, frame = _traceless_span(mats, d, drop_tol)
    return OperatorSubspace(d=d, basis=np.tensordot(span.basis, frame, axes=1))


def traceless_complement(mats: np.ndarray, d: int) -> OperatorSubspace:
    """Orthocomplement, within the traceless Hermitians, of the traceless parts' span."""
    span, frame = _traceless_span(mats, d, 1e-12)
    return OperatorSubspace(d=d, basis=np.tensordot(span.complement, frame, axes=1))


@functools.lru_cache(maxsize=None)
def _family_rows(d: int) -> np.ndarray:
    """Orthonormal real rows spanning complement_family(d, 1)."""
    return real_rows(subspace_from_matrices(complement_family(d, 1).matrices, d).basis)


def family_span_outside(comp: OperatorSubspace) -> float:
    """Largest distance of a unit direction of ``comp`` from span(complement_family(d, 1)).

    At zero, every nonzero element of ``comp`` lies in the family span and so
    has two eigenvalues of each sign; every q-family is a subset of this one.
    A ``comp`` larger than the family is outside by 1.0 without a solve.
    """
    d = comp.d
    if comp.dim > family_size_formula(d, 1):
        return 1.0
    family = _family_rows(d)
    rows = real_rows(comp.basis)
    return float(np.linalg.norm(rows - (rows @ family.T) @ family, 2))


def orthocomplement(subspace: OperatorSubspace) -> OperatorSubspace:
    """Orthocomplement within the traceless Hermitian matrices."""
    return traceless_complement(subspace.basis, subspace.d)


def uda_observables(d: int, q: int = 1) -> ObservableSet:
    """Observables whose measurement pins any rank <= q state among all states.

    The set is an orthonormal traceless Hermitian basis of the
    orthocomplement of the line-matrix family span; its size is 5d-7 for
    q=1 and (4q+1)d - (4q^2+2q+1) in general (whenever d >= 2q+2).
    """
    if d <= 2:
        raise ValueError("construction requires dimension greater than 2")
    comp = traceless_complement(complement_family(d, q).matrices, d)
    return ObservableSet(matrices=comp.basis)


def antitriangular_signature_check(mat: np.ndarray, q: int, det_tol: float = 1e-9) -> bool:
    """Verify the balanced signature of an invertible antitriangular matrix.

    Preconditions checked and reported distinctly: size 2(q+1), Hermitian,
    traceless, support confined to row + col <= size - 1, and invertibility
    (|det| above ``det_tol`` after scaling the spectral norm to one).  Returns
    ``True`` exactly when the signature is (q+1, q+1, 0).
    """
    mat = np.asarray(mat, dtype=complex)
    n = 2 * (q + 1)
    if mat.shape != (n, n):
        raise ValueError(f"expected a {n}x{n} matrix for q={q}, got {mat.shape}")
    check_hermitian(mat)
    scale = max(1.0, float(np.max(np.abs(mat))))
    if abs(np.trace(mat).real) > 1e-10 * scale:
        raise ValueError("matrix is not traceless")
    for i in range(n):
        for j in range(n):
            if i + j > n - 1 and abs(mat[i, j]) > 1e-12 * scale:
                raise ValueError("support extends below the antidiagonal")
    norm = spectral_norm(mat)
    if norm == 0:
        raise ValueError("matrix is singular")
    det = np.linalg.det(mat / norm)
    if abs(det) <= det_tol:
        raise ValueError("matrix is numerically singular")
    return signature(mat) == (q + 1, q + 1, 0)


def top_line_principal_block(family: LineMatrixFamily, coeff: np.ndarray) -> np.ndarray:
    """Principal submatrix exhibiting the signature mechanism for a combination.

    Picks the largest active line k0 of ``sum coeff_j H_j``, takes the two
    outermost nonzero entries on it, and returns the 4x4 principal submatrix
    on those four indices (used by diagnostics and tests; q=1 layout).
    """
    combo = np.tensordot(coeff, family.matrices, axes=1)
    d = family.d
    active = None
    for k in range(2 * d - 3, 0, -1):
        entries = [(abs(combo[r, c]), r, c) for r, c in line_positions(d, k)]
        entries = [e for e in entries if e[0] > 1e-12]
        if len(entries) >= 2:
            active = (k, entries)
            break
    if active is None:
        raise ValueError("combination has no line with two nonzero entries")
    _, entries = active
    (_, r1, c1) = entries[0]
    (_, r2, c2) = entries[-1]
    idx = sorted({r1, c1, r2, c2})
    sub = combo[np.ix_(idx, idx)]
    _ = eig_hermitian(sub)
    return sub
