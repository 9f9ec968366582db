"""Orthogonal Hermitian operator bases, the Pauli matrices and expectations.

The basis built here consists of the identity (scaled to ``sqrt(d-1) * I``)
followed by the generalized Gell-Mann matrices scaled by
``sqrt(d*(d-1)/2)``, so that every pair satisfies
``tr(b_i b_j) = d*(d-1) * delta_ij``.  With that normalization a density
matrix is ``rho = (I + r . b[1:]) / d`` with ``r_i = tr(rho b_i) / (d-1)``,
a real vector of unit length exactly when ``rho`` is pure.

Element order is fixed so serialized output is stable: symmetric
off-diagonal pairs first (lexicographic in (j, k)), then the antisymmetric
pairs, then the diagonal matrices.
"""

from __future__ import annotations

import numpy as np

from .linalg import check_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def gellmann_basis(d: int) -> np.ndarray:
    """Return the scaled Hermitian basis as an array of shape (d*d, d, d).

    ``basis[0]`` is ``sqrt(d-1) * I``; the remaining ``d*d - 1`` elements are
    traceless and mutually orthogonal with ``tr(b_i b_j) = d*(d-1) delta_ij``.
    For d=2 the traceless part is exactly the Pauli triple (X, Y, Z).
    """
    if d < 2:
        raise ValueError("dimension must be at least 2")
    scale = np.sqrt(d * (d - 1) / 2.0)
    out = np.zeros((d * d, d, d), dtype=complex)
    out[0] = np.sqrt(d - 1) * np.eye(d)
    idx = 1
    for j in range(d):
        for k in range(j + 1, d):
            out[idx, j, k] = scale
            out[idx, k, j] = scale
            idx += 1
    for j in range(d):
        for k in range(j + 1, d):
            out[idx, j, k] = -1j * scale
            out[idx, k, j] = 1j * scale
            idx += 1
    for level in range(1, d):
        coeff = scale * np.sqrt(2.0 / (level * (level + 1)))
        diag = np.zeros(d)
        diag[:level] = 1.0
        diag[level] = -level
        out[idx] = coeff * np.diag(diag)
        idx += 1
    return out


def expectation(observable: np.ndarray, state: np.ndarray) -> float:
    """Expectation value of a Hermitian observable in a state.

    ``state`` may be a pure-state amplitude vector or a density matrix; the
    value is ``<psi|A|psi>`` or ``tr(rho A)`` accordingly.
    """
    observable = np.asarray(observable, dtype=complex)
    check_hermitian(observable)
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        if state.shape[0] != observable.shape[0]:
            raise ValueError("state and observable dimensions differ")
        return float(np.real(np.vdot(state, observable @ state)))
    if state.shape != observable.shape:
        raise ValueError("state and observable dimensions differ")
    return float(np.real(np.trace(state @ observable)))
