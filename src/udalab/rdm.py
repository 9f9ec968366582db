"""Uniqueness of tripartite states given two of their two-party marginals.

Whether any other global state can reproduce the {1,2} and {1,3} reduced
density matrices of a pure tripartite state comes down to a linear system in
the overlaps of ancilla vectors appearing in a purification of the would-be
impostor.  Full column rank forces the canonical solution, which is the
original state; rank deficiency leaves room for impostors (the GHZ phase
family being the canonical example).  The mixed-state variant purifies the
query state first and stacks the constraints coming from both marginals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import Span, row_span
from .states import check_density, partial_trace

# Relative singular-value threshold for every rank decision in this module.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class TripartiteState:
    """Pure state of three subsystems stored as a complex tensor c[i, j, k]."""

    dims: tuple[int, int, int]
    c: np.ndarray

    def __post_init__(self) -> None:
        d1, d2, d3 = self.dims
        if self.c.shape != (d1, d2, d3):
            raise ValueError(f"tensor shape {self.c.shape} does not match dims {self.dims}")
        if abs(np.linalg.norm(self.c) - 1.0) > 1e-12:
            raise ValueError("state tensor is not normalized")

    @classmethod
    def random(cls, dims, seed: int | np.random.Generator = 0) -> "TripartiteState":
        dims = tuple(int(x) for x in dims)
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        tensor = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        tensor /= np.linalg.norm(tensor)
        return cls(dims=dims, c=tensor)

    def vector(self) -> np.ndarray:
        return self.c.reshape(-1)

    def density(self) -> np.ndarray:
        vec = self.vector()
        return np.outer(vec, vec.conj())


def ghz_state(a: float, b: float, theta: float = 0.0) -> TripartiteState:
    """Three-qubit state a|000> + b e^{i theta} |111>."""
    if abs(a * a + b * b - 1.0) > 1e-12:
        raise ValueError("amplitudes must satisfy a^2 + b^2 = 1")
    tensor = np.zeros((2, 2, 2), dtype=complex)
    tensor[0, 0, 0] = a
    tensor[1, 1, 1] = b * np.exp(1j * theta)
    return TripartiteState(dims=(2, 2, 2), c=tensor)


_PAIRS = {(1, 2): (0, 1), (1, 3): (0, 2), (2, 3): (1, 2)}


def rdm_pair(state: TripartiteState, pair) -> np.ndarray:
    """Two-party reduced density matrix for subsystem pair {1,2}, {1,3}, or {2,3}."""
    key = tuple(sorted(int(p) for p in pair))
    if key not in _PAIRS:
        raise ValueError(f"pair must be one of (1,2), (1,3), (2,3); got {pair}")
    keep = _PAIRS[key]
    return partial_trace(state.density(), state.dims, keep)


@dataclass(frozen=True)
class RdmLinearSystem:
    """Overlap-variable system encoding agreement on the {1,3} marginal.

    Rows are indexed by (m, m', n, n') with m, m' over the first subsystem
    and n, n' over the third; columns by (k', n', k, n), all over the third
    subsystem.  The entry couples row and column only when the (n, n') labels
    match, with coefficient ``sum_j c[m, j, k] conj(c[m', j, k'])``.
    ``generic`` records linear independence of the third-slice vectors.
    """

    dims: tuple[int, int, int]
    matrix: np.ndarray
    rhs: np.ndarray
    generic: bool

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def canonical_solution(self) -> np.ndarray:
        d3 = self.dims[2]
        x = np.zeros(d3 ** 4)
        for kp in range(d3):
            for k in range(d3):
                x[((kp * d3 + kp) * d3 + k) * d3 + k] = 1.0
        return x

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.matrix @ x - self.rhs))


def _independent(rows: np.ndarray) -> bool:
    return row_span(rows, RANK_TOL, vectors=False).rank == rows.shape[0]


def build_system(state: TripartiteState) -> RdmLinearSystem:
    """Assemble the marginal-agreement system for a pure tripartite state."""
    d1, d2, d3 = state.dims
    c = state.c
    generic = _independent(np.moveaxis(c, 2, 0).reshape(d3, d1 * d2))

    # block[m, mp, kp, k] = sum_j c[m, j, k] conj(c[mp, j, kp])
    block = np.einsum("mjk,njp->mnpk", c, c.conj())
    # entry at row (m, mp, n, np'), column (kp, np', k, n) is block[m, mp, kp, k]
    eye = np.eye(d3)
    matrix = np.einsum("abpk,qQ,nN->abnqpQkN", block, eye, eye).reshape(d1 * d1 * d3 * d3, d3 ** 4)
    # rhs[m, mp, n, np'] = sum_j c[m, j, n] conj(c[mp, j, np'])
    rhs = np.einsum("mjn,pjq->mpnq", c, c.conj())
    return RdmLinearSystem(dims=state.dims, matrix=matrix,
                           rhs=rhs.reshape(-1), generic=generic)


@dataclass(frozen=True)
class RankDecision:
    """A marginal rank certificate and the system it was decided on.

    ``span`` carries the rank of the column-normalized system and the
    singular-value margin that decided it.
    """

    system: RdmLinearSystem | MixedRdmSystem
    span: Span

    @property
    def rank(self) -> int:
        return self.span.rank

    @property
    def unique(self) -> bool:
        return self.span.rank == self.system.matrix.shape[1]


def _column_rank(matrix: np.ndarray) -> Span:
    # unit columns make the threshold independent of how each variable is scaled
    norms = np.linalg.norm(matrix, axis=0)
    return row_span(matrix / np.where(norms > 0, norms, 1.0), RANK_TOL, vectors=False)


def marginal_rank(state: TripartiteState) -> RankDecision:
    """Rank of the marginal system, on the system the verdict is decided on.

    The role of the third subsystem (whose dimension enters the variable
    count to the fourth power) is given to the smaller of the last two
    subsystems; the marginal pair set {1,2}, {1,3} is unchanged by that
    relabeling.
    """
    d1, d2, d3 = state.dims
    if d3 > d2:
        state = TripartiteState(dims=(d1, d3, d2), c=np.transpose(state.c, (0, 2, 1)))
    system = build_system(state)
    return RankDecision(system=system, span=_column_rank(system.matrix))


def uda_rank_test(state: TripartiteState) -> bool:
    """Full column rank of the marginal system certifies uniqueness among all states."""
    return marginal_rank(state).unique


@dataclass(frozen=True)
class GhzFamilyReport:
    """Marginal equality and projector separation across a phase family."""

    thetas: tuple[float, ...]
    max_rdm_difference: float
    projector_distances: tuple[float, ...]

    def matches(self, rdm_tol: float = 1e-12) -> bool:
        return self.max_rdm_difference <= rdm_tol


def ghz_family_check(a: float, b: float, thetas) -> GhzFamilyReport:
    """Phase rotations on the second branch leave all two-party marginals fixed.

    Returns the largest marginal deviation from the phase-zero state across
    the requested angles and the Frobenius distances between projectors,
    which are positive whenever both amplitudes are nonzero and the phase is
    nontrivial.
    """
    base = ghz_state(a, b, 0.0)
    base_rdms = {pair: rdm_pair(base, pair) for pair in _PAIRS}
    base_proj = base.density()
    worst = 0.0
    distances = []
    for theta in thetas:
        rotated = ghz_state(a, b, float(theta))
        for pair in _PAIRS:
            diff = np.max(np.abs(rdm_pair(rotated, pair) - base_rdms[pair]))
            worst = max(worst, float(diff))
        distances.append(float(np.linalg.norm(rotated.density() - base_proj)))
    return GhzFamilyReport(thetas=tuple(float(t) for t in thetas),
                           max_rdm_difference=worst,
                           projector_distances=tuple(distances))


def purify(rho: np.ndarray, dims, eig_tol: float = 1e-10) -> np.ndarray:
    """Purification tensor lam[i1, i2, i3, i4] with ancilla size = numerical rank."""
    d1, d2, d3 = (int(x) for x in dims)
    check_density(rho)
    values, vectors = np.linalg.eigh(rho)
    keep = values > eig_tol
    values = values[keep]
    vectors = vectors[:, keep]
    d4 = int(values.shape[0])
    lam = np.zeros((d1, d2, d3, d4), dtype=complex)
    for s in range(d4):
        lam[:, :, :, s] = np.sqrt(values[s]) * vectors[:, s].reshape(d1, d2, d3)
    return lam


@dataclass(frozen=True)
class MixedRdmSystem:
    """Stacked overlap system for a purified mixed state.

    Variables are indexed by (p3, p4, p3', p4', q3, q3'): the ancilla-summed
    overlaps of the expansion vectors, ``d3^4 d4^2`` of them.  The first
    block (d1^2 d3^2 rows) encodes agreement on the {1,3} marginal, the
    second (d1^2 d2^2 rows) agreement on {1,2}.  ``generic`` records linear
    independence of the d3*d4 purification slices ``lam[:, :, p3, p4]``.
    """

    dims: tuple[int, int, int]
    d4: int
    matrix: np.ndarray
    rhs: np.ndarray
    generic: bool

    @property
    def variable_count(self) -> int:
        return self.dims[2] ** 4 * self.d4 ** 2

    @property
    def equation_count(self) -> int:
        d1, d2, d3 = self.dims
        return d1 * d1 * d3 * d3 + d1 * d1 * d2 * d2

    def canonical_solution(self) -> np.ndarray:
        d3, d4 = self.dims[2], self.d4
        x = np.zeros(self.variable_count)
        for p3 in range(d3):
            for p4 in range(d4):
                for p3p in range(d3):
                    x[((((p3 * d4 + p4) * d3 + p3p) * d4 + p4) * d3 + p3) * d3 + p3p] = 1.0
        return x

    def residual(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.matrix @ x - self.rhs))


def build_mixed_system(rho: np.ndarray, dims, eig_tol: float = 1e-10) -> MixedRdmSystem:
    """Assemble the stacked marginal system from a purification of ``rho``."""
    d1, d2, d3 = (int(x) for x in dims)
    lam = purify(rho, dims, eig_tol)
    d4 = lam.shape[3]

    # kernel13[(i1, i1'), ((p3, p4), (p3', p4'))] = sum_i2 lam[i1,i2,p3,p4] conj(lam[i1',i2,p3',p4'])
    kernel13 = np.einsum("mjab,njcd->mnabcd", lam, lam.conj())
    kernel13 = kernel13.reshape(d1 * d1, (d3 * d4) ** 2)
    block13 = np.kron(kernel13, np.eye(d3 * d3))

    # rows (i1, i1', j3, j3') need reordering: kron gives (i1, i1') x (q3, q3')
    # which already matches the row layout ((m, m'), (n, n')).
    rhs13 = np.einsum("mjab,njcb->mnac", lam, lam.conj()).reshape(-1)

    # kernel12[(i1, i2), (p3, p4)] paired against its own conjugate
    flat = lam.reshape(d1 * d2, d3 * d4)
    kernel12 = np.einsum("ap,bq->abpq", flat, flat.conj()).reshape((d1 * d2) ** 2, (d3 * d4) ** 2)
    diag_indicator = np.eye(d3).reshape(1, d3 * d3)
    block12 = np.kron(kernel12, diag_indicator)
    rhs12 = np.einsum("mjab,nkab->mjnk", lam, lam.conj()).reshape(-1)

    matrix = np.vstack([block13, block12])
    rhs = np.concatenate([rhs13, rhs12])
    generic = _independent(lam.transpose(2, 3, 0, 1).reshape(d3 * d4, d1 * d2))
    return MixedRdmSystem(dims=(d1, d2, d3), d4=d4, matrix=matrix, rhs=rhs, generic=generic)


def mixed_marginal_rank(rho: np.ndarray, dims, rank_bound: int,
                        enforce_rank_bound: bool = True) -> RankDecision:
    """Rank of the stacked marginal system of a low-rank mixed state.

    The state's numerical rank must not exceed ``rank_bound``, which in turn
    must respect floor(d1/d3) when ``enforce_rank_bound`` is set (the regime
    where the stacked system can possibly have full column rank is exactly
    rank <= d1/d3).
    """
    d1, d2, d3 = (int(x) for x in dims)
    system = build_mixed_system(rho, dims)
    if system.d4 > rank_bound:
        raise ValueError(f"state rank {system.d4} exceeds the declared bound {rank_bound}")
    if enforce_rank_bound and rank_bound > d1 // d3:
        raise ValueError(f"rank bound {rank_bound} exceeds floor(d1/d3) = {d1 // d3}")
    return RankDecision(system=system, span=_column_rank(system.matrix))


def mixed_uda_rank_test(rho: np.ndarray, dims, rank_bound: int,
                        enforce_rank_bound: bool = True) -> bool:
    """``True`` when the stacked system pins the canonical solution uniquely."""
    return mixed_marginal_rank(rho, dims, rank_bound, enforce_rank_bound).unique


def genericity_trial(dims, count: int, seed: int = 0) -> dict[str, Any]:
    """Fraction of random states passing the rank certificate, plus residual data."""
    rng = np.random.default_rng(seed)
    passed = 0
    worst_residual = 0.0
    for _ in range(count):
        decision = marginal_rank(TripartiteState.random(dims, rng))
        system = decision.system
        worst_residual = max(worst_residual, system.residual(system.canonical_solution()))
        passed += decision.unique
    return {"count": count, "passed": passed, "worst_canonical_residual": worst_residual}
