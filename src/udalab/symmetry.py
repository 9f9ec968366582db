"""Finite symmetry groups of the state space and the certificates they yield.

A symmetry here is conjugation by a unitary, optionally composed with the
computational-basis transpose.  Averaging the induced superoperators over a
finite closed group gives the orthogonal projection onto the fixed operator
subspace; when that subspace is the span of the measured observables, a pure
state unique among pure states is automatically unique among all states.

The workhorse certificate checks whether the complex span of the observables
(with identity adjoined) is closed under products: a *-subalgebra is the
fixed-point set of conjugation by the unitaries of its commutant, so the
symmetry argument applies.  For qubits a reflection through the observable
span always exists, so the implication holds unconditionally there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Any

import numpy as np

from .basis import PAULI_X, PAULI_Y, PAULI_Z, gellmann_basis
from .certify import (CertificateOutcome, FALSIFIED, FeasibilityConfig, as_observable_stack,
                      measure, uda_certify)
from .linalg import Span, check_hermitian_stack, row_span
from .states import pure_density, random_pure


@dataclass(frozen=True)
class SymmetryElement:
    """State-space symmetry: transpose first (optionally), then conjugate by U."""

    unitary: np.ndarray
    transpose_flag: bool = False

    def __post_init__(self) -> None:
        u = np.asarray(self.unitary)
        defect = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
        if defect > 1e-10:
            raise ValueError("matrix is not unitary within tolerance")

    @property
    def d(self) -> int:
        return self.unitary.shape[0]

    def apply(self, mat: np.ndarray) -> np.ndarray:
        mat = np.asarray(mat, dtype=complex)
        if self.transpose_flag:
            mat = mat.T
        return self.unitary @ mat @ self.unitary.conj().T

    def compose(self, other: "SymmetryElement") -> "SymmetryElement":
        # self after other; transpose flags xor, with the inner unitary
        # conjugated when it crosses a transpose.
        inner = other.unitary.conj() if self.transpose_flag else other.unitary
        return SymmetryElement(unitary=self.unitary @ inner,
                               transpose_flag=self.transpose_flag != other.transpose_flag)

    def inverse(self) -> "SymmetryElement":
        if self.transpose_flag:
            return SymmetryElement(unitary=self.unitary.T, transpose_flag=True)
        return SymmetryElement(unitary=self.unitary.conj().T, transpose_flag=False)


def _stack(elements) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([g.unitary for g in elements], dtype=complex),
            np.array([g.transpose_flag for g in elements]))


def _found(unitaries: np.ndarray, flags: np.ndarray, elements, tol: float = 1e-8) -> np.ndarray:
    """For each (unitary, flag) candidate: does it equal an element up to a global phase?

    The phase is read off the normalized overlap tr(U† V)/d; candidates are
    compared against all elements at once, in chunks of bounded size.
    """
    targets, target_flags = _stack(elements)
    d = targets.shape[-1]
    found = np.zeros(len(unitaries), dtype=bool)
    step = max(1, 2 ** 12 // (len(targets) * d * d))  # about 2**12 entries per temporary
    for lo in range(0, len(unitaries), step):
        cand = unitaries[lo:lo + step]
        overlap = np.einsum("cab,eab->ce", cand.conj(), targets) / d
        size = np.abs(overlap)
        phase = overlap / np.where(size < 1e-12, 1.0, size)
        gap = np.max(np.abs(cand[:, None] * phase[..., None, None] - targets), axis=(-2, -1))
        same = (gap < tol) & (size >= 1e-12) & (flags[lo:lo + step, None] == target_flags)
        found[lo:lo + step] = same.any(axis=1)
    return found


@dataclass(frozen=True)
class SymmetryGroup:
    """Finite list of symmetries, verified closed under composition and inverse."""

    elements: tuple[SymmetryElement, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("group needs at least the identity")
        u, t = _stack(self.elements)
        adjoint = np.swapaxes(u, -1, -2)
        inverses = np.where(t[:, None, None], adjoint, adjoint.conj())
        if not _found(inverses, t, self.elements).all():
            raise ValueError("element list is not closed under inverses")
        # g.compose(h) for every pair: U_g times U_h, conjugated when g transposes
        inner = np.where(t[:, None, None, None], u.conj()[None], u[None])
        products = np.einsum("gab,ghbc->ghac", u, inner).reshape(-1, *u.shape[1:])
        flags = (t[:, None] != t[None, :]).reshape(-1)
        if not _found(products, flags, self.elements).all():
            raise ValueError("element list is not closed under composition")

    @property
    def d(self) -> int:
        return self.elements[0].d

    def __len__(self) -> int:
        return len(self.elements)

    @classmethod
    def generate(cls, generators, max_size: int = 512) -> "SymmetryGroup":
        d = generators[0].d
        elements = [SymmetryElement(unitary=np.eye(d, dtype=complex))]
        frontier = list(generators)
        while frontier:
            g = frontier.pop()
            if _found(g.unitary[None], np.array([g.transpose_flag]), elements)[0]:
                continue
            elements.append(g)
            if len(elements) > max_size:
                raise ValueError("group generation exceeded the size cap")
            for h in list(elements):
                frontier.append(g.compose(h))
                frontier.append(h.compose(g))
        return cls(elements=tuple(elements))


def _orthonormal_hermitian_basis(d: int) -> np.ndarray:
    # every element has squared Hilbert-Schmidt norm d(d-1), identity included
    return gellmann_basis(d) / np.sqrt(d * (d - 1))


def superoperator_matrix(g: SymmetryElement) -> np.ndarray:
    """Real action matrix of the symmetry on Hermitian space.

    Computed in an orthonormal Hermitian basis, so orthogonality statements
    about the superoperator are plain matrix statements.
    """
    basis = _orthonormal_hermitian_basis(g.d)
    images = np.array([g.apply(b) for b in basis])
    return np.real(np.einsum("iab,jab->ij", basis.conj(), images))


def average_projection(group: SymmetryGroup) -> np.ndarray:
    """Group average of the action matrices; the projection onto the fixed space.

    Postconditions asserted: idempotent, symmetric (self-adjoint for the
    Hilbert-Schmidt inner product), and absorbed by every group element on
    both sides.
    """
    actions = [superoperator_matrix(g) for g in group.elements]
    proj = np.mean(actions, axis=0)
    if np.max(np.abs(proj @ proj - proj)) > 1e-10:
        raise AssertionError("group average is not idempotent")
    if np.max(np.abs(proj - proj.T)) > 1e-10:
        raise AssertionError("group average is not self-adjoint")
    for act in actions:
        if np.max(np.abs(act @ proj - proj)) > 1e-10 or np.max(np.abs(proj @ act - proj)) > 1e-10:
            raise AssertionError("group average is not absorbed by an element")
    return proj


def fixed_point_space(group: SymmetryGroup, eig_tol: float = 1e-8) -> np.ndarray:
    """Orthonormal Hermitian basis of the fixed operator subspace.

    Eigenvectors of the averaging projection with eigenvalue within
    ``eig_tol`` of one, mapped back to matrices; the identity direction is
    always present.
    """
    proj = average_projection(group)
    values, vectors = np.linalg.eigh((proj + proj.T) / 2)
    basis = _orthonormal_hermitian_basis(group.d)
    keep = np.abs(values - 1.0) < eig_tol
    return np.array([np.tensordot(vectors[:, k], basis, axes=1)
                     for k in np.nonzero(keep)[0]])


def convex_hull_residual(group: SymmetryGroup, proj: np.ndarray | None = None) -> float:
    """Distance of the averaging projection from the hull of the group actions.

    Solved as a least-squares over element weights; if the unconstrained
    solution strays negative the uniform weights (always feasible) are used.
    """
    actions = np.array([superoperator_matrix(g) for g in group.elements])
    if proj is None:
        proj = average_projection(group)
    flat = actions.reshape(len(group), -1).T
    weights, *_ = np.linalg.lstsq(flat, proj.reshape(-1), rcond=None)
    if np.any(weights < -1e-10):
        weights = np.full(len(group), 1.0 / len(group))
    return float(np.linalg.norm(flat @ weights - proj.reshape(-1)))


def _complex_span(mats, tol: float = 1e-10) -> Span:
    """Kernel span of matrices flattened to vectors of the complex d*d space."""
    stack = np.asarray(mats, dtype=complex)
    return row_span(stack.reshape(len(stack), -1), tol)


def _unital_span(observables, tol: float = 1e-10) -> tuple[Span, int]:
    stack = as_observable_stack(observables)
    d = stack.shape[1]
    return _complex_span(np.concatenate([np.eye(d, dtype=complex)[None], stack]), tol), d


def is_star_algebra(observables, tol: float = 1e-8) -> bool:
    """Is the complex span of the observables (with identity) product-closed?

    Hermitian spans are automatically adjoint-closed, so only products are
    probed: every pairwise product of basis elements must project back into
    the span with small residual.
    """
    span, d = _unital_span(observables)
    basis = span.basis.reshape(-1, d, d)
    products = np.einsum("iab,jbc->ijac", basis, basis).reshape(-1, d * d)
    scale = np.maximum(1.0, np.linalg.norm(products, axis=1))
    return bool(np.all(span.outside(products) <= tol * scale))


def commutant(observables, tol: float = 1e-10) -> np.ndarray:
    """Basis of the matrices commuting with every observable.

    The commutator maps are stacked into one linear operator on vectorized
    matrices; its null space is the orthocomplement of the conjugated rows.
    The complex dimension is the length of the returned stack.
    """
    mats = as_observable_stack(observables)
    d = mats.shape[1]
    eye = np.eye(d)
    # Commuting with A is commuting with its traceless part.  Scalar parts are
    # dropped and the rest normalized, so that the relative threshold is never
    # set by the roundoff of an all-zero commutator map.
    rows = [np.zeros((1, d * d))]
    for a in mats:
        part = a - np.trace(a) / d * eye
        norm = np.linalg.norm(part)
        if norm > tol * np.linalg.norm(a):
            part = part / norm
            rows.append(np.kron(part, eye) - np.kron(eye, part.T))
    return row_span(np.vstack(rows).conj(), tol).complement.reshape(-1, d, d)


def generated_algebra(observables, tol: float = 1e-10, max_rounds: int = 32) -> np.ndarray:
    """Smallest product-closed complex span containing the observables and identity.

    Iterates span <- span + span*span until the dimension stabilizes.
    """
    span, d = _unital_span(observables, tol)
    basis = span.basis.reshape(-1, d, d)
    for _ in range(max_rounds):
        products = np.einsum("iab,jbc->ijac", basis, basis).reshape(-1, d, d)
        new_basis = _complex_span(np.concatenate([basis, products]), tol).basis.reshape(-1, d, d)
        if new_basis.shape[0] == basis.shape[0]:
            return new_basis
        basis = new_basis
    raise RuntimeError("algebra generation failed to stabilize")


def subspace_equal(stack_a: np.ndarray, stack_b: np.ndarray, tol: float = 1e-8) -> bool:
    """Mutual-projection equality of two complex matrix spans."""
    span_a = _complex_span(stack_a)
    span_b = _complex_span(stack_b)
    if span_a.rank != span_b.rank:
        return False
    return bool(np.all(span_b.outside(span_a.basis) <= tol)
                and np.all(span_a.outside(span_b.basis) <= tol))


def bicommutant_check(observables, tol: float = 1e-8) -> bool:
    """Double commutant equals the generated algebra (with identity adjoined)."""
    return bicommutant_equal(commutant(observables), generated_algebra(observables), tol)


def bicommutant_equal(first: np.ndarray, algebra: np.ndarray, tol: float = 1e-8) -> bool:
    """:func:`bicommutant_check` from the observables' commutant and generated algebra."""
    return subspace_equal(commutant(first), algebra, tol)


@dataclass
class SymmetryVerdict:
    certified: bool
    route: str | None
    evidence: dict[str, Any] = field(default_factory=dict)


def udp_implies_uda_via_symmetry(observables) -> SymmetryVerdict:
    """Certificate that uniqueness among pure states extends to all states.

    Certification happens through the *-subalgebra route (the commutant's
    unitaries provide the symmetry group) or, for qubits, unconditionally
    through the reflection construction.  Absence of a certificate is not a
    refutation.
    """
    stack = as_observable_stack(observables)
    star = is_star_algebra(stack)
    return symmetry_verdict(stack.shape[1], star, commutant(stack) if star else None)


def symmetry_verdict(d: int, star: bool, comm: np.ndarray | None) -> SymmetryVerdict:
    """The verdict of :func:`udp_implies_uda_via_symmetry`, given its star test.

    ``comm`` is the observables' commutant; it is read only when ``star`` holds.
    """
    if star:
        return SymmetryVerdict(
            certified=True,
            route="star-subalgebra",
            evidence={
                "commutant_dim": int(comm.shape[0]),
                "detail": "span is product-closed; conjugations by commutant unitaries fix it",
            },
        )
    if d == 2:
        return SymmetryVerdict(
            certified=True,
            route="qubit-reflection",
            evidence={"detail": "reflection through the observable span fixes exactly its states"},
        )
    return SymmetryVerdict(certified=False, route=None,
                           evidence={"detail": "no certificate from this module"})


def _partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def realizable_fixed_dims(d: int) -> list[int]:
    """Possible spans of observable sets fixed by some state-space symmetry.

    Union of every k <= d (repeated-diagonal commutative algebras) and every
    sum of squared block sizes over partitions of d (block-diagonal
    algebras), sorted ascending.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    dims = set(range(1, d + 1))
    for part in _partitions(d):
        dims.add(int(sum(k * k for k in part)))
    return sorted(dims)


# Named example groups (used by tests and the acceptance suite).

def transpose_reflection_group(d: int) -> SymmetryGroup:
    """Order-two group {identity, transpose}; fixes the real symmetric matrices.

    On the qubit Bloch ball the transpose flips the y component, so this is
    the reflection through the xz-plane.
    """
    eye = np.eye(d, dtype=complex)
    return SymmetryGroup(elements=(
        SymmetryElement(unitary=eye),
        SymmetryElement(unitary=eye, transpose_flag=True),
    ))


def xy_reflection_group() -> SymmetryGroup:
    """Qubit reflection through the xy-plane: transpose composed with an x-flip.

    The bare transpose sends Bloch (x, y, z) to (x, -y, z); conjugating by
    Pauli X afterwards restores y and flips z, fixing exactly span{I, X, Y}.
    """
    return SymmetryGroup(elements=(
        SymmetryElement(unitary=np.eye(2, dtype=complex)),
        SymmetryElement(unitary=PAULI_X, transpose_flag=True),
    ))


def sign_flip_group(pattern: np.ndarray) -> SymmetryGroup:
    """Order-two group generated by conjugation with a diagonal sign pattern."""
    signs = np.asarray(pattern, dtype=float)
    return SymmetryGroup.generate([SymmetryElement(unitary=np.diag(signs).astype(complex))])


def cyclic_diagonal_group(d: int) -> SymmetryGroup:
    """Cyclic group of the root-of-unity diagonal; its average pinches to diagonals."""
    omega = np.exp(2j * np.pi / d)
    gen = np.diag(omega ** np.arange(d))
    return SymmetryGroup.generate([SymmetryElement(unitary=gen)])


def permutation_conjugation_group(d: int) -> SymmetryGroup:
    """All permutation-matrix conjugations of a d-level system."""
    elements = []
    for perm in permutations(range(d)):
        mat = np.zeros((d, d), dtype=complex)
        for i, p in enumerate(perm):
            mat[p, i] = 1.0
        elements.append(SymmetryElement(unitary=mat))
    return SymmetryGroup(elements=tuple(elements))


def pauli_conjugation_group() -> SymmetryGroup:
    """Conjugations by I, X, Y, Z on a qubit (projectively closed)."""
    return SymmetryGroup(elements=tuple(
        SymmetryElement(unitary=u) for u in
        (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)))


def cyclic_shift_group(d: int) -> SymmetryGroup:
    """Conjugations by powers of the cyclic shift; fixes the circulant matrices."""
    shift = np.zeros((d, d), dtype=complex)
    for i in range(d):
        shift[(i + 1) % d, i] = 1.0
    return SymmetryGroup.generate([SymmetryElement(unitary=shift)])


@dataclass
class QubitClassification:
    """Fixed-set geometry of a qubit observable span plus per-state outcomes."""

    span_dim: int
    label: str
    on_fixed_outcomes: list[CertificateOutcome]
    off_fixed_outcomes: list[CertificateOutcome]

    @property
    def consistent(self) -> bool:
        on_ok = all(not o.falsified for o in self.on_fixed_outcomes)
        off_ok = all(o.falsified for o in self.off_fixed_outcomes)
        return on_ok and off_ok


def _qubit_bloch(mat: np.ndarray) -> np.ndarray:
    return np.array([float(np.real(np.trace(mat @ p))) / 2
                     for p in (PAULI_X, PAULI_Y, PAULI_Z)])


def _bloch_state(r: np.ndarray) -> np.ndarray:
    rho = (np.eye(2, dtype=complex) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z) / 2
    values, vectors = np.linalg.eigh(rho)
    return vectors[:, -1]


def qubit_classification(observables, samples: int = 20, seed: int = 0,
                         cfg: FeasibilityConfig | None = None) -> QubitClassification:
    """Classify which qubit pure states the observables pin down.

    The traceless parts of the observables span a subspace of the Bloch ball
    of dimension 0 to 3.  States on the intersection of that span with the
    sphere survive the UDA falsifier; states off it are falsified for UDP by
    their reflection through the span, an explicitly constructed partner with
    identical expectations.
    """
    stack = as_observable_stack(observables)
    if stack.shape[1] != 2:
        raise ValueError("classification applies to qubits only")
    check_hermitian_stack(stack)
    cfg = cfg or FeasibilityConfig(restarts=5, max_iterations=1500)
    span = row_span(np.array([_qubit_bloch(m) for m in stack]), 1e-10)
    span_dim = span.rank
    frame = span.basis  # orthonormal frame of the span
    labels = {0: "center", 1: "diameter", 2: "disk-section", 3: "full-ball"}

    rng = np.random.default_rng(seed)
    on_outcomes: list[CertificateOutcome] = []
    off_outcomes: list[CertificateOutcome] = []

    for _ in range(samples):
        if span_dim == 0:
            psi = None
        else:
            coeff = rng.standard_normal(span_dim)
            direction = coeff @ frame
            direction /= np.linalg.norm(direction)
            psi = _bloch_state(direction)
        if psi is not None:
            on_outcomes.append(uda_certify(psi, stack, cfg, use_structural=(span_dim == 3)))
        if span_dim == 3:
            continue  # nothing lies off a full span

        # off-span state with a safely separated mirror partner
        while True:
            psi = random_pure(2, rng)
            r = _qubit_bloch(pure_density(psi))
            r_proj = frame.T @ (frame @ r)
            if np.linalg.norm(r - r_proj) > 0.2:
                break
        mirror = _bloch_state(2 * r_proj - r)
        gap = float(np.max(np.abs(measure(stack, mirror) - measure(stack, psi))))
        distance = float(np.linalg.norm(pure_density(mirror) - pure_density(psi)))
        if gap > 1e-9 or distance < cfg.distinctness_tol:
            raise AssertionError("reflection partner failed to falsify")
        off_outcomes.append(CertificateOutcome(
            verdict=FALSIFIED,
            witness=mirror,
            evidence={"route": "bloch-reflection", "measurement_gap": gap, "distance": distance},
        ))

    return QubitClassification(
        span_dim=span_dim,
        label=labels[span_dim],
        on_fixed_outcomes=on_outcomes,
        off_fixed_outcomes=off_outcomes,
    )
