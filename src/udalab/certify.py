"""Certify or falsify uniqueness of a state given observable expectations.

Two notions are handled.  A pure state is *uniquely determined among pure
states* (UDP) if no other pure state reproduces its expectation values, and
*uniquely determined among all states* (UDA) if no state at all does.

Positive certificates come from the observables' span alone: a trivial
orthocomplement means full tomography, and one inside the line-matrix family
span (:func:`udalab.construction.family_span_outside`) has only directions
that leave the positive cone at a pure state.  Everything else is attacked by
falsification engines: Dykstra alternating projections between the PSD cone
and the measurement-affine slab (for UDA) and projected gradient descent on
the unit sphere (for UDP).  When the engines find nothing the verdict is an
explicit ``Inconclusive``, never a silent pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .construction import (FAMILY_SPAN_CUT, ObservableSet, family_size_formula,
                           family_span_outside, traceless_complement)
from .linalg import (check_hermitian, check_hermitian_stack, eig_hermitian, hermitize, hs_norm,
                     real_rows, row_span)
from .states import check_pure, pure_density, random_density, random_pure

CERTIFIED = "CertifiedUnique"
FALSIFIED = "Falsified"
INCONCLUSIVE = "Inconclusive"

# Sphere-gradient line search: first trial step, its shrink factor and floor,
# and the gradient norm below which a run stops.
STEP_INIT = 1.0
STEP_SHRINK = 0.5
MIN_STEP = 1e-12
GRADIENT_TOL = 1e-10
# UDP finals with a larger overlap with the query are tallied as near-orbit.
ORBIT_OVERLAP = 0.99
# Relative singular-value cut of the affine constraints: the square root of
# the rcond 1e-13 that a pseudo-inverse of their Gram matrix would use.
AFFINE_RANK_TOL = float(np.sqrt(1e-13))


@dataclass
class FeasibilityConfig:
    """Knobs for the falsification engines."""

    max_iterations: int = 2000
    restarts: int = 20
    seed: int = 0
    constraint_tol: float = 1e-8
    distinctness_tol: float = 1e-4

    def __post_init__(self) -> None:
        if self.constraint_tol <= 0 or self.distinctness_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass
class CertificateOutcome:
    """Result of a uniqueness check.

    ``witness`` is populated only for ``Falsified`` verdicts and then
    satisfies the same measurement vector within the tolerance reported in
    ``evidence`` while differing from the query state beyond the reported
    distance.
    """

    verdict: str
    witness: np.ndarray | None = None
    evidence: dict[str, Any] = field(default_factory=dict)

    @property
    def falsified(self) -> bool:
        return self.verdict == FALSIFIED


def as_observable_stack(observables) -> np.ndarray:
    """Normalize an ObservableSet, one matrix or a matrix stack to a ``(k, d, d)`` stack."""
    if isinstance(observables, ObservableSet):
        return observables.matrices
    stack = np.asarray(observables, dtype=complex)
    if stack.ndim == 2:
        stack = stack[None, :, :]
    return stack


def measure(observables, state: np.ndarray) -> np.ndarray:
    """Expectation values in a pure or mixed state; raises as :func:`udalab.basis.expectation`."""
    stack = as_observable_stack(observables)
    check_hermitian_stack(stack)
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1 and state.shape[0] == stack.shape[1]:
        state = np.outer(state, state.conj())
    if state.shape != stack.shape[1:]:
        raise ValueError("state and observable dimensions differ")
    return np.real(np.einsum("kij,ji->k", stack, state))


def _project_psd(mats: np.ndarray) -> np.ndarray:
    """Batched projection onto the PSD cone (eigenvalue clipping; eigh reads one triangle)."""
    values, vectors = np.linalg.eigh(mats)
    return (vectors * np.clip(values, 0.0, None)[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


class _AffineProjector:
    """Projection onto {X Hermitian : <C_i, X> = <C_i, anchor>}, C = [I, A_1, ...], batched.

    ``anchors`` are feasible points: one matrix, or one per batch entry.  The
    constraints are rows of real and imaginary parts, so <C_i, X> =
    Re tr(C_i† X) is a real dot product.  With Q an orthonormal basis of
    their span, the projection removes the constraint-space part of
    X - anchor: X - (X Qᵀ - anchor Qᵀ) Q, two matrix products on the
    flattened batch.
    """

    def __init__(self, stack: np.ndarray, anchors: np.ndarray):
        constraints = np.concatenate([np.eye(stack.shape[1])[None], stack], dtype=complex)
        self.rows = real_rows(constraints)
        self.basis = row_span(self.rows, AFFINE_RANK_TOL).basis
        anchors = real_rows(np.asarray(anchors, dtype=complex))
        self.anchor_coords = anchors @ self.basis.T
        self.anchor_values = anchors @ self.rows.T

    def residual(self, mats: np.ndarray) -> np.ndarray:
        return np.linalg.norm(real_rows(mats) @ self.rows.T - self.anchor_values, axis=-1)

    def __call__(self, mats: np.ndarray) -> np.ndarray:
        flat = real_rows(mats)
        step = (flat @ self.basis.T - self.anchor_coords) @ self.basis
        return (flat - step).view(complex).reshape(mats.shape)


def _dykstra(starts: np.ndarray, affine: _AffineProjector, cfg: FeasibilityConfig) -> dict[str, Any]:
    """Dykstra alternating projections between the PSD cone and affine sets.

    Runs one projection stream per batch entry (entries may carry different
    affine anchors).  Returns the PSD iterates, their affine residuals, the
    iteration count, and per-run counts of affine-distance increases (which
    stay at zero up to roundoff slack).

    Dykstra's correction for the affine step is omitted: a sum of projection
    residuals, it lies in the normal space span{I, A_i}, along which a shift
    does not move the projection onto the affine set.  So the affine iterate
    is the projection of the PSD iterate, which also gives its distance.
    """
    x = affine((starts + np.conj(np.swapaxes(starts, -1, -2))) / 2)
    p = np.zeros_like(x)
    y = x
    batch = x.shape[0]
    prev_dist = np.full(batch, np.inf)
    monotonicity_breaks = np.zeros(batch, dtype=int)
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        shifted = x + p
        y = _project_psd(shifted)
        p = shifted - y
        x_new = affine(y)
        dist = np.linalg.norm((y - x_new).reshape(batch, -1), axis=1)
        monotonicity_breaks += dist > prev_dist + 1e-12 * np.maximum(1.0, prev_dist)
        prev_dist = dist
        change = np.linalg.norm((x_new - x).reshape(batch, -1), axis=1)
        x = x_new
        if np.all(dist < cfg.constraint_tol) and np.all(change < cfg.constraint_tol * 1e-2):
            break
    return {
        "points": y,
        "residuals": affine.residual(y),
        "iterations": iterations,
        "monotonicity_breaks": monotonicity_breaks,
    }


def _structural_certificate(stack: np.ndarray) -> CertificateOutcome | None:
    """Certify through the orthocomplement structure when possible."""
    d = stack.shape[1]
    comp = traceless_complement(stack, d)
    if comp.dim == 0:
        return CertificateOutcome(
            verdict=CERTIFIED,
            evidence={
                "route": "complete-tomography",
                "detail": "trivial orthocomplement: expectations plus trace determine the state",
            },
        )
    outside = family_span_outside(comp)
    if outside > FAMILY_SPAN_CUT:
        return None
    return CertificateOutcome(
        verdict=CERTIFIED,
        evidence={
            "route": "two-sided-complement",
            "detail": "orthocomplement in the family span: >= 2 eigenvalues of each sign",
            "complement_dim": comp.dim,
            "family_dim": family_size_formula(d, 1),
            "outside": outside,
        },
    )


def uda_certify(psi: np.ndarray, observables, cfg: FeasibilityConfig | None = None,
                use_structural: bool = True) -> CertificateOutcome:
    """Decide or falsify uniqueness among all states for a pure query state.

    Structural certificates are attempted first (see module docstring); when
    unavailable, the verdict is that of :func:`falsify_uda`.
    """
    cfg = cfg or FeasibilityConfig()
    stack = as_observable_stack(observables)
    if use_structural:  # the structural route reads no state, so it is validated here
        check_pure(psi)
        measure(stack, psi)  # rejects mismatched dimensions
        outcome = _structural_certificate(stack)
        if outcome is not None:
            return outcome
    return falsify_uda([psi], stack, cfg)[0]


def falsify_uda(states, observables, cfg: FeasibilityConfig | None = None) -> list[CertificateOutcome]:
    """Search for a second state with the measurements of each pure query state.

    One batched Dykstra run holds ``cfg.restarts`` streams per state; stream
    ``i`` of the batch starts from ``random_density(d, d, cfg.seed + i)``.
    A converged point farther than ``distinctness_tol`` (Frobenius) from its
    query projector falsifies that query; otherwise its verdict is
    ``Inconclusive`` with per-restart convergence evidence.  One outcome per
    state, in order.
    """
    cfg = cfg or FeasibilityConfig()
    stack = as_observable_stack(observables)
    for psi in states:
        check_pure(psi)
        measure(stack, psi)  # rejects mismatched dimensions
    queries = np.array([pure_density(psi) for psi in states])
    d = stack.shape[1]
    affine = _AffineProjector(stack, np.repeat(queries, cfg.restarts, axis=0))
    starts = np.array([random_density(d, d, cfg.seed + i)
                       for i in range(len(queries) * cfg.restarts)])
    run = _dykstra(starts, affine, cfg)
    shape = (len(queries), cfg.restarts)
    points = run["points"].reshape(*shape, d, d)
    residuals = run["residuals"].reshape(shape)
    breaks = run["monotonicity_breaks"].reshape(shape)
    distances = np.linalg.norm((points - queries[:, None]).reshape(*shape, -1), axis=-1)
    outcomes = []
    for k, converged in enumerate(residuals <= cfg.constraint_tol):
        hits = np.nonzero(converged & (distances[k] > cfg.distinctness_tol))[0]
        if hits.size:  # first restart wins, deterministic under the seed
            r = int(hits[0])
            outcomes.append(CertificateOutcome(
                verdict=FALSIFIED,
                witness=points[k, r],
                evidence={
                    "route": "dykstra",
                    "restart": r,
                    "residual": float(residuals[k, r]),
                    "distance": float(distances[k, r]),
                    "iterations": run["iterations"],
                    "monotonicity_breaks": int(breaks[k, r]),
                },
            ))
            continue
        any_converged = bool(np.any(converged))
        outcomes.append(CertificateOutcome(
            verdict=INCONCLUSIVE,
            evidence={
                "route": "dykstra",
                "detail": "no feasible state beyond the distinctness tolerance was found",
                "restarts": cfg.restarts,
                "max_distance": float(np.max(distances[k][converged])) if any_converged else 0.0,
                "worst_residual": float(np.max(residuals[k][converged])) if any_converged else 0.0,
                "best_residual": float(np.min(residuals[k])),
                "non_converged": int(np.sum(~converged)),
            },
        ))
    return outcomes


def sphere_minimize(stack: np.ndarray, target: np.ndarray, start: np.ndarray,
                    cfg: FeasibilityConfig) -> tuple[np.ndarray, float]:
    """Projected gradient descent for ||A(phi) - target||^2 on the unit sphere."""
    phi = start / np.linalg.norm(start)
    flat = stack.reshape(len(stack), -1)

    def residuals(vec: np.ndarray) -> np.ndarray:
        # <vec|A_k|vec> = sum_ij A_k[i, j] conj(vec_i) vec_j
        return np.real(flat @ np.outer(vec.conj(), vec).ravel()) - target

    def objective(vec: np.ndarray) -> float:
        gaps = residuals(vec)
        return float(np.dot(gaps, gaps))

    value = objective(phi)
    for _ in range(cfg.max_iterations):
        if value < 1e-20:
            break
        gaps = residuals(phi)
        grad = 2.0 * (gaps @ flat).reshape(stack.shape[1:]) @ phi
        grad = grad - np.vdot(phi, grad) * phi
        gnorm = float(np.linalg.norm(grad))
        if gnorm < GRADIENT_TOL:
            break

        def probe(step: float) -> tuple[np.ndarray, float]:
            trial = phi - step * grad
            trial = trial / np.linalg.norm(trial)
            return trial, objective(trial)

        step = STEP_INIT
        improved = False
        while step >= MIN_STEP:
            trial, trial_value = probe(step)
            if trial_value < value - 1e-4 * step * gnorm * gnorm:
                if step == STEP_INIT:
                    # flat valleys (quartic minima) need steps far above the
                    # unit scale: expand while strictly better.
                    for _ in range(60):
                        wider, wider_value = probe(step * 2)
                        if wider_value < trial_value:
                            step *= 2
                            trial, trial_value = wider, wider_value
                        else:
                            break
                # a bare Armijo step tends to overshoot the line minimum and
                # ping-pong across it: contract while strictly better.
                while step / 2 >= MIN_STEP:
                    finer, finer_value = probe(step / 2)
                    if finer_value < trial_value:
                        step /= 2
                        trial, trial_value = finer, finer_value
                    else:
                        break
                phi, value = trial, trial_value
                improved = True
                break
            step *= STEP_SHRINK
        if not improved:
            break
    return phi, value


def udp_certify(psi: np.ndarray, observables, cfg: FeasibilityConfig | None = None) -> CertificateOutcome:
    """Falsify uniqueness among pure states, or report Inconclusive.

    Minimizes the measurement mismatch over the unit sphere from random
    starts.  Candidates whose overlap with the query exceeds
    ``1 - distinctness_tol`` are the same physical state and are rejected.
    A rejected-overlap run can still end on the query's orbit; the evidence
    records the best off-orbit objective so callers can assert margins.
    This routine never certifies positively: uniqueness among pure states
    follows from :func:`uda_certify` when it certifies.
    """
    cfg = cfg or FeasibilityConfig(restarts=50)
    check_pure(psi)
    stack = as_observable_stack(observables)
    target = measure(stack, psi)  # rejects mismatched dimensions
    rng = np.random.default_rng(cfg.seed)
    best_off_orbit = np.inf
    on_orbit_runs = 0
    near_orbit_runs = 0
    for r in range(cfg.restarts):
        start = random_pure(len(psi), rng)
        phi, value = sphere_minimize(stack, target, start, cfg)
        overlap = abs(np.vdot(phi, psi)) ** 2
        if overlap > 1.0 - cfg.distinctness_tol:
            on_orbit_runs += 1
            continue
        if value < cfg.constraint_tol ** 2:
            return CertificateOutcome(
                verdict=FALSIFIED,
                witness=phi,
                evidence={
                    "route": "sphere-gradient",
                    "restart": r,
                    "objective": value,
                    "overlap": overlap,
                },
            )
        # margin bookkeeping: finals hovering near the query orbit say
        # nothing about second preimages, so they are tallied separately
        if overlap <= ORBIT_OVERLAP:
            best_off_orbit = min(best_off_orbit, value)
        else:
            near_orbit_runs += 1
    return CertificateOutcome(
        verdict=INCONCLUSIVE,
        evidence={
            "route": "sphere-gradient",
            "detail": "no distinct pure state matched the measurements",
            "restarts": cfg.restarts,
            "min_off_orbit_objective": best_off_orbit,
            "on_orbit_runs": on_orbit_runs,
            "near_orbit_runs": near_orbit_runs,
        },
    )


def gap_witness(v: np.ndarray, observables) -> tuple[np.ndarray, np.ndarray]:
    """Build a pure state and a mixed twin with identical expectations.

    ``v`` must be an invertible traceless Hermitian direction orthogonal to
    the observables' span whose spectrum has, after an overall sign flip if
    needed, exactly one (nondegenerate) negative eigenvalue mu.  The pure
    state is the corresponding eigenvector phi and the twin is
    ``phi phi† - v / mu``: positive semidefinite, unit trace, and equal on
    every observable yet different from the projector.  Such a state is
    unique among pure states but not among all states.
    """
    v = np.asarray(v, dtype=complex)
    check_hermitian(v)
    d = v.shape[0]
    stack = as_observable_stack(observables)
    norm = hs_norm(v)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    v = v / norm
    scale = max(1.0, float(np.max(np.abs(v))))
    if abs(np.trace(v).real) > 1e-10 * scale:
        raise ValueError("direction must be traceless")
    # each overlap against its observable's own scale, so rescaling them changes nothing
    proj = np.real(np.einsum("kab,ab->k", stack.conj(), v))
    if np.any(np.abs(proj) > 1e-10 * np.linalg.norm(stack.reshape(len(stack), -1), axis=1)):
        raise ValueError("direction is not orthogonal to the observable span")
    values, vectors = eig_hermitian(v)
    if np.min(np.abs(values)) < 1e-10:
        raise ValueError("direction must be invertible")
    n_neg = int(np.sum(values < 0))
    if n_neg == d - 1:
        v = -v
        values, vectors = eig_hermitian(v)
        n_neg = int(np.sum(values < 0))
    if n_neg != 1:
        raise ValueError(
            "construction needs an isolated-sign eigenvalue: exactly one eigenvalue "
            "of one sign and d-1 of the other")
    if d > 1 and values[1] - values[0] < 1e-10:
        raise ValueError("the isolated negative eigenvalue must be nondegenerate")
    mu = values[0]
    phi = vectors[:, 0]
    rho_twin = pure_density(phi) - v / mu
    return phi, hermitize(rho_twin)


@dataclass
class GroundStateReport:
    ground_state: np.ndarray
    gap: float
    outcome: CertificateOutcome

    @property
    def passed(self) -> bool:
        return not self.outcome.falsified


def ground_state_check(coeffs: np.ndarray, observables, cfg: FeasibilityConfig | None = None,
                       use_structural: bool = True) -> GroundStateReport:
    """Verify that a nondegenerate ground state survives the UDA falsifier.

    Builds ``H = sum coeffs_i A_i``, requires a spectral gap above
    ``1e-8 * norm`` for the lowest eigenvalue, and runs :func:`uda_certify`
    on the ground state; a falsification here would be a contradiction.
    """
    stack = as_observable_stack(observables)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[0] != stack.shape[0]:
        raise ValueError("coefficient count does not match observable count")
    ham = np.tensordot(coeffs, stack, axes=1)
    values, vectors = eig_hermitian(ham)
    scale = max(1.0, float(np.max(np.abs(values))))
    gap = float(values[1] - values[0])
    if gap <= 1e-8 * scale:
        raise ValueError("ground state is degenerate within tolerance")
    psi = vectors[:, 0]
    outcome = uda_certify(psi, stack, cfg, use_structural=use_structural)
    return GroundStateReport(ground_state=psi, gap=gap, outcome=outcome)
