"""Planar joint numerical ranges: boundary sweeps, the consistency scan, demos.

For two Hermitian observables the set of pure-state expectation pairs is the
classical numerical range of ``A1 + i A2`` and is convex; its boundary is
traced by maximizing ``cos(t) A1 + sin(t) A2`` over a grid of angles.  With
exactly two observables, a pure state that is unique among pure states is
automatically unique among all states; the scan in this module stress-tests
that equivalence point by point.  Two demonstration records show where the
picture breaks for more observables: a qutrit triple whose range is a solid
ball yet hosts a pure/mixed ambiguity, and the qubit four-tuple whose range
is a hollow sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .basis import PAULI_X, PAULI_Y, PAULI_Z
from .certify import (
    CertificateOutcome,
    FeasibilityConfig,
    falsify_uda,
    measure,
    sphere_minimize,
    udp_certify,
)
# Not used here: re-exported because udabench's tracer and scripts/bench_pair.py
# patch the Dykstra engine by name in this module as well as in ``certify``.
from .certify import _dykstra  # noqa: F401
from .linalg import check_hermitian, eig_hermitian
from .matio import format_float
from .states import random_pure

# Relative band under the top eigenvalue within which the supporting
# eigenvalue of a sweep angle counts as degenerate.
DEGENERACY_TOL = 1e-8
# Interior samples must clear every supporting half-plane by this share of
# the boundary's diameter.
INTERIOR_MARGIN = 0.05


@dataclass
class PlanarRange:
    """Boundary data of a two-observable joint numerical range.

    Points are listed in increasing supporting angle over [0, 2pi);
    ``states[k]`` achieves ``points[k]`` and ``degeneracy[k]`` counts the
    multiplicity of the supporting eigenvalue.
    """

    thetas: np.ndarray
    points: np.ndarray
    states: np.ndarray
    degeneracy: np.ndarray
    support_values: np.ndarray

    def __len__(self) -> int:
        return len(self.thetas)

    def write_csv(self, path: str) -> None:
        """Write one ``theta,x,y,degeneracy`` line per boundary point."""
        with open(path, "w") as handle:
            handle.write("theta,x,y,degeneracy\n")
            for theta, (x, y), degeneracy in zip(self.thetas, self.points, self.degeneracy):
                handle.write(f"{format_float(theta)},{format_float(x)},{format_float(y)},"
                             f"{int(degeneracy)}\n")


def pauli_embedded(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The qubit Pauli triple acting on the first two levels of a d-level system."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    out = []
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        m = np.zeros((d, d), dtype=complex)
        m[:2, :2] = p
        out.append(m)
    return out[0], out[1], out[2]


def _sweep_angle(a1: np.ndarray, a2: np.ndarray, theta: float):
    herm = np.cos(theta) * a1 + np.sin(theta) * a2
    values, vectors = eig_hermitian(herm)
    top = values[-1]
    scale = max(1.0, float(np.max(np.abs(values))))
    multiplicity = int(np.sum(values > top - DEGENERACY_TOL * scale))
    psi = vectors[:, -1]
    point = (
        float(np.real(np.vdot(psi, a1 @ psi))),
        float(np.real(np.vdot(psi, a2 @ psi))),
    )
    return point, psi, multiplicity, float(top)


def boundary_sweep(a1: np.ndarray, a2: np.ndarray, angles: int = 720,
                   refine_gap: float | None = None,
                   max_points: int = 4096) -> PlanarRange:
    """Trace the range boundary over a grid of supporting angles.

    When ``refine_gap`` is set, angles are bisected wherever consecutive
    boundary points are farther apart than that threshold (flat edges and
    corners), up to ``max_points`` total angles.
    """
    if angles < 8:
        raise ValueError("need at least 8 angles")
    a1 = np.asarray(a1, dtype=complex)
    a2 = np.asarray(a2, dtype=complex)
    check_hermitian(a1)
    check_hermitian(a2)
    if a1.shape != a2.shape:
        raise ValueError("observable dimensions differ")

    thetas = list(np.linspace(0.0, 2 * np.pi, angles, endpoint=False))
    records = {t: _sweep_angle(a1, a2, t) for t in thetas}
    if refine_gap is not None:
        while len(records) < max_points:
            ordered = sorted(records)
            inserted = False
            for lo, hi in zip(ordered, ordered[1:] + [ordered[0] + 2 * np.pi]):
                p_lo = np.array(records[lo % (2 * np.pi)][0])
                p_hi = np.array(records[hi % (2 * np.pi)][0])
                if np.linalg.norm(p_hi - p_lo) > refine_gap:
                    mid = (lo + hi) / 2 % (2 * np.pi)
                    if mid not in records:
                        records[mid] = _sweep_angle(a1, a2, mid)
                        inserted = True
                if len(records) >= max_points:
                    break
            if not inserted:
                break

    ordered = sorted(records)
    points = np.array([records[t][0] for t in ordered])
    states = np.array([records[t][1] for t in ordered])
    degeneracy = np.array([records[t][2] for t in ordered])
    support = np.array([records[t][3] for t in ordered])
    return PlanarRange(
        thetas=np.array(ordered),
        points=points,
        states=states,
        degeneracy=degeneracy,
        support_values=support,
    )


def halfplane_slacks(planar: PlanarRange, points: np.ndarray) -> np.ndarray:
    """Minimum slack of each point against every supporting half-plane.

    Convexity of the range makes every slack nonnegative up to roundoff for
    points that are expectation pairs of actual states.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    normals = np.stack([np.cos(planar.thetas), np.sin(planar.thetas)], axis=1)
    proj = points @ normals.T
    return np.min(planar.support_values[None, :] - proj, axis=1)


@dataclass
class ConsistencyReport:
    """Tally of the pointwise uniqueness scan over a planar range."""

    boundary_checked: int = 0
    boundary_uda_falsified: int = 0
    interior_checked: int = 0
    interior_udp_falsified: int = 0
    hard_failures: int = 0
    details: list[dict[str, Any]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.hard_failures == 0 and self.boundary_uda_falsified == 0
                and self.interior_udp_falsified == self.interior_checked)


def uniqueness_consistency_scan(a1: np.ndarray, a2: np.ndarray, trials: int = 10,
                                seed: int = 0, angles: int = 64,
                                cfg: FeasibilityConfig | None = None) -> ConsistencyReport:
    """Stress-test the pure/mixed uniqueness equivalence for two observables.

    Every boundary state with a nondegenerate supporting eigenvalue must pass
    the UDA falsifier unharmed, and every sampled pure state whose image lies
    strictly inside the range must be UDP-falsified (a second pure preimage
    exists by convexity).  A boundary instance where the UDA engine finds a
    counterexample while the UDP engine does not is a hard failure.
    """
    if trials < 1:
        raise ValueError("need at least one interior trial")
    cfg = cfg or FeasibilityConfig(restarts=3, max_iterations=800)
    planar = boundary_sweep(a1, a2, angles)
    stack = np.array([a1, a2])
    report = ConsistencyReport()
    rng = np.random.default_rng(seed)
    d = a1.shape[0]

    seen: list[np.ndarray] = []
    thetas: list[float] = []
    for k in range(len(planar)):
        if planar.degeneracy[k] != 1:
            continue
        psi = planar.states[k]
        if any(abs(np.vdot(s, psi)) ** 2 > 1.0 - 1e-10 for s in seen):
            continue
        seen.append(psi)
        thetas.append(float(planar.thetas[k]))
    report.boundary_checked = len(seen)

    outcomes = falsify_uda(seen, stack, cfg) if seen else []
    for psi, theta, outcome in zip(seen, thetas, outcomes):
        if not outcome.falsified:
            continue
        report.boundary_uda_falsified += 1
        if not udp_certify(psi, stack, cfg).falsified:
            report.hard_failures += 1
            report.details.append({"kind": "hard-failure", "theta": theta})

    diameter = float(np.max(np.linalg.norm(
        planar.points[:, None, :] - planar.points[None, :, :], axis=-1)))
    margin = INTERIOR_MARGIN * max(diameter, 1e-12)
    found = 0
    attempts = 0
    while found < trials and attempts < 200 * trials:
        attempts += 1
        psi = random_pure(d, rng)
        point = measure(stack, psi)
        if float(halfplane_slacks(planar, point)[0]) < margin:
            continue
        found += 1
        report.interior_checked += 1
        udp = udp_certify(psi, stack, cfg)
        if udp.falsified:
            report.interior_udp_falsified += 1
        else:
            report.details.append({
                "kind": "interior-miss",
                "point": [float(point[0]), float(point[1])],
                "min_off_orbit_objective": udp.evidence.get("min_off_orbit_objective"),
            })
    return report


@dataclass
class QutritGapRecord:
    """A convex three-observable range with a pure state unique only among pures."""

    observables: np.ndarray
    target: np.ndarray
    pure_state: np.ndarray
    pure_measurement: np.ndarray
    mixed_witness: np.ndarray
    witness_measurement: np.ndarray
    udp_outcome: CertificateOutcome
    ball_points_checked: int
    ball_realization_error: float

    @property
    def passed(self) -> bool:
        return (not self.udp_outcome.falsified
                and np.array_equal(self.pure_measurement, self.target)
                and np.array_equal(self.witness_measurement, self.target)
                and self.ball_realization_error < 1e-6)


def _ball_point_state(point: np.ndarray) -> np.ndarray:
    """Pure qutrit state whose first-two-level Pauli expectations hit ``point``.

    For a ball point of radius r the state puts weight r on a qubit state
    aligned with the direction and the rest on the third level, scaling the
    Pauli expectations by exactly r.
    """
    r = float(np.linalg.norm(point))
    if r < 1e-15:
        return np.array([0.0, 0.0, 1.0], dtype=complex)
    x, y, z = np.asarray(point, dtype=float) / r
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phase = np.arctan2(y, x)
    qubit = np.array([np.cos(theta / 2), np.exp(1j * phase) * np.sin(theta / 2)])
    out = np.zeros(3, dtype=complex)
    out[:2] = np.sqrt(r) * qubit
    out[2] = np.sqrt(1.0 - r)
    return out


def qutrit_counterexample(ball_points: int = 1000, seed: int = 0,
                          udp_restarts: int = 200) -> QutritGapRecord:
    """Embedded-Pauli qutrit demo: convex range, unique pure state, mixed twin.

    The measurement (0, 0, 0) of the embedded Pauli triple is produced by the
    third basis state, by no other pure state (checked by the UDP search),
    and by many mixed states such as the even two-level mixture.  The range
    of the triple is the whole solid ball: every sampled interior point is
    realized exactly by an explicit superposition.
    """
    x3, y3, z3 = pauli_embedded(3)
    stack = np.array([x3, y3, z3])
    pure = np.array([0.0, 0.0, 1.0], dtype=complex)
    witness = np.diag([0.5, 0.5, 0.0]).astype(complex)
    target = np.zeros(3)

    cfg = FeasibilityConfig(restarts=udp_restarts, seed=seed, max_iterations=400)
    udp = udp_certify(pure, stack, cfg)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ball_points):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform(0.0, 1.0)
        point = radius * direction
        psi = _ball_point_state(point)
        worst = max(worst, float(np.linalg.norm(measure(stack, psi) - point)))

    return QutritGapRecord(
        observables=stack,
        target=target,
        pure_state=pure,
        pure_measurement=measure(stack, pure),
        mixed_witness=witness,
        witness_measurement=measure(stack, witness),
        udp_outcome=udp,
        ball_points_checked=ball_points,
        ball_realization_error=worst,
    )


@dataclass
class SphereGapRecord:
    """Nonconvexity of the full-Pauli four-observable range on a qubit."""

    observables: np.ndarray
    image_zero: np.ndarray
    image_one: np.ndarray
    midpoint: np.ndarray
    min_pure_distance: float
    mixed_reaches_midpoint: bool

    @property
    def passed(self) -> bool:
        return self.min_pure_distance >= 1.0 - 1e-6 and self.mixed_reaches_midpoint


def bloch_nonconvexity_demo(probes: int = 10000, seed: int = 0) -> SphereGapRecord:
    """Show that the (I, X, Y, Z) pure-state range is a hollow sphere.

    The images of the two basis states average to a midpoint reachable by the
    maximally mixed state but by no pure state: random probes plus gradient
    refinement never get closer than distance one (the sphere radius).
    """
    stack = np.array([np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z])
    zero = np.array([1.0, 0.0], dtype=complex)
    one = np.array([0.0, 1.0], dtype=complex)
    img0 = measure(stack, zero)
    img1 = measure(stack, one)
    midpoint = (img0 + img1) / 2

    rng = np.random.default_rng(seed)
    cfg = FeasibilityConfig(restarts=1, max_iterations=200)
    best = np.inf
    for k in range(probes):
        psi = random_pure(2, rng)
        dist = float(np.linalg.norm(measure(stack, psi) - midpoint))
        best = min(best, dist)
        if k < 32:
            phi, value = sphere_minimize(stack, midpoint, psi, cfg)
            best = min(best, float(np.sqrt(value)))

    mixed = np.eye(2, dtype=complex) / 2
    mixed_hit = bool(np.linalg.norm(measure(stack, mixed) - midpoint) < 1e-12)
    return SphereGapRecord(
        observables=stack,
        image_zero=img0,
        image_one=img1,
        midpoint=midpoint,
        min_pure_distance=best,
        mixed_reaches_midpoint=mixed_hit,
    )
