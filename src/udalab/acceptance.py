"""Executable acceptance criteria for the whole package.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``reproduce`` subcommand and the test suite both run them.  Tolerances are
fixed here, not configurable: these are the contracts the package promises.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import construction, numrange, rdm, symmetry
from .basis import PAULI_X, PAULI_Y
from .certify import FeasibilityConfig, gap_witness, measure, uda_certify, udp_certify
from .linalg import row_span, signature
from .states import pure_density, random_density, random_pure


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index:02d} {self.name} ({self.seconds:.1f}s)"


def criterion_01_construction_counts(seed: int = 0) -> CriterionResult:
    """Family and observable counts match their closed forms, integer-exact."""
    checks = []
    for d in range(3, 13):
        fam = construction.complement_family(d, 1)
        obs = construction.uda_observables(d, 1)
        checks.append(len(obs) == 5 * d - 7)
        checks.append(len(fam) == d * d - 5 * d + 6)
    for q in (2, 3):
        for d in range(2 * q + 2, 13):
            fam = construction.complement_family(d, q)
            obs = construction.uda_observables(d, q)
            checks.append(len(fam) == construction.family_size_formula(d, q))
            checks.append(len(obs) == construction.observable_count_formula(d, q))
    return CriterionResult(1, "construction counts", all(checks),
                           {"checks": len(checks)})


def criterion_02_signature_property(seed: int = 0) -> CriterionResult:
    """Random unit combinations always show two eigenvalues of each sign."""
    worst = np.inf
    ok = True
    per_dim = {}
    for d in range(4, 11):
        fam = construction.complement_family(d, 1)
        report = construction.family_signature_check(fam, samples=1000, seed=seed, tol=1e-9)
        ok = ok and report.passed and report.min_n_plus >= 2 and report.min_n_minus >= 2
        worst = min(worst, report.worst_margin)
        per_dim[d] = {"min_plus": report.min_n_plus, "min_minus": report.min_n_minus}
    return CriterionResult(2, "line-family signature property", ok,
                           {"worst_margin": worst, "per_dim": per_dim})


def criterion_03_d4_golden_case(seed: int = 0) -> CriterionResult:
    """The two d=4 matrices, their signatures, and the complex-span rank drop."""
    fam = construction.complement_family(4, 1)
    h1_expected = np.zeros((4, 4), dtype=complex)
    h2_expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 3), (1, 2)):
        h1_expected[i, j] = h1_expected[j, i] = 1.0
        h2_expected[i, j] = 1j
        h2_expected[j, i] = -1j
    ok = len(fam) == 2
    ok = ok and np.max(np.abs(fam.matrices[0] - h1_expected)) < 1e-10
    ok = ok and np.max(np.abs(fam.matrices[1] - h2_expected)) < 1e-10
    ok = ok and signature(fam.matrices[0]) == (2, 2, 0)
    ok = ok and signature(fam.matrices[1]) == (2, 2, 0)
    _, rank = construction.complex_span_rank_demo(fam)
    ok = ok and rank == 2
    return CriterionResult(3, "d=4 golden family", ok, {"rank_h1_plus_ih2": rank})


def criterion_04_uda_behavioral(seed: int = 0, states_per_dim: int = 50) -> CriterionResult:
    """The falsifier never escapes the query state for constructed observable sets."""
    worst_distance = 0.0
    non_converged = 0
    falsified = 0
    for d in (3, 4, 5):
        obs = construction.uda_observables(d, 1)
        rng = np.random.default_rng(seed + d)
        for _ in range(states_per_dim):
            psi = random_pure(d, rng)
            cfg = FeasibilityConfig(restarts=20, seed=int(rng.integers(2 ** 31)),
                                    max_iterations=3000, distinctness_tol=1e-6)
            outcome = uda_certify(psi, obs, cfg, use_structural=False)
            if outcome.falsified:
                falsified += 1
            else:
                worst_distance = max(worst_distance, outcome.evidence["max_distance"])
                non_converged += outcome.evidence["non_converged"]
    ok = falsified == 0 and worst_distance < 1e-6 and non_converged == 0
    return CriterionResult(4, "constructed sets resist falsification", ok,
                           {"worst_distance": worst_distance,
                            "falsified": falsified, "non_converged": non_converged})


def criterion_05_qutrit_gap(seed: int = 0) -> CriterionResult:
    """Embedded-Pauli qutrit: exact measurements, no second pure preimage."""
    record = numrange.qutrit_counterexample(ball_points=0, seed=seed, udp_restarts=200)
    meas_pure = record.pure_measurement
    meas_mixed = record.witness_measurement
    exact = bool(np.all(meas_pure == 0.0) and np.all(meas_mixed == 0.0))
    off_orbit = record.udp_outcome.evidence.get("min_off_orbit_objective", np.inf)
    ok = exact and not record.udp_outcome.falsified and off_orbit > 1e-6
    return CriterionResult(5, "qutrit pure/mixed gap", ok,
                           {"min_off_orbit_objective": float(off_orbit)})


def criterion_06_gap_witness_contract(seed: int = 0, per_dim: int = 100) -> CriterionResult:
    """Witness construction meets its positivity, trace, and distance bounds."""
    rng = np.random.default_rng(seed)
    worst = {"min_eig": 0.0, "trace": 0.0, "measurement": 0.0, "distance": np.inf}
    ok = True
    for d in (3, 4, 5):
        for _ in range(per_dim):
            gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            frame = np.linalg.qr(gauss)[0]
            positives = rng.uniform(0.2, 1.0, size=d - 1)
            values = np.concatenate([positives, [-positives.sum()]])
            v = (frame * values) @ frame.conj().T
            v = (v + v.conj().T) / 2
            span = construction.subspace_from_matrices(v[None, :, :], d)
            obs = construction.orthocomplement(span).basis
            phi, twin = gap_witness(v, obs)
            min_eig = float(np.linalg.eigvalsh(twin)[0])
            trace_err = abs(np.trace(twin).real - 1.0)
            meas_err = float(np.max(np.abs(measure(obs, twin) - measure(obs, phi))))
            distance = float(np.linalg.norm(twin - pure_density(phi)))
            worst["min_eig"] = min(worst["min_eig"], min_eig)
            worst["trace"] = max(worst["trace"], trace_err)
            worst["measurement"] = max(worst["measurement"], meas_err)
            worst["distance"] = min(worst["distance"], distance)
            ok = ok and min_eig >= -1e-10 and trace_err < 1e-12
            ok = ok and meas_err < 1e-10 and distance > 1e-3
    return CriterionResult(6, "gap witness contract", ok, worst)


def criterion_07_two_observable_consistency(seed: int = 0, pairs_per_dim: int = 25,
                                            angles: int = 32) -> CriterionResult:
    """Nondegenerate boundary states survive UDA; interior states fail UDP."""
    rng = np.random.default_rng(seed)
    totals = {"boundary": 0, "interior": 0, "hard_failures": 0,
              "boundary_falsified": 0, "interior_missed": 0}
    worst_slack = np.inf
    for d in (3, 4):
        for _ in range(pairs_per_dim):
            a1 = _random_hermitian(d, rng)
            a2 = _random_hermitian(d, rng)
            cfg = FeasibilityConfig(restarts=3, seed=int(rng.integers(2 ** 31)),
                                    max_iterations=1500)
            report = numrange.uniqueness_consistency_scan(
                a1, a2, trials=4, seed=int(rng.integers(2 ** 31)), angles=angles, cfg=cfg)
            totals["boundary"] += report.boundary_checked
            totals["interior"] += report.interior_checked
            totals["hard_failures"] += report.hard_failures
            totals["boundary_falsified"] += report.boundary_uda_falsified
            totals["interior_missed"] += report.interior_checked - report.interior_udp_falsified
            worst_slack = min(worst_slack, _convexity_slack(a1, a2, angles, rng))
    ok = (totals["hard_failures"] == 0 and totals["boundary_falsified"] == 0
          and totals["interior_missed"] == 0 and worst_slack >= -1e-8)
    totals["worst_convexity_slack"] = worst_slack
    return CriterionResult(7, "two-observable uniqueness consistency", ok, totals)


def criterion_08_convexity(seed: int = 0) -> CriterionResult:
    """Support-function convexity of the two-observable range (spot check).

    The full check runs inside criterion 7 for every sampled pair; this
    criterion re-runs it standalone on fresh pairs so it can be invoked
    alone.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    for d in (3, 4):
        a1 = _random_hermitian(d, rng)
        a2 = _random_hermitian(d, rng)
        worst = min(worst, _convexity_slack(a1, a2, 360, rng))
    return CriterionResult(8, "planar range convexity", worst >= -1e-8,
                           {"worst_slack": worst})


def criterion_09_rdm_genericity(seed: int = 0, states_per_dims: int = 100) -> CriterionResult:
    """Random states pass the rank certificate; the GHZ family does not."""
    ok = True
    detail: dict[str, Any] = {}
    for dims in ((2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 3, 3)):
        trial = rdm.genericity_trial(dims, states_per_dims, seed)
        detail[str(dims)] = trial
        ok = ok and trial["passed"] == states_per_dims
        ok = ok and trial["worst_canonical_residual"] < 1e-10
    ghz = rdm.ghz_state(1 / np.sqrt(2), 1 / np.sqrt(2))
    ghz_deficient = not rdm.uda_rank_test(ghz)
    family = rdm.ghz_family_check(1 / np.sqrt(2), 1 / np.sqrt(2),
                                  [np.pi / 4, np.pi / 2, np.pi])
    family_ok = family.matches(1e-12) and all(dist > 1e-6 for dist in family.projector_distances)
    detail["ghz_rank_deficient"] = ghz_deficient
    detail["ghz_family_max_rdm_diff"] = family.max_rdm_difference
    ok = ok and ghz_deficient and family_ok
    return CriterionResult(9, "marginal-rank genericity and GHZ family", ok, detail)


def criterion_10_mixed_rank(seed: int = 0, trials: int = 50) -> CriterionResult:
    """Rank-2 states on (4,2,2) pass the stacked-system certificate."""
    rng = np.random.default_rng(seed)
    dims = (4, 2, 2)
    passed = 0
    counts_ok = True
    for _ in range(trials):
        rho = random_density(16, 2, rng)
        system = rdm.build_mixed_system(rho, dims)
        counts_ok = counts_ok and system.variable_count == 64 and system.equation_count == 128
        if rdm.mixed_uda_rank_test(rho, dims, rank_bound=2):
            passed += 1
    ok = passed == trials and counts_ok
    return CriterionResult(10, "mixed-state rank certificate", ok,
                           {"passed": passed, "trials": trials, "counts_ok": counts_ok})


def _ten_groups() -> list[symmetry.SymmetryGroup]:
    return [
        symmetry.xy_reflection_group(),
        symmetry.transpose_reflection_group(2),
        symmetry.sign_flip_group([1, -1]),
        symmetry.pauli_conjugation_group(),
        symmetry.cyclic_diagonal_group(3),
        symmetry.permutation_conjugation_group(3),
        symmetry.transpose_reflection_group(3),
        symmetry.sign_flip_group([1, 1, -1]),
        symmetry.cyclic_shift_group(4),
        symmetry.sign_flip_group([1, 1, -1, -1]),
    ]


def criterion_11_averaging_projection(seed: int = 0) -> CriterionResult:
    """Averaging over ten finite groups yields honest orthogonal projections."""
    ok = True
    worst = {"idempotent": 0.0, "symmetric": 0.0, "absorbed": 0.0,
             "image_match": 0.0, "hull_residual": 0.0}
    for group in _ten_groups():
        actions = [symmetry.superoperator_matrix(g) for g in group.elements]
        proj = np.mean(actions, axis=0)
        worst["idempotent"] = max(worst["idempotent"], float(np.max(np.abs(proj @ proj - proj))))
        worst["symmetric"] = max(worst["symmetric"], float(np.max(np.abs(proj - proj.T))))
        for act in actions:
            worst["absorbed"] = max(
                worst["absorbed"],
                float(np.max(np.abs(act @ proj - proj))),
                float(np.max(np.abs(proj @ act - proj))),
            )
        fixed = symmetry.fixed_point_space(group)
        image = row_span(proj, 1e-8).basis  # proj is symmetric: row and column space agree
        basis = symmetry._orthonormal_hermitian_basis(group.d)
        image_mats = np.tensordot(image, basis, axes=1)
        match = symmetry.subspace_equal(image_mats, fixed, tol=1e-9)
        worst["image_match"] = max(worst["image_match"], 0.0 if match else 1.0)
        worst["hull_residual"] = max(worst["hull_residual"],
                                     symmetry.convex_hull_residual(group, proj))
        ok = ok and match
    ok = (ok and worst["idempotent"] < 1e-10 and worst["symmetric"] < 1e-10
          and worst["absorbed"] < 1e-10 and worst["hull_residual"] < 1e-8)
    return CriterionResult(11, "averaging projection properties", ok, worst)


def _diagonal_units(d: int) -> np.ndarray:
    out = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        out[i, i, i] = 1.0
    return out


def _block_diag_basis() -> np.ndarray:
    mats = []
    for offset in (0, 2):
        for i, j in ((0, 0), (1, 1)):
            m = np.zeros((4, 4), dtype=complex)
            m[offset + i, offset + j] = 1.0
            mats.append(m)
        sym = np.zeros((4, 4), dtype=complex)
        sym[offset, offset + 1] = sym[offset + 1, offset] = 1.0
        mats.append(sym)
        anti = np.zeros((4, 4), dtype=complex)
        anti[offset, offset + 1] = -1j
        anti[offset + 1, offset] = 1j
        mats.append(anti)
    return np.array(mats)


def criterion_12_star_algebra(seed: int = 0, states_per_set: int = 20) -> CriterionResult:
    """Product-closed observable spans are certified and never falsified."""
    rng = np.random.default_rng(seed)
    ok = True
    detail: dict[str, Any] = {}
    test_sets: list[tuple[str, np.ndarray]] = []
    for d in range(3, 8):
        test_sets.append((f"diagonal-{d}", _diagonal_units(d)))
    test_sets.append(("block-2-2", _block_diag_basis()))

    for name, mats in test_sets:
        verdict = symmetry.udp_implies_uda_via_symmetry(mats)
        bic = symmetry.bicommutant_check(mats, tol=1e-8)
        falsified = 0
        d = mats.shape[1]
        for _ in range(states_per_set):
            if name.startswith("diagonal"):
                psi = np.zeros(d, dtype=complex)
                psi[rng.integers(d)] = 1.0
            else:
                block = 2 * rng.integers(2)
                psi = np.zeros(4, dtype=complex)
                psi[block:block + 2] = random_pure(2, rng)
            cfg = FeasibilityConfig(restarts=3, seed=int(rng.integers(2 ** 31)),
                                    max_iterations=1500)
            outcome = uda_certify(psi, mats, cfg, use_structural=False)
            if outcome.falsified:
                falsified += 1
        detail[name] = {"certified": verdict.certified, "route": verdict.route,
                        "bicommutant": bic, "falsified": falsified}
        ok = ok and verdict.certified and verdict.route == "star-subalgebra"
        ok = ok and bic and falsified == 0
    return CriterionResult(12, "star-subalgebra certificates", ok, detail)


def criterion_13_qubit_classification(seed: int = 0) -> CriterionResult:
    """Fixed-set qubit states pass; off-set states fall to their reflections."""
    xy = np.array([PAULI_X, PAULI_Y])
    x_only = np.array([PAULI_X])
    class_xy = symmetry.qubit_classification(xy, samples=20, seed=seed)
    class_x = symmetry.qubit_classification(x_only, samples=20, seed=seed + 1)

    cfg = FeasibilityConfig(restarts=5, seed=seed, max_iterations=1500)
    zero = np.array([1.0, 0.0], dtype=complex)
    one = np.array([0.0, 1.0], dtype=complex)
    pole_gap = float(np.max(np.abs(measure(xy, zero) - measure(xy, one))))
    poles_falsified = pole_gap < 1e-12 and udp_certify(zero, xy, cfg).falsified

    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
    eigenstates_pass = all(
        not uda_certify(s, x_only, cfg, use_structural=False).falsified
        for s in (plus, minus))

    ok = (class_xy.consistent and class_xy.label == "disk-section"
          and class_x.consistent and class_x.label == "diameter"
          and poles_falsified and eigenstates_pass)
    return CriterionResult(13, "qubit fixed-set classification", ok, {
        "xy_label": class_xy.label, "x_label": class_x.label,
        "poles_falsified": poles_falsified, "eigenstates_pass": eigenstates_pass})


def criterion_14_range_geometry_demos(seed: int = 0) -> CriterionResult:
    """Hollow-sphere unreachability and solid-ball realizability demos."""
    sphere = numrange.bloch_nonconvexity_demo(probes=10000, seed=seed)
    ball = numrange.qutrit_counterexample(ball_points=1000, seed=seed, udp_restarts=1)
    ok = (sphere.min_pure_distance >= 1.0 - 1e-6 and sphere.mixed_reaches_midpoint
          and ball.ball_realization_error < 1e-6)
    return CriterionResult(14, "range geometry demos", ok, {
        "min_pure_distance": sphere.min_pure_distance,
        "ball_realization_error": ball.ball_realization_error})


def _random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (gauss + gauss.conj().T) / 2


def _convexity_slack(a1: np.ndarray, a2: np.ndarray, angles: int,
                     rng: np.random.Generator) -> float:
    """Least half-plane slack of 1000 random pure-state images against the swept boundary."""
    planar = numrange.boundary_sweep(a1, a2, angles)
    states = np.array([random_pure(a1.shape[0], rng) for _ in range(1000)])
    images = np.stack([
        np.real(np.einsum("ni,ij,nj->n", states.conj(), a1, states)),
        np.real(np.einsum("ni,ij,nj->n", states.conj(), a2, states)),
    ], axis=1)
    return float(np.min(numrange.halfplane_slacks(planar, images)))


ALL_CRITERIA: list[Callable[..., CriterionResult]] = [
    criterion_01_construction_counts,
    criterion_02_signature_property,
    criterion_03_d4_golden_case,
    criterion_04_uda_behavioral,
    criterion_05_qutrit_gap,
    criterion_06_gap_witness_contract,
    criterion_07_two_observable_consistency,
    criterion_08_convexity,
    criterion_09_rdm_genericity,
    criterion_10_mixed_rank,
    criterion_11_averaging_projection,
    criterion_12_star_algebra,
    criterion_13_qubit_classification,
    criterion_14_range_geometry_demos,
]


def run_criterion(func: Callable[..., CriterionResult], seed: int = 0) -> CriterionResult:
    start = time.perf_counter()
    result = func(seed=seed)
    result.seconds = time.perf_counter() - start
    return result


def run_all(seed: int = 0, indices: list[int] | None = None) -> list[CriterionResult]:
    """Run the selected criteria in index order."""
    return [run_criterion(func, seed) for func in ALL_CRITERIA
            if indices is None or int(func.__name__.split("_")[1]) in indices]
