import numpy as np
import pytest

from udalab.basis import PAULI_X, PAULI_Y, PAULI_Z
from udalab.certify import measure
from udalab.numrange import (
    bloch_nonconvexity_demo,
    boundary_sweep,
    halfplane_slacks,
    pauli_embedded,
    qutrit_counterexample,
    uniqueness_consistency_scan,
)
from udalab.states import random_pure

from conftest import random_hermitian


def test_pauli_pair_boundary_is_unit_circle():
    planar = boundary_sweep(PAULI_X, PAULI_Y, 64)
    radii = np.linalg.norm(planar.points, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-9)
    assert np.all(planar.degeneracy == 1)
    # every boundary point is realized by its achieving state
    for k in range(len(planar)):
        psi = planar.states[k]
        point = measure(np.array([PAULI_X, PAULI_Y]), psi)
        np.testing.assert_allclose(point, planar.points[k], atol=1e-10)


def test_equal_observables_collapse_to_segment():
    planar = boundary_sweep(PAULI_Z, PAULI_Z, 16)
    np.testing.assert_allclose(planar.points[:, 0], planar.points[:, 1], atol=1e-12)
    assert set(np.round(planar.points[:, 0], 9)) <= {-1.0, 1.0}


def test_sweep_validation():
    with pytest.raises(ValueError):
        boundary_sweep(PAULI_X, PAULI_Y, 4)
    with pytest.raises(ValueError):
        boundary_sweep(PAULI_X, np.eye(3, dtype=complex), 16)


def test_convexity_support_function(rng):
    for d in (3, 4):
        a1 = random_hermitian(d, rng)
        a2 = random_hermitian(d, rng)
        planar = boundary_sweep(a1, a2, 128)
        states = np.array([random_pure(d, rng) for _ in range(500)])
        images = np.stack([
            np.real(np.einsum("ni,ij,nj->n", states.conj(), a1, states)),
            np.real(np.einsum("ni,ij,nj->n", states.conj(), a2, states)),
        ], axis=1)
        assert float(np.min(halfplane_slacks(planar, images))) >= -1e-8


def test_convexity_mixed_spectrum_pair(rng):
    # diagonal observable against an embedded antisymmetric one: a range
    # with both flat and curved boundary, probed by 1000 random states
    a1 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    _, a2, _ = pauli_embedded(3)
    planar = boundary_sweep(a1, a2, 256)
    states = np.array([random_pure(3, rng) for _ in range(1000)])
    images = np.stack([
        np.real(np.einsum("ni,ij,nj->n", states.conj(), a1, states)),
        np.real(np.einsum("ni,ij,nj->n", states.conj(), a2, states)),
    ], axis=1)
    assert float(np.min(halfplane_slacks(planar, images))) >= -1e-8


def test_adaptive_refinement_closes_gaps():
    # a flat edge (degenerate top eigenvalue over an angle interval) leaves
    # large jumps between consecutive boundary points; refinement shrinks
    # the budgeted count of big gaps
    a1 = np.diag([1.0, 1.0, -1.0]).astype(complex)
    a2 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    coarse = boundary_sweep(a1, a2, 16)
    fine = boundary_sweep(a1, a2, 16, refine_gap=0.25, max_points=256)
    assert len(fine) > len(coarse)

    def max_gap(planar):
        pts = planar.points
        diffs = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        return float(np.max(diffs))

    assert max_gap(fine) <= max_gap(coarse)


def test_consistency_scan_random_pair(rng):
    a1 = random_hermitian(3, rng)
    a2 = random_hermitian(3, rng)
    report = uniqueness_consistency_scan(a1, a2, trials=3, seed=2, angles=24)
    assert report.passed
    assert report.boundary_checked > 0
    assert report.interior_checked == 3


def test_consistency_scan_qubit_pair():
    report = uniqueness_consistency_scan(PAULI_X, PAULI_Y, trials=3, seed=0, angles=16)
    assert report.passed


def test_qutrit_gap_record():
    record = qutrit_counterexample(ball_points=200, seed=0, udp_restarts=60)
    assert np.array_equal(record.pure_measurement, np.zeros(3))
    assert np.array_equal(record.witness_measurement, np.zeros(3))
    assert not record.udp_outcome.falsified
    assert record.ball_realization_error < 1e-6
    assert record.passed
    expected_witness = np.diag([0.5, 0.5, 0.0])
    np.testing.assert_allclose(record.mixed_witness, expected_witness, atol=1e-12)


def test_sphere_gap_record():
    record = bloch_nonconvexity_demo(probes=2000, seed=0)
    np.testing.assert_allclose(record.image_zero, [1, 0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(record.image_one, [1, 0, 0, -1], atol=1e-12)
    np.testing.assert_allclose(record.midpoint, [1, 0, 0, 0], atol=1e-12)
    assert record.min_pure_distance >= 1.0 - 1e-6
    assert record.mixed_reaches_midpoint
    assert record.passed
