import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udalab.basis import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    expectation,
    gellmann_basis,
)
from udalab.states import pure_density, random_density


# With the basis normalisation tr(b_i b_j) = d(d-1) delta_ij a state is
# rho = (I + r . b[1:]) / d with r_i = tr(rho b_i) / (d-1); the tests below
# check that decomposition on the basis itself.
def coefficients(rho, basis):
    d = basis.shape[1]
    return np.real(np.einsum("ab,iba->i", rho, basis[1:])) / (d - 1)


def compose(r, basis):
    d = basis.shape[1]
    return (np.eye(d) + np.tensordot(r, basis[1:], axes=1)) / d


def test_qubit_basis_is_pauli():
    basis = gellmann_basis(2)
    np.testing.assert_allclose(basis[0], np.eye(2))
    np.testing.assert_allclose(basis[1], PAULI_X)
    np.testing.assert_allclose(basis[2], PAULI_Y)
    np.testing.assert_allclose(basis[3], PAULI_Z)


def test_qutrit_last_diagonal():
    basis = gellmann_basis(3)
    np.testing.assert_allclose(basis[8], np.diag([1.0, 1.0, -2.0]), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_basis_orthogonality(d):
    basis = gellmann_basis(d)
    gram = np.real(np.einsum("iab,jba->ij", basis, basis))
    np.testing.assert_allclose(gram, d * (d - 1) * np.eye(d * d), atol=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_basis_traceless_beyond_identity(d):
    basis = gellmann_basis(d)
    for mat in basis[1:]:
        assert abs(np.trace(mat)) < 1e-12


def test_basis_rejects_small_dimension():
    with pytest.raises(ValueError):
        gellmann_basis(1)


def test_maximally_mixed_has_zero_coefficients():
    rho = np.eye(3, dtype=complex) / 3
    np.testing.assert_allclose(coefficients(rho, gellmann_basis(3)), 0.0, atol=1e-14)


def test_qubit_ground_state_coefficients():
    rho = np.diag([1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(coefficients(rho, gellmann_basis(2)), [0.0, 0.0, 1.0], atol=1e-14)


def test_compose_zero_gives_maximally_mixed():
    np.testing.assert_allclose(compose(np.zeros(8), gellmann_basis(3)), np.eye(3) / 3, atol=1e-14)


def test_compose_x_axis_gives_plus_state():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    np.testing.assert_allclose(compose(np.array([1.0, 0.0, 0.0]), gellmann_basis(2)),
                               pure_density(plus), atol=1e-14)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_unit_vector_without_state(d):
    # along the last diagonal direction the composed matrix leaves the state
    # set: unit coefficient norm is necessary for purity, not sufficient
    r = np.zeros(d * d - 1)
    r[-1] = 1.0
    mat = compose(r, gellmann_basis(d))
    assert np.linalg.eigvalsh(mat)[0] < -1e-6


def test_unit_sphere_scan_finds_nonstate_direction():
    rng = np.random.default_rng(0)
    basis = gellmann_basis(3)
    hits = 0
    for _ in range(200):
        r = rng.standard_normal(8)
        r /= np.linalg.norm(r)
        if np.linalg.eigvalsh(compose(r, basis))[0] < -1e-6:
            hits += 1
    assert hits > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
def test_round_trip_reconstruction(seed, d):
    rho = random_density(d, d, seed)
    basis = gellmann_basis(d)
    rebuilt = compose(coefficients(rho, basis), basis)
    assert np.max(np.abs(rebuilt - rho)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_round_trip_hundred_states_per_dimension(d):
    basis = gellmann_basis(d)
    rng = np.random.default_rng(d)
    for _ in range(100):
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        rebuilt = compose(coefficients(rho, basis), basis)
        assert np.max(np.abs(rebuilt - rho)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_pure_states_have_unit_coefficient_norm(d):
    basis = gellmann_basis(d)
    rng = np.random.default_rng(d)
    for _ in range(20):
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vec /= np.linalg.norm(vec)
        r = coefficients(pure_density(vec), basis)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-10


def test_expectation_identity_and_z():
    rho = random_density(4, 4, 0)
    assert abs(expectation(np.eye(4, dtype=complex), rho) - 1.0) < 1e-12
    assert abs(expectation(PAULI_Z, np.diag([1.0, 0.0]).astype(complex)) - 1.0) < 1e-12


def test_expectation_matches_coefficient_projection(rng):
    # both sides computed independently: trace pairing vs. scaled dot product
    for d in (2, 3, 5):
        basis = gellmann_basis(d)
        coeffs = rng.standard_normal(d * d - 1)
        observable = np.tensordot(coeffs, basis[1:], axes=1)
        rho = random_density(d, d, int(rng.integers(2**31)))
        lhs = expectation(observable, rho)
        r = coefficients(rho, basis)
        alpha = np.real(np.einsum("ab,iba->i", observable, basis[1:])) / (d * (d - 1))
        rhs = (d - 1) * np.dot(r, alpha)
        assert abs(lhs - rhs) < 1e-10


def test_expectation_accepts_pure_state_vectors():
    psi = np.array([1.0, 0.0], dtype=complex)
    assert abs(expectation(PAULI_Z, psi) - 1.0) < 1e-14


def test_dimension_mismatch_errors():
    with pytest.raises(ValueError):
        expectation(PAULI_Z, np.eye(3) / 3)
    with pytest.raises(ValueError):
        expectation(PAULI_Z, np.ones(3) / np.sqrt(3))


def test_traceless_coordinates_round_trip(rng, make_hermitian):
    d = 4
    basis = gellmann_basis(d)
    h = make_hermitian(d, rng)
    h -= np.trace(h) / d * np.eye(d)
    # coordinates against the Hilbert-Schmidt-orthonormal basis[1:] / sqrt(d(d-1))
    unit = basis[1:] / np.sqrt(d * (d - 1))
    coords = np.real(np.einsum("ab,iba->i", h, unit))
    np.testing.assert_allclose(np.tensordot(coords, unit, axes=1), h, atol=1e-12)
    # euclidean norm of coordinates equals the Hilbert-Schmidt norm
    assert abs(np.linalg.norm(coords) - np.linalg.norm(h)) < 1e-10
