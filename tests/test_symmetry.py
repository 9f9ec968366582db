import numpy as np
import pytest

from udalab.basis import PAULI_X, PAULI_Y, PAULI_Z
from udalab.certify import measure
from udalab.states import pure_density, random_density
from udalab.symmetry import (
    SymmetryElement,
    SymmetryGroup,
    average_projection,
    bicommutant_check,
    commutant,
    convex_hull_residual,
    cyclic_diagonal_group,
    cyclic_shift_group,
    fixed_point_space,
    generated_algebra,
    is_star_algebra,
    pauli_conjugation_group,
    permutation_conjugation_group,
    qubit_classification,
    realizable_fixed_dims,
    sign_flip_group,
    subspace_equal,
    superoperator_matrix,
    transpose_reflection_group,
    udp_implies_uda_via_symmetry,
)


def diagonal_units(d):
    out = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        out[i, i, i] = 1.0
    return out


def test_apply_identity():
    rho = random_density(2, 2, 0)
    identity = SymmetryElement(unitary=np.eye(2, dtype=complex))
    np.testing.assert_allclose(identity.apply(rho), rho, atol=1e-12)


def test_rotation_about_x_fixes_plus_state():
    alpha = 0.7
    rot = np.cos(alpha / 2) * np.eye(2) - 1j * np.sin(alpha / 2) * PAULI_X
    element = SymmetryElement(unitary=rot.astype(complex))
    plus = pure_density(np.array([1, 1], dtype=complex) / np.sqrt(2))
    np.testing.assert_allclose(element.apply(plus), plus, atol=1e-12)


def test_transpose_flips_bloch_y():
    element = SymmetryElement(unitary=np.eye(2, dtype=complex), transpose_flag=True)
    rho = random_density(2, 2, 3)
    image = element.apply(rho)
    bloch = [float(np.real(np.trace(rho @ p))) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    image_bloch = [float(np.real(np.trace(image @ p))) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
    np.testing.assert_allclose(image_bloch, [bloch[0], -bloch[1], bloch[2]], atol=1e-12)


def test_element_validation_and_composition():
    with pytest.raises(ValueError):
        SymmetryElement(unitary=np.ones((2, 2), dtype=complex))
    t = SymmetryElement(unitary=np.eye(2, dtype=complex), transpose_flag=True)
    composed = t.compose(t)
    assert not composed.transpose_flag
    rho = random_density(2, 2, 1)
    np.testing.assert_allclose(composed.apply(rho), rho, atol=1e-12)


def test_group_closure_validation():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        SymmetryGroup(elements=(SymmetryElement(unitary=eye),
                                SymmetryElement(unitary=np.diag([1, 1j]))))


def test_group_closure_validation_batched():
    eye = np.eye(2, dtype=complex)
    # inverses present (each element is its own), composition not: X Z ~ Y is missing
    with pytest.raises(ValueError, match="composition"):
        SymmetryGroup(elements=(SymmetryElement(unitary=eye), SymmetryElement(unitary=PAULI_X),
                                SymmetryElement(unitary=PAULI_Z)))
    # a transposing element composes with the conjugate: U conj(U) = I, although U U != I
    u = np.diag([1.0, 1j])
    group = SymmetryGroup(elements=(SymmetryElement(unitary=eye),
                                    SymmetryElement(unitary=u, transpose_flag=True)))
    assert len(group) == 2
    with pytest.raises(ValueError, match="inverses"):  # without the transpose, U† is missing
        SymmetryGroup(elements=(SymmetryElement(unitary=eye), SymmetryElement(unitary=u)))
    # a global phase does not make a different element
    assert len(SymmetryGroup(elements=(SymmetryElement(unitary=1j * eye),))) == 1


def test_generate_weyl_and_symmetric_group_orders(rng):
    def conjugated(d, gens):
        frame = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
        return [SymmetryElement(unitary=frame @ g @ frame.conj().T) for g in gens]

    for d, order in ((3, 9), (4, 16)):
        shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
        clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
        assert len(SymmetryGroup.generate(conjugated(d, [shift, clock]))) == order
    swap = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
    cycle = np.roll(np.eye(4, dtype=complex), 1, axis=0)
    group = SymmetryGroup.generate(conjugated(4, [swap, cycle]))
    assert len(group) == 24
    with pytest.raises(ValueError, match="composition"):
        SymmetryGroup(elements=group.elements[:-1])


def test_generate_builds_closed_groups():
    group = cyclic_diagonal_group(3)
    assert len(group) == 3
    group = cyclic_shift_group(4)
    assert len(group) == 4


def test_transpose_group_fixes_real_symmetric():
    group = transpose_reflection_group(2)
    fixed = fixed_point_space(group)
    assert fixed.shape[0] == 3
    span = np.array([np.eye(2, dtype=complex), PAULI_X, PAULI_Z])
    assert subspace_equal(fixed, span)


def test_xy_reflection_average_kills_z():
    from udalab.symmetry import xy_reflection_group

    group = xy_reflection_group()
    fixed = fixed_point_space(group)
    assert fixed.shape[0] == 3
    span = np.array([np.eye(2, dtype=complex), PAULI_X, PAULI_Y])
    assert subspace_equal(fixed, span)


def test_trivial_group_average_is_identity():
    group = SymmetryGroup(elements=(SymmetryElement(unitary=np.eye(3, dtype=complex)),))
    proj = average_projection(group)
    np.testing.assert_allclose(proj, np.eye(9), atol=1e-12)
    assert fixed_point_space(group).shape[0] == 9


def test_sign_flip_average_keeps_i_and_z():
    group = sign_flip_group([1, -1])
    fixed = fixed_point_space(group)
    assert fixed.shape[0] == 2
    span = np.array([np.eye(2, dtype=complex), PAULI_Z])
    assert subspace_equal(fixed, span)


def test_diagonal_pinching_group():
    group = cyclic_diagonal_group(3)
    fixed = fixed_point_space(group)
    assert fixed.shape[0] == 3
    for mat in fixed:
        off = mat - np.diag(np.diag(mat))
        assert np.max(np.abs(off)) < 1e-10


def test_permutation_group_fixed_space():
    group = permutation_conjugation_group(3)
    assert len(group) == 6
    fixed = fixed_point_space(group)
    assert fixed.shape[0] == 2  # identity and the all-ones matrix
    span = np.array([np.eye(3, dtype=complex), np.ones((3, 3), dtype=complex)])
    assert subspace_equal(fixed, span)


def test_average_projection_properties_and_hull():
    for group in (transpose_reflection_group(3), pauli_conjugation_group(),
                  cyclic_shift_group(4)):
        proj = average_projection(group)  # asserts idempotent/symmetric/absorbed
        # image of the projection is exactly the fixed space
        u, svals, _ = np.linalg.svd(proj)
        image_dim = int(np.sum(svals > 1e-8))
        assert image_dim == fixed_point_space(group).shape[0]
        assert convex_hull_residual(group, proj) < 1e-8


def test_superoperator_is_real_orthogonal(rng):
    group = pauli_conjugation_group()
    for g in group.elements:
        act = superoperator_matrix(g)
        assert act.dtype.kind == "f"
        np.testing.assert_allclose(act @ act.T, np.eye(4), atol=1e-10)


def test_star_algebra_examples():
    assert is_star_algebra(diagonal_units(4))
    assert is_star_algebra(np.array([PAULI_X]))  # span{I, X} closed: X^2 = I
    assert not is_star_algebra(np.array([PAULI_X, PAULI_Z]))


def test_commutant_dimensions():
    assert commutant(diagonal_units(3)).shape[0] == 3
    assert commutant(np.array([PAULI_X, PAULI_Y, PAULI_Z])).shape[0] == 1
    block = np.zeros((2, 3, 3), dtype=complex)
    block[0, :2, :2] = np.array([[0, 1], [1, 0]])
    block[1, :2, :2] = np.array([[1, 0], [0, -1]])
    # generators act irreducibly on the top 2x2 block, trivially on the rest
    assert commutant(block).shape[0] == 2


def test_commutant_commutes_with_conjugated_observables(rng):
    for d in (3, 4, 5):
        gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u = np.linalg.qr(gauss)[0]
        observables = np.einsum("ab,ibc,dc->iad", u, diagonal_units(d), u.conj())
        comm = commutant(observables)
        assert comm.shape[0] == d
        for x in comm:
            for a in observables:
                assert np.max(np.abs(x @ a - a @ x)) < 1e-12


def test_generated_algebra_dimensions():
    assert generated_algebra(np.array([PAULI_X])).shape[0] == 2
    assert generated_algebra(np.array([PAULI_X, PAULI_Z])).shape[0] == 4
    pattern = np.array([
        np.diag([1.0, 1, 0, 0, 0, 0, 0]),
        np.diag([0.0, 0, 1, 1, 1, 0, 0]),
        np.diag([0.0, 0, 0, 0, 0, 1, 0]),
        np.diag([0.0, 0, 0, 0, 0, 0, 1]),
    ]).astype(complex)
    assert generated_algebra(pattern).shape[0] == 4


def test_bicommutant_identity(rng):
    assert bicommutant_check(diagonal_units(3))
    assert bicommutant_check(np.array([PAULI_X, PAULI_Z]))
    assert bicommutant_check(np.array([PAULI_X]))


def test_certificates():
    verdict = udp_implies_uda_via_symmetry(diagonal_units(5))
    assert verdict.certified and verdict.route == "star-subalgebra"
    verdict = udp_implies_uda_via_symmetry(np.array([PAULI_X, PAULI_Z]))
    assert verdict.certified and verdict.route == "qubit-reflection"
    qutrit_xz = np.zeros((2, 3, 3), dtype=complex)
    qutrit_xz[0, :2, :2] = PAULI_X
    qutrit_xz[1, :2, :2] = PAULI_Z
    verdict = udp_implies_uda_via_symmetry(qutrit_xz)
    assert not verdict.certified


def test_realizable_dimensions():
    assert realizable_fixed_dims(4) == [1, 2, 3, 4, 6, 8, 10, 16]
    assert 4 in realizable_fixed_dims(7)
    assert realizable_fixed_dims(1) == [1]
    with pytest.raises(ValueError):
        realizable_fixed_dims(0)


def test_qubit_classification_cases():
    xy = qubit_classification(np.array([PAULI_X, PAULI_Y]), samples=6, seed=0)
    assert xy.label == "disk-section" and xy.consistent
    x_only = qubit_classification(np.array([PAULI_X]), samples=6, seed=1)
    assert x_only.label == "diameter" and x_only.consistent
    full = qubit_classification(np.array([PAULI_X, PAULI_Y, PAULI_Z]), samples=4, seed=2)
    assert full.label == "full-ball" and full.consistent
    with pytest.raises(ValueError):
        qubit_classification(diagonal_units(3))


def test_reflection_witnesses_share_measurements():
    xy = qubit_classification(np.array([PAULI_X, PAULI_Y]), samples=6, seed=3)
    stack = np.array([PAULI_X, PAULI_Y])
    for outcome in xy.off_fixed_outcomes:
        assert outcome.falsified
        assert outcome.evidence["measurement_gap"] < 1e-9
