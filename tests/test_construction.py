from itertools import combinations

import numpy as np
import pytest

from udalab.construction import (
    FAMILY_SPAN_CUT,
    antitriangular_signature_check,
    complement_family,
    complex_span_rank_demo,
    family_signature_check,
    family_size_formula,
    family_span_outside,
    line_length,
    line_positions,
    observable_count_formula,
    orthocomplement,
    subspace_from_matrices,
    totally_nonsingular_matrix,
    traceless_complement,
    uda_observables,
)
from udalab.basis import PAULI_X, PAULI_Y, PAULI_Z
from udalab.linalg import row_span, signature


def family_rank(fam):
    # Hermitian matrices are independent over the reals exactly when they
    # are independent over the complex numbers, so flattening is enough.
    return row_span(fam.matrices.reshape(len(fam), -1), 1e-10).rank


def assert_orthonormal_and_orthogonal_to_family(obs, fam):
    gram = np.real(np.einsum("iab,jba->ij", obs.matrices, obs.matrices))
    np.testing.assert_allclose(gram, np.eye(len(obs)), atol=1e-10)
    np.testing.assert_allclose(np.trace(obs.matrices, axis1=1, axis2=2), 0, atol=1e-10)
    if len(fam):
        # tr(A_i H_j), relative to the family's entry scale
        overlaps = np.einsum("iab,jba->ij", obs.matrices, fam.matrices)
        assert np.max(np.abs(overlaps)) < 1e-12 * np.max(np.abs(fam.matrices))


def line_length_oracle(d, k):
    # piecewise form evaluated independently
    return (k + 1) // 2 if k <= d - 1 else (2 * d - 1 - k) // 2


def test_line_length_known_values():
    assert line_length(6, 3) == 2
    assert line_length(6, 7) == 2
    assert line_length(4, 1) == 1


def test_line_length_matches_oracle_and_positions():
    for d in range(2, 12):
        for k in range(1, 2 * d - 2):
            assert line_length(d, k) == line_length_oracle(d, k)
            assert len(line_positions(d, k)) == line_length(d, k)


def test_line_length_range_errors():
    with pytest.raises(ValueError):
        line_length(4, 0)
    with pytest.raises(ValueError):
        line_length(4, 6)


def test_vandermonde_node_values():
    np.testing.assert_allclose(totally_nonsingular_matrix(2), [[1, 1], [1, 2]])


def integer_det(mat) -> int:
    """Bareiss fraction-free determinant over Python ints (exact)."""
    a = [[int(x) for x in row] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for swap in range(k + 1, n):
                if a[swap][k] != 0:
                    a[k], a[swap] = a[swap], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_all_minors_nonsingular_exact(n):
    # entries are integers, so the property can be established exactly;
    # scaled floating determinants of the larger minors drop below any
    # fixed threshold even though they never vanish
    mat = np.rint(totally_nonsingular_matrix(n)).astype(object)
    for size in range(1, n + 1):
        for rows in combinations(range(n), size):
            for cols in combinations(range(n), size):
                assert integer_det(mat[np.ix_(rows, cols)]) != 0


def test_random_minors_nonsingular_larger_sizes(rng):
    for n in (8, 10):
        mat = np.rint(totally_nonsingular_matrix(n)).astype(object)
        for _ in range(50):
            size = int(rng.integers(1, n + 1))
            rows = sorted(rng.choice(n, size=size, replace=False))
            cols = sorted(rng.choice(n, size=size, replace=False))
            assert integer_det(mat[np.ix_(rows, cols)]) != 0


def test_column_combinations_have_few_zeros(rng):
    # any combination of c leading columns keeps at least n - c + 1 nonzeros
    for n in (3, 5, 7):
        mat = totally_nonsingular_matrix(n)
        for c in range(1, n + 1):
            for _ in range(20):
                coeff = rng.standard_normal(c)
                vec = mat[:, :c] @ coeff
                assert np.sum(np.abs(vec) > 1e-9) >= n - c + 1


def test_d4_family_matches_display():
    fam = complement_family(4, 1)
    assert len(fam) == 2
    h1 = np.zeros((4, 4), dtype=complex)
    h2 = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 3), (1, 2)):
        h1[i, j] = h1[j, i] = 1
        h2[i, j] = 1j
        h2[j, i] = -1j
    np.testing.assert_allclose(fam.matrices[0], h1, atol=1e-12)
    np.testing.assert_allclose(fam.matrices[1], h2, atol=1e-12)
    assert fam.lines == ((3, "real"), (3, "imag"))


def test_small_dimension_family_is_empty():
    assert len(complement_family(3, 1)) == 0
    assert len(uda_observables(3, 1)) == 8


def test_family_counts_and_independence():
    fam6 = complement_family(6, 1)
    assert len(fam6) == 12
    assert family_rank(fam6) == 12
    for q in (1, 2, 3):
        for d in range(2 * q + 2, 13):
            fam = complement_family(d, q)
            assert len(fam) == family_size_formula(d, q)
            assert family_rank(fam) == len(fam)


def test_family_line_support():
    fam = complement_family(7, 2)
    for mat, (k, kind) in zip(fam.matrices, fam.lines):
        for i in range(7):
            assert mat[i, i] == 0
            for j in range(7):
                if abs(mat[i, j]) > 1e-12:
                    assert i + j == k
        upper = [mat[i, j] for i, j in line_positions(7, k)]
        if kind == "real":
            assert all(abs(v.imag) < 1e-12 for v in upper)
        else:
            assert all(abs(v.real) < 1e-12 for v in upper)


def test_signature_check_d4():
    fam = complement_family(4, 1)
    report = family_signature_check(fam, samples=1000, seed=3)
    assert report.passed
    assert report.min_n_plus == 2
    assert report.min_n_minus == 2
    assert signature(fam.matrices[0]) == (2, 2, 0)


def test_signature_check_rank_two():
    fam = complement_family(8, 2)
    report = family_signature_check(fam, samples=300, seed=5)
    assert report.passed
    assert report.min_n_plus >= 3
    assert report.min_n_minus >= 3


def test_signature_check_rejects_empty():
    with pytest.raises(ValueError):
        family_signature_check(complement_family(3, 1))


def test_complex_span_rank_drop():
    fam = complement_family(4, 1)
    combo, rank = complex_span_rank_demo(fam)
    assert rank == 2
    svals = np.linalg.svd(fam.matrices[0], compute_uv=False)
    assert np.sum(svals > 1e-9) == 4
    other = fam.matrices[0] - 1j * fam.matrices[1]
    assert np.linalg.matrix_rank(other, tol=1e-9) == 2


def test_complex_span_demo_rejects_wrong_family():
    with pytest.raises(ValueError):
        complex_span_rank_demo(complement_family(5, 1))


def test_observable_counts():
    for d in range(3, 13):
        assert len(uda_observables(d, 1)) == 5 * d - 7
    for q in (2, 3):
        for d in range(2 * q + 2, 13):
            obs = uda_observables(d, q)
            assert len(obs) == observable_count_formula(d, q)
            assert len(obs) + family_size_formula(d, q) == d * d - 1
    for d, q in ((12, 1), (14, 2), (16, 3)):
        obs = uda_observables(d, q)
        assert len(obs) == observable_count_formula(d, q)
        assert_orthonormal_and_orthogonal_to_family(obs, complement_family(d, q))


def test_observables_orthogonal_to_family():
    fam = complement_family(4, 1)
    obs = uda_observables(4, 1)
    assert len(obs) == 13
    assert_orthonormal_and_orthogonal_to_family(obs, fam)


def test_rank_families_are_subsets_of_the_q1_family():
    for d in range(3, 13):
        base = complement_family(d, 1)
        for q in (2, 3):
            fam = complement_family(d, q)
            for mat, line in zip(fam.matrices, fam.lines):
                same = [j for j, other in enumerate(base.matrices) if np.array_equal(mat, other)]
                assert len(same) == 1 and base.lines[same[0]] == line


def test_family_span_outside_decides_the_complement(rng):
    def outside(mats):
        return family_span_outside(traceless_complement(mats, mats.shape[1]))

    for d in range(4, 13):
        mats = uda_observables(d, 1).matrices
        assert outside(mats) <= FAMILY_SPAN_CUT
        # one observable fewer: a complement direction orthogonal to the family
        assert outside(mats[1:]) == 1.0
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        assert outside(np.einsum("ab,kbc,dc->kad", u, mats, u.conj())) > 0.5
    for q in (2, 3):
        for d in (2 * q + 2, 2 * q + 4):
            assert outside(uda_observables(d, q).matrices) <= FAMILY_SPAN_CUT


def test_observables_reject_qubit():
    with pytest.raises(ValueError):
        uda_observables(2, 1)


def test_orthocomplement_qubit_z():
    sub = subspace_from_matrices(PAULI_Z[None], 2)
    comp = orthocomplement(sub)
    assert comp.dim == 2
    span = np.abs(np.einsum("iab,jba->ij", comp.basis,
                            np.array([PAULI_X, PAULI_Y])))
    assert np.linalg.matrix_rank(span, tol=1e-10) == 2


def test_orthocomplement_involution(rng, make_hermitian):
    d = 3
    mats = np.array([make_hermitian(d, rng) - np.trace(make_hermitian(d, rng)) / d * np.eye(d)
                     for _ in range(3)])
    mats = np.array([m - np.trace(m) / d * np.eye(d) for m in mats])
    sub = subspace_from_matrices(mats, d)
    back = orthocomplement(orthocomplement(sub))
    assert back.dim == sub.dim
    for b in sub.basis:
        proj = sum(np.sum(c.conj() * b) * c for c in back.basis)
        assert np.max(np.abs(proj - b)) < 1e-9


def test_antitriangular_display_case():
    # antidiagonal a, b with arbitrary upper fill x, y: signature (2, 2)
    a, b, x, y = 1.3, -0.7 + 0.2j, 0.0, 0.0
    mat = np.array([
        [0, x, y, a],
        [np.conj(x), 0, b, 0],
        [np.conj(y), np.conj(b), 0, 0],
        [np.conj(a), 0, 0, 0],
    ])
    assert antitriangular_signature_check(mat, q=1)
    assert abs(np.linalg.det(mat) - abs(a * b) ** 2) < 1e-12


@pytest.mark.parametrize("q", [1, 2])
def test_antitriangular_random_fills(q, rng):
    n = 2 * (q + 1)
    for _ in range(100 if q == 1 else 40):
        mat = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i + 1, n):
                if i + j <= n - 1:
                    mat[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
                    mat[j, i] = np.conj(mat[i, j])
        for i in range(n):  # nonzero antidiagonal guarantees invertibility
            if abs(mat[i, n - 1 - i]) < 0.1:
                mat[i, n - 1 - i] = 1.0 + mat[i, n - 1 - i]
                mat[n - 1 - i, i] = np.conj(mat[i, n - 1 - i])
        assert antitriangular_signature_check(mat, q=q)


def test_top_line_principal_block_mechanism(rng):
    # the 4x4 principal submatrix on the outermost entries of the largest
    # active line is traceless with positive determinant: two eigenvalues of
    # each sign, which interlacing pushes up to the full combination
    from udalab.construction import top_line_principal_block

    for d in (4, 5, 6):
        fam = complement_family(d, 1)
        for _ in range(20):
            coeff = rng.standard_normal(len(fam))
            coeff /= np.linalg.norm(coeff)
            block = top_line_principal_block(fam, coeff)
            assert block.shape == (4, 4)
            assert abs(np.trace(block)) < 1e-12
            assert signature(block) == (2, 2, 0)


def test_antitriangular_precondition_errors():
    with pytest.raises(ValueError):  # wrong size
        antitriangular_signature_check(np.zeros((3, 3), dtype=complex), q=1)
    bad_support = np.zeros((4, 4), dtype=complex)
    bad_support[3, 3] = 1.0
    bad_support[0, 3] = bad_support[3, 0] = 1.0
    with pytest.raises(ValueError):  # entry below the antidiagonal, traceless fails too
        antitriangular_signature_check(bad_support - np.eye(4) / 4, q=1)
    singular = np.zeros((4, 4), dtype=complex)
    singular[0, 1] = singular[1, 0] = 1.0
    with pytest.raises(ValueError):  # zero antidiagonal entry -> singular
        antitriangular_signature_check(singular, q=1)
