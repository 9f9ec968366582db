import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udalab.linalg import (
    check_hermitian,
    check_hermitian_stack,
    eig_hermitian,
    interlacing_check,
    row_span,
    signature,
)

from conftest import random_hermitian


def test_eig_sorted_ascending():
    values, _ = eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0])


def test_eig_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    values, vectors = eig_hermitian(x)
    np.testing.assert_allclose(values, [-1.0, 1.0])
    # eigenvectors up to phase
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(abs(np.vdot(vectors[:, 0], minus)) - 1) < 1e-12
    assert abs(abs(np.vdot(vectors[:, 1], plus)) - 1) < 1e-12


def test_eig_reconstruction_residual(rng):
    for d in (2, 3, 5, 8):
        h = random_hermitian(d, rng)
        values, vectors = eig_hermitian(h)
        rebuilt = (vectors * values) @ vectors.conj().T
        assert np.max(np.abs(rebuilt - h)) < 1e-9 * max(1, np.linalg.norm(h, 2))
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(d))) < 1e-10


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError):
        check_hermitian(np.ones((2, 3)))


def test_single_matrix_checks_reject_a_stack():
    stack = np.zeros((2, 2, 2), dtype=complex)
    for check in (check_hermitian, eig_hermitian, signature):
        with pytest.raises(ValueError, match="square matrix"):
            check(stack)
    check_hermitian_stack(stack)


def test_hermitian_stack_judges_each_matrix_on_its_own_scale():
    big = np.diag([1e6, -1e6]).astype(complex)
    skew = np.array([[0, 1e-9], [0, 0]], dtype=complex)  # fine beside big, not alone
    check_hermitian(big + skew)
    with pytest.raises(ValueError, match="Hermitian"):
        check_hermitian_stack(np.array([big, skew]))
    with pytest.raises(ValueError, match="square matrices"):
        check_hermitian_stack(np.eye(2))


def test_signature_simple_cases():
    assert signature(np.diag([1.0, -1.0]).astype(complex)) == (1, 1, 0)
    assert signature(np.zeros((4, 4), dtype=complex)) == (0, 0, 4)


def test_signature_counts_sum(rng):
    for d in (2, 4, 7):
        h = random_hermitian(d, rng)
        n_plus, n_minus, n_zero = signature(h)
        assert n_plus + n_minus + n_zero == d


def test_signature_requires_positive_tol():
    with pytest.raises(ValueError):
        signature(np.eye(2, dtype=complex), tol=0.0)


def test_interlacing_full_subset_trivial(rng):
    h = random_hermitian(5, rng)
    assert interlacing_check(h, range(5))


def test_interlacing_known_case():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert interlacing_check(h, [0, 2])


def test_interlacing_rejects_empty():
    with pytest.raises(ValueError):
        interlacing_check(np.eye(2, dtype=complex), [])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=8))
def test_interlacing_random_principal_submatrices(seed, d):
    rng = np.random.default_rng(seed)
    h = random_hermitian(d, rng)
    size = int(rng.integers(1, d + 1))
    rows = rng.choice(d, size=size, replace=False)
    assert interlacing_check(h, rows)


def test_interlacing_thousand_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        h = random_hermitian(d, rng)
        size = int(rng.integers(1, d + 1))
        rows = rng.choice(d, size=size, replace=False)
        assert interlacing_check(h, rows)


def low_rank(rng, m, n, r, complex_entries):
    left = rng.standard_normal((m, r))
    right = rng.standard_normal((r, n))
    if complex_entries:
        left = left + 1j * rng.standard_normal((m, r))
        right = right + 1j * rng.standard_normal((r, n))
    return left @ right


def test_rank_row_reduction_exact_cases():
    assert row_span(np.zeros((3, 4)), 1e-10).rank == 0
    assert row_span(np.eye(5), 1e-10).rank == 5
    mat = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    assert row_span(mat, 1e-10).rank == 1


def test_mgs_extend_drops_dependent():
    # a row that is a multiple of an earlier one adds nothing to the basis
    dependent = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    span = row_span(dependent, 1e-10)
    assert span.rank == 2
    assert span.basis.shape == (2, 2)
    assert span.complement.shape == (0, 2)


def test_span_rank_matches_matrix_rank(rng):
    for complex_entries in (False, True):
        for _ in range(25):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(2, 9))
            r = int(rng.integers(1, min(m, n) + 1))
            mat = low_rank(rng, m, n, r, complex_entries)
            rank = row_span(mat, 1e-10).rank
            assert rank == np.linalg.matrix_rank(mat) == r
            assert row_span(mat * 1e-7, 1e-10, vectors=False).rank == rank
            assert row_span(mat * 1e7, 1e-10, vectors=False).rank == rank


def test_rank_scale_invariance(rng):
    mat = rng.standard_normal((6, 4))
    assert row_span(mat * 1e-7, 1e-10).rank == row_span(mat, 1e-10).rank
    assert row_span(mat * 1e7, 1e-10).rank == row_span(mat, 1e-10).rank


def test_span_basis_and_complement_orthonormal(rng):
    for complex_entries in (False, True):
        for m, n, r in ((3, 7, 2), (9, 5, 3), (4, 4, 4), (6, 6, 1)):
            span = row_span(low_rank(rng, m, n, r, complex_entries), 1e-10)
            assert span.rank == r
            assert span.basis.shape == (r, n)
            assert span.rank + span.complement.shape[0] == n
            full = np.vstack([span.basis, span.complement])
            # orthonormal within each part and orthogonal across them
            np.testing.assert_allclose(full @ full.conj().T, np.eye(n), atol=1e-12)


def test_span_basis_spans_the_rows(rng):
    mat = low_rank(rng, 6, 5, 3, True)
    span = row_span(mat, 1e-10)
    scale = np.linalg.norm(mat, axis=1)
    assert np.all(span.outside(mat) < 1e-12 * scale)
    # the complement is the null space of the conjugated rows
    assert np.max(np.abs(mat.conj() @ span.complement.T)) < 1e-12 * np.max(scale)


def test_span_reports_margin(rng):
    mat = np.diag([4.0, 2.0, 1e-13, 0.0])
    span = row_span(mat, 1e-10)
    assert span.rank == 2
    assert span.kept == 0.5
    assert span.dropped == 1e-13 / 4.0
    values_only = row_span(mat, 1e-10, vectors=False)
    assert (values_only.rank, values_only.kept, values_only.dropped) == (2, 0.5, 1e-13 / 4.0)
    assert values_only.basis is None and values_only.complement is None
    full = row_span(low_rank(rng, 5, 3, 3, False), 1e-10)
    assert full.rank == 3 and full.dropped == 0.0 and 0 < full.kept <= 1
    empty = row_span(np.zeros((2, 3)), 1e-10)
    assert (empty.rank, empty.kept, empty.dropped) == (0, 0.0, 0.0)
    assert empty.complement.shape == (3, 3)
