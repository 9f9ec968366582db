import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udalab.basis import PAULI_X, PAULI_Y, PAULI_Z, expectation
from udalab.certify import (
    CERTIFIED,
    FALSIFIED,
    INCONCLUSIVE,
    FeasibilityConfig,
    _AffineProjector,
    _dykstra,
    falsify_uda,
    gap_witness,
    ground_state_check,
    measure,
    uda_certify,
    udp_certify,
)
from udalab.construction import (FAMILY_SPAN_CUT, orthocomplement, subspace_from_matrices,
                                 traceless_complement, uda_observables)
from udalab.numrange import pauli_embedded
from udalab.states import pure_density, random_density, random_pure

from conftest import random_hermitian

PAULI = np.array([PAULI_X, PAULI_Y, PAULI_Z])


def qutrit_pauli_stack():
    x3, y3, z3 = pauli_embedded(3)
    return np.array([x3, y3, z3])


def test_measure_pauli_ground_state():
    np.testing.assert_allclose(measure(PAULI, np.array([1, 0], dtype=complex)),
                               [0.0, 0.0, 1.0], atol=1e-15)


def test_measure_embedded_pauli_third_level_is_exactly_zero():
    stack = qutrit_pauli_stack()
    psi = np.array([0, 0, 1], dtype=complex)
    assert np.array_equal(measure(stack, psi), np.zeros(3))
    mixture = np.diag([0.5, 0.5, 0.0]).astype(complex)
    assert np.array_equal(measure(stack, mixture), np.zeros(3))


def test_measure_matches_expectation_per_observable(rng):
    for d in (2, 3, 5):
        stack = np.array([random_hermitian(d, rng) for _ in range(4)])
        for state in (random_pure(d, rng), random_density(d, 2, rng)):
            expected = [expectation(a, state) for a in stack]
            np.testing.assert_allclose(measure(stack, state), expected, rtol=1e-12, atol=1e-12)


def test_measure_errors():
    skew = PAULI.copy()
    skew[1, 0, 1] += 1e-6  # no longer Hermitian
    with pytest.raises(ValueError, match="Hermitian"):
        measure(skew, np.array([1, 0], dtype=complex))
    with pytest.raises(ValueError, match="dimensions"):
        measure(PAULI, random_pure(3, 0))
    with pytest.raises(ValueError, match="dimensions"):
        measure(PAULI, random_density(3, 3, 0))


def projection_equivalence(observables, rho1, rho2, tol=1e-8):
    """Equal measurements, checked against equal projections onto the observables' span.

    Two states project equally onto the span exactly when their traceless
    difference lies in the kernel-built orthocomplement of that span.
    """
    stack = np.asarray(observables, dtype=complex)
    d = stack.shape[1]
    meas_equal = bool(np.max(np.abs(measure(stack, rho1) - measure(stack, rho2))) < tol)
    diff = np.asarray(rho1, dtype=complex) - np.asarray(rho2, dtype=complex)
    comp = traceless_complement(stack, d).basis
    traceless = diff - np.trace(diff) / d * np.eye(d)
    in_comp = np.tensordot(np.einsum("iab,ab->i", comp.conj(), traceless), comp, axes=1)
    proj_equal = bool(np.linalg.norm(traceless - in_comp) < tol
                      and abs(np.trace(diff).real) < tol)
    assert meas_equal == proj_equal
    return meas_equal


def test_projection_equivalence_same_state(rng):
    rho = random_density(3, 3, 0)
    assert projection_equivalence(PAULI[:2], np.eye(2) / 2, np.eye(2) / 2)
    assert projection_equivalence(qutrit_pauli_stack(), rho, rho)


def test_projection_equivalence_poles():
    # |0><0| and |1><1| differ only along Z, invisible to (X, Y)
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert projection_equivalence(np.array([PAULI_X, PAULI_Y]), zero, one)
    assert not projection_equivalence(PAULI, zero, one)


def test_projection_equivalence_agreement_property(rng):
    for _ in range(200):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, d * d))
        stack = np.array([random_hermitian(d, rng) for _ in range(m)])
        rho1 = random_density(d, d, rng)
        rho2 = random_density(d, d, rng) if rng.random() < 0.7 else rho1.copy()
        projection_equivalence(stack, rho1, rho2)  # asserts agreement


def test_uda_full_tomography_certificate():
    obs = uda_observables(3, 1)  # spans the whole traceless space
    outcome = uda_certify(random_pure(3, 0), obs)
    assert outcome.verdict == CERTIFIED
    assert outcome.evidence["route"] == "complete-tomography"


def test_uda_structural_certificate():
    obs = uda_observables(4, 1)
    outcome = uda_certify(random_pure(4, 0), obs, FeasibilityConfig(restarts=2, seed=1))
    assert outcome.verdict == CERTIFIED
    assert outcome.evidence["route"] == "two-sided-complement"
    assert outcome.evidence["complement_dim"] == outcome.evidence["family_dim"] == 2
    assert 0.0 <= outcome.evidence["outside"] <= FAMILY_SPAN_CUT


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_structural_route_reads_only_the_observables(data):
    d = data.draw(st.integers(min_value=4, max_value=8), label="d")
    obs = uda_observables(d, 1)
    scales = np.array(data.draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                                         min_size=len(obs), max_size=len(obs)), label="scales"))
    psi = random_pure(d, data.draw(st.integers(min_value=0, max_value=2**31), label="seed"))
    cfg = FeasibilityConfig(restarts=1, max_iterations=50)
    outcomes = [uda_certify(psi, stack, cfg)
                for stack in (obs, obs.matrices, scales[:, None, None] * obs.matrices)]
    for outcome in outcomes:
        assert outcome.verdict == CERTIFIED
        assert outcome.evidence["route"] == "two-sided-complement"
        assert outcome.evidence["outside"] <= FAMILY_SPAN_CUT
    assert outcomes[0].evidence == outcomes[1].evidence


def test_structural_route_needs_the_family_span(rng):
    cfg = FeasibilityConfig(restarts=2, max_iterations=50)
    for d in (4, 5):
        mats = uda_observables(d, 1).matrices
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        rotated = np.einsum("ab,kbc,dc->kad", u, mats, u.conj())
        for stack in (rotated, mats[1:]):
            outcome = uda_certify(random_pure(d, rng), stack, cfg)
            assert outcome.evidence["route"] == "dykstra"


def test_rank_q_sets_certify_pure_states():
    for d, q in ((6, 2), (8, 2), (8, 3)):
        outcome = uda_certify(random_pure(d, d), uda_observables(d, q))
        assert outcome.verdict == CERTIFIED
        assert outcome.evidence["route"] == "two-sided-complement"
        assert outcome.evidence["complement_dim"] < outcome.evidence["family_dim"]


def test_uda_falsifies_embedded_pauli_third_level():
    stack = qutrit_pauli_stack()
    psi = np.array([0, 0, 1], dtype=complex)
    cfg = FeasibilityConfig(restarts=5, seed=0)
    outcome = uda_certify(psi, stack, cfg)
    assert outcome.falsified
    witness = outcome.witness
    # soundness re-validation, independent of the solver path
    assert np.linalg.eigvalsh(witness)[0] >= -1e-10
    assert abs(np.trace(witness).real - 1.0) < 1e-8
    assert np.max(np.abs(measure(stack, witness))) < 10 * cfg.constraint_tol
    assert np.linalg.norm(witness - pure_density(psi)) > cfg.distinctness_tol / 2
    assert outcome.evidence["monotonicity_breaks"] == 0


def test_uda_constructed_sets_resist_dykstra(rng):
    for d in (3, 4):
        obs = uda_observables(d, 1)
        for _ in range(5):
            psi = random_pure(d, rng)
            cfg = FeasibilityConfig(restarts=5, seed=int(rng.integers(2**31)),
                                    distinctness_tol=1e-6)
            outcome = uda_certify(psi, obs, cfg, use_structural=False)
            assert not outcome.falsified
            assert outcome.evidence["max_distance"] < 1e-6
            assert outcome.evidence["non_converged"] == 0


def test_udp_full_qubit_tomography_never_falsified(rng):
    for _ in range(3):
        psi = random_pure(2, rng)
        outcome = udp_certify(psi, PAULI, FeasibilityConfig(restarts=20, seed=3))
        assert outcome.verdict == INCONCLUSIVE


def test_udp_third_level_unique_preimage():
    stack = qutrit_pauli_stack()
    psi = np.array([0, 0, 1], dtype=complex)
    outcome = udp_certify(psi, stack, FeasibilityConfig(restarts=50, seed=0))
    assert not outcome.falsified
    assert outcome.evidence["min_off_orbit_objective"] > 1e-6


def test_udp_falsifies_ghz_with_two_local_words():
    from itertools import product

    paulis = [np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z]
    words = []
    for ops in product(range(4), repeat=3):
        if sum(1 for o in ops if o) in (1, 2):
            mat = np.array([[1.0]], dtype=complex)
            for o in ops:
                mat = np.kron(mat, paulis[o])
            words.append(mat)
    assert len(words) == 36
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    outcome = udp_certify(ghz, np.array(words), FeasibilityConfig(restarts=20, seed=1))
    assert outcome.falsified
    phi = outcome.witness
    assert np.max(np.abs(measure(np.array(words), phi) - measure(np.array(words), ghz))) < 1e-7
    assert abs(np.vdot(phi, ghz)) ** 2 < 1.0 - 1e-4


def test_dykstra_affine_distance_monotone(rng):
    # per-run diagnostic: distance to the affine set never increases beyond
    # roundoff slack, across random observable sets and starts
    for _ in range(10):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, d * d))
        stack = np.array([random_hermitian(d, rng) for _ in range(m)])
        psi = random_pure(d, rng)
        affine = _AffineProjector(stack, pure_density(psi))
        starts = np.array([random_density(d, d, int(rng.integers(2**31)))
                           for _ in range(3)])
        run = _dykstra(starts, affine, FeasibilityConfig(max_iterations=600))
        assert int(np.sum(run["monotonicity_breaks"])) == 0


def reference_dykstra(starts, affine, cfg):
    """Textbook Dykstra, with the affine correction q and a separate distance projection."""
    x = affine((starts + np.conj(np.swapaxes(starts, -1, -2))) / 2)
    p, q, batch = np.zeros_like(x), np.zeros_like(x), len(x)
    for iterations in range(1, cfg.max_iterations + 1):
        herm = (x + p + np.conj(np.swapaxes(x + p, -1, -2))) / 2
        values, vectors = np.linalg.eigh(herm)
        y = np.einsum("...ab,...b,...cb->...ac", vectors, np.clip(values, 0, None), vectors.conj())
        p = x + p - y
        x_new = affine(y + q)
        q = y + q - x_new
        dist = np.linalg.norm((y - affine(y)).reshape(batch, -1), axis=1)
        change = np.linalg.norm((x_new - x).reshape(batch, -1), axis=1)
        x = x_new
        if np.all(dist < cfg.constraint_tol) and np.all(change < cfg.constraint_tol * 1e-2):
            break
    return y, iterations


def test_dykstra_matches_reference_with_affine_correction(rng):
    cfg = FeasibilityConfig(max_iterations=400)
    stopped_early = 0
    for trial in range(12):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, d * d))
        stack = np.array([random_hermitian(d, rng) for _ in range(m)])
        streams = 3
        if trial % 2:  # one anchor per stream, as in a batch of several queries
            anchors = np.array([pure_density(random_pure(d, rng)) for _ in range(streams)])
        else:
            anchors = pure_density(random_pure(d, rng))
        affine = _AffineProjector(stack, anchors)
        starts = np.array([random_density(d, d, rng) for _ in range(streams)])
        run = _dykstra(starts, affine, cfg)
        points, iterations = reference_dykstra(starts, affine, cfg)
        assert run["iterations"] == iterations
        assert np.max(np.abs(run["points"] - points)) < 1e-9
        stopped_early += iterations < cfg.max_iterations
    assert 0 < stopped_early < 12  # both converged and capped runs were compared


def test_affine_projector_properties(rng):
    for d in (2, 3, 4, 5):
        m = int(rng.integers(1, d * d - 1))
        stack = [random_hermitian(d, rng) for _ in range(m)]
        stack.append(stack[0] - 2.0 * stack[-1])  # a dependent constraint
        stack = np.array(stack)
        anchors = np.array([pure_density(random_pure(d, rng)) for _ in range(4)])
        affine = _AffineProjector(stack, anchors)
        mats = 10.0 * np.array([random_hermitian(d, rng) for _ in range(4)])
        projected = affine(mats)
        scale = np.max(np.abs(mats)) * max(1.0, np.max(np.abs(stack)))
        assert np.all(affine.residual(projected) < 1e-12 * scale * d * d)
        assert np.max(np.abs(affine(projected) - projected)) < 1e-12 * scale
        # the step lies in span{I, A_i}: orthogonal to every direction within the set
        directions = traceless_complement(stack, d).basis
        step = mats - projected
        overlaps = np.einsum("kab,nab->nk", directions.conj(), step)
        assert np.max(np.abs(overlaps)) < 1e-12 * scale * d


def test_falsify_uda_single_state_matches_uda_certify():
    cfg = FeasibilityConfig(restarts=5, seed=3)
    verdicts = set()
    for stack, psi in ((qutrit_pauli_stack(), np.array([0, 0, 1], dtype=complex)),
                       (PAULI, random_pure(2, 4))):
        single = uda_certify(psi, stack, cfg, use_structural=False)
        verdicts.add(single.verdict)
        (batched,) = falsify_uda([psi], stack, cfg)
        assert batched.verdict == single.verdict
        assert batched.evidence == single.evidence
        if single.witness is None:
            assert batched.witness is None
        else:
            assert np.array_equal(batched.witness, single.witness)
    assert verdicts == {FALSIFIED, INCONCLUSIVE}


def test_falsify_uda_seeds_the_whole_batch(monkeypatch):
    import udalab.certify as certify

    recorded = []
    engine = certify._dykstra

    def wrapped(starts, affine, cfg):
        recorded.append(starts)
        return engine(starts, affine, cfg)

    monkeypatch.setattr(certify, "_dykstra", wrapped)
    stack = qutrit_pauli_stack()[:2]
    states = [random_pure(3, k) for k in range(4)]
    cfg = FeasibilityConfig(restarts=3, seed=11, max_iterations=50)
    outcomes = falsify_uda(states, stack, cfg)
    assert len(outcomes) == len(states)
    assert len(recorded) == 1  # one batched run for every state and restart
    expected = [random_density(3, 3, cfg.seed + i) for i in range(len(states) * cfg.restarts)]
    assert np.array_equal(recorded[0], np.array(expected))
    for outcome in outcomes:
        assert outcome.evidence["route"] == "dykstra"
        assert outcome.verdict in (FALSIFIED, INCONCLUSIVE)


def test_uda_implies_udp_consistency(rng):
    # whenever the UDA engine finds nothing, the UDP engine must not falsify
    stack = qutrit_pauli_stack()[:2]
    for _ in range(5):
        psi = random_pure(3, rng)
        cfg = FeasibilityConfig(restarts=5, seed=int(rng.integers(2**31)))
        if not uda_certify(psi, stack, cfg).falsified:
            assert not udp_certify(psi, stack, cfg).falsified


def test_gap_witness_reference_case():
    direction = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(6)
    span = subspace_from_matrices(direction[None], 3)
    obs = orthocomplement(span).basis
    assert len(obs) == 7
    phi, twin = gap_witness(direction, obs)
    np.testing.assert_allclose(np.abs(phi), [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(twin, np.diag([0.5, 0.5, 0.0]), atol=1e-12)


def test_gap_witness_scale_covariance():
    direction = np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(6)
    obs = orthocomplement(subspace_from_matrices(direction[None], 3)).basis
    phi1, twin1 = gap_witness(direction, obs)
    phi2, twin2 = gap_witness(4.2 * direction, obs)
    assert abs(abs(np.vdot(phi1, phi2)) - 1) < 1e-12
    np.testing.assert_allclose(twin1, twin2, atol=1e-12)


def test_gap_witness_invariant_under_observable_scale():
    d = 4
    rng = np.random.default_rng(0)
    frame = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    v = (frame * np.array([-3.0, 1.0, 1.0, 1.0])) @ frame.conj().T
    v = (v + v.conj().T) / 2  # rotated off the diagonal, so overlaps carry roundoff
    obs = orthocomplement(subspace_from_matrices(v[None], d)).basis
    phi, twin = gap_witness(v, obs)
    for scale in (1e-6, 1.0, 1e9):
        scaled_phi, scaled_twin = gap_witness(v, scale * obs)
        assert np.array_equal(scaled_phi, phi)
        assert np.array_equal(scaled_twin, twin)


def test_gap_witness_orthogonality_forces_equal_measurements(rng):
    for d in (3, 4, 5):
        gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        frame = np.linalg.qr(gauss)[0]
        positives = rng.uniform(0.2, 1.0, size=d - 1)
        values = np.concatenate([[-positives.sum()], positives])
        v = (frame * values) @ frame.conj().T
        v = (v + v.conj().T) / 2
        obs = orthocomplement(subspace_from_matrices(v[None], d)).basis
        phi, twin = gap_witness(v, obs)
        assert np.max(np.abs(measure(obs, twin) - measure(obs, phi))) < 1e-10
        assert np.linalg.eigvalsh(twin)[0] >= -1e-10
        assert abs(np.trace(twin).real - 1.0) < 1e-12
        assert np.linalg.norm(twin - pure_density(phi)) > 1e-3


def test_gap_witness_sign_flip_applied():
    # d-1 negatives and one positive: flips internally to the canonical form
    direction = -np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(6)
    obs = orthocomplement(subspace_from_matrices(direction[None], 3)).basis
    phi, twin = gap_witness(direction, obs)
    np.testing.assert_allclose(np.abs(phi), [0, 0, 1], atol=1e-12)


def test_gap_witness_precondition_errors():
    d3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    obs = orthocomplement(subspace_from_matrices(d3[None], 3)).basis
    with pytest.raises(ValueError):  # not invertible
        gap_witness(d3, obs)
    balanced = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex) / 2
    obs4 = orthocomplement(subspace_from_matrices(balanced[None], 4)).basis
    with pytest.raises(ValueError):  # two eigenvalues of each sign
        gap_witness(balanced, obs4)
    overlap = np.diag([1.0, 1.0, -2.0]).astype(complex)[None] / np.sqrt(6)
    with pytest.raises(ValueError):  # not orthogonal to the span
        gap_witness(np.diag([1.0, 1.0, -2.0]).astype(complex), overlap)


def test_observable_span_complement_dimensions():
    comp = traceless_complement(PAULI, 2)
    assert comp.dim == 0
    comp = traceless_complement(np.array([PAULI_Z]), 2)
    assert comp.dim == 2


def test_ground_state_check_pauli_z():
    report = ground_state_check(np.array([1.0]), np.array([PAULI_Z]),
                                FeasibilityConfig(restarts=3, seed=0))
    assert report.passed
    np.testing.assert_allclose(np.abs(report.ground_state), [0.0, 1.0], atol=1e-12)
    assert report.gap > 1.0


def test_ground_state_check_single_gellmann_diagonal():
    m3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    report = ground_state_check(np.array([1.0]), np.array([m3]),
                                FeasibilityConfig(restarts=5, seed=2))
    # the -1 eigenvalue is extremal and nondegenerate: no other state fits
    assert report.passed
    np.testing.assert_allclose(np.abs(report.ground_state), [0.0, 1.0, 0.0], atol=1e-12)


def test_ground_state_check_constructed_observables(rng):
    obs = uda_observables(4, 1)
    for _ in range(3):
        coeffs = rng.standard_normal(len(obs))
        try:
            report = ground_state_check(coeffs, obs,
                                        FeasibilityConfig(restarts=3, seed=7),
                                        use_structural=False)
        except ValueError:
            continue  # degenerate draw
        assert report.passed


def test_ground_state_check_degenerate_error():
    with pytest.raises(ValueError):
        ground_state_check(np.array([1.0]), np.array([np.eye(2, dtype=complex)]))


def test_config_validation():
    with pytest.raises(ValueError):
        FeasibilityConfig(constraint_tol=0.0)
    with pytest.raises(ValueError):
        FeasibilityConfig(restarts=0)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        uda_certify(random_pure(3, 0), PAULI)
    with pytest.raises(ValueError):
        udp_certify(random_pure(3, 0), PAULI)
