"""The benchmark's own tests: inputs are a pure function of (workload, seed)
and every ground-truth label holds.  Run with ``python3 -m pytest udabench/tests``."""

import numpy as np
import pytest

import checks
import workloads
from udalab.certify import CertificateOutcome


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "__dict__") and type(a) is type(b):
        return _same(vars(a), vars(b))
    if hasattr(a, "matrices"):
        return _same(a.matrices, b.matrices)
    return a == b


def _queries(workload, seed, round_index, tmp_path):
    shared = workloads.setup(workload, seed, tmp_path)
    return workloads.round_queries(shared, round_index)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = _queries(workload, 3, 1, tmp_path)
    files = {p: p.read_bytes() for p in tmp_path.rglob("*.json")}
    second = _queries(workload, 3, 1, tmp_path)
    assert files == {p: p.read_bytes() for p in tmp_path.rglob("*.json")}
    assert [q.name for q in first] == [q.name for q in second]
    for a, b in zip(first, second):
        assert _same(a.args, b.args), a.name
        assert _same(a.kwargs, b.kwargs), a.name
        assert _same(a.label, b.label), a.name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_cycle_through_the_pool(workload, tmp_path):
    pool = workloads.POOL_ROUNDS[workload]
    first = _queries(workload, 3, 1, tmp_path)
    again = _queries(workload, 3, 1 + pool, tmp_path)
    other = _queries(workload, 3, 2, tmp_path)
    assert [q.name for q in first] == [q.name for q in again]
    pooled = [(a, b, c) for a, b, c in zip(first, again, other) if not a.fresh]
    assert pooled
    assert all(_same(a.args, b.args) for a, b, _ in pooled)
    if pool > 1:
        assert not all(_same(a.args, c.args) for a, _, c in pooled)
    # Fresh queries take new inputs every round.
    assert all(not _same(a.args, b.args) for a, b in zip(first, again) if a.fresh)


@pytest.mark.parametrize("workload", ["certify-unique", "falsify", "range-scan"])
def test_other_seed_other_inputs(workload, tmp_path):
    first = _queries(workload, 3, 0, tmp_path)
    second = _queries(workload, 4, 0, tmp_path)
    assert not _same(first[0].args, second[0].args)


def _gap_queries(tmp_path):
    for workload in ("certify-unique", "falsify"):
        for seed in range(3):
            for query in _queries(workload, seed, 0, tmp_path):
                if "twin" in query.facts:
                    yield query


def test_gap_twins_are_states_with_the_same_measurements(tmp_path):
    count = 0
    for query in _gap_queries(tmp_path):
        phi, obs, _ = query.args
        twin = query.facts["twin"]
        assert np.allclose(twin, twin.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(twin)[0] >= -1e-10
        assert abs(np.trace(twin).real - 1.0) < 1e-12
        pure = np.outer(phi, phi.conj())
        gap = np.real(np.einsum("kab,ba->k", obs, twin - pure))
        assert np.max(np.abs(gap)) < 1e-10
        assert np.linalg.norm(twin - pure) > 1e-3
        count += 1
    assert count == 3 * (3 + 3 + workloads.GAP_TWINS_D5)


def test_gap_twin_passes_the_witness_recheck(tmp_path):
    query = next(q for q in _gap_queries(tmp_path) if q.label == workloads.NOT_UNIQUE)
    twin = query.facts["twin"]
    good = CertificateOutcome(verdict="Falsified", witness=twin)
    assert checks.check(query, good).failure is None
    shifted = CertificateOutcome(verdict="Falsified", witness=twin + 1e-6 * np.eye(len(twin)))
    assert "misses the measurements" in checks.check(query, shifted).failure
    pure = np.outer(query.args[0], query.args[0].conj())
    same = CertificateOutcome(verdict="Falsified", witness=pure)
    assert "from the query state" in checks.check(query, same).failure


def test_falsify_sets_have_fewer_than_2d_minus_2_observables(tmp_path):
    for seed in range(3):
        for query in _queries("falsify", seed, 0, tmp_path):
            if "-few-" in query.name:
                psi, obs, _ = query.args
                d = len(psi)
                assert len(obs) < 2 * d - 2
                assert query.label == workloads.NOT_UNIQUE


def _marginals(c):
    rho = np.einsum("ijk,lmn->ijklmn", c, c.conj())
    return (np.einsum("ijklmk->ijlm", rho), np.einsum("ijkljn->ikln", rho))


def test_ghz_phase_systems_are_rank_deficient(tmp_path):
    from udalab import rdm

    count = 0
    for seed in range(3):
        for query in _queries("exact", seed, 0, tmp_path):
            if "ghz" not in query.name:
                continue
            state = query.args[0]
            assert query.label is False
            system = rdm.build_system(state)
            assert np.linalg.matrix_rank(system.matrix, tol=1e-8) < system.matrix.shape[1]
            # A second phase gives the same two marginals but another state.
            twin = state.c.copy()
            twin[1, 1, 1] *= np.exp(0.7j)
            for a, b in zip(_marginals(state.c), _marginals(twin)):
                assert np.allclose(a, b, atol=1e-14)
            assert np.linalg.norm(np.outer(twin, twin.conj()) - state.density()) > 1e-3
            count += 1
    assert count == 6


def test_exact_labels_follow_their_constructions(tmp_path):
    queries = {q.name: q for q in _queries("exact", 0, 0, tmp_path)}
    assert queries["uda-observables-d12-q1"].label == 5 * 12 - 7
    assert queries["group-symmetric-d4"].label == 24
    assert queries["group-weyl-d4"].label == 16
    closed = queries["star-block-2+2"].args[0]
    flat = closed.reshape(len(closed), -1)
    products = np.einsum("iab,jbc->ijac", closed, closed).reshape(-1, 16)
    span = np.vstack([flat, np.eye(4).reshape(1, -1)])
    assert np.linalg.matrix_rank(np.vstack([span, products]), tol=1e-9) == np.linalg.matrix_rank(span, tol=1e-9)


def test_known_rdm_check_defect_is_named(tmp_path):
    query = next(q for q in _queries("exact", 0, 0, tmp_path) if q.name == "cli-rdm-check-223")
    doc = '{"system_shape": [36, 81], "rank": 36, "uda": true}'
    verdict = checks.check(query, (0, doc))
    assert verdict.failure and verdict.known_defect == "rdm-check-unswapped-report"
    assert checks.check(query, (0, '{"system_shape": [16, 16], "rank": 16, "uda": true}')).failure is None
