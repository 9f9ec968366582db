import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import udalab
from udalab import matio
from udalab.basis import PAULI_X, PAULI_Y, PAULI_Z
from udalab.cli import dispatch
from udalab.numrange import pauli_embedded
from udalab.states import random_pure


def run(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def test_construct_counts(capsys, tmp_path):
    fam = tmp_path / "family.json"
    obs = tmp_path / "observables.json"
    code, out = run(capsys, ["construct", "--d", "4", "--q", "1",
                             "--out", str(fam), str(obs),
                             "--verify-samples", "200"])
    assert code == 0
    doc = json.loads(out)
    assert doc["family_count"] == 2
    assert doc["observable_count"] == 13
    assert doc["signature_check"]["passed"]
    assert doc["signature_check"]["min_n_plus"] == 2
    written = matio.load_observables(str(obs))
    assert written.shape == (13, 4, 4)
    state = tmp_path / "psi.json"
    matio.write_json(str(state), matio.vector_to_json(random_pure(4, 0)))
    code, out = run(capsys, ["certify-uda", "--state", str(state), "--observables", str(obs)])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "CertifiedUnique"
    assert doc["evidence"]["route"] == "two-sided-complement"


def test_certify_uda_qutrit_gap(capsys, tmp_path):
    state = tmp_path / "psi.json"
    obs = tmp_path / "obs.json"
    matio.write_json(str(state), matio.vector_to_json(np.array([0, 0, 1], dtype=complex)))
    x3, y3, z3 = pauli_embedded(3)
    matio.write_json(str(obs), matio.observables_to_json(np.array([x3, y3, z3])))
    out_path = tmp_path / "verdict.json"
    code, _ = run(capsys, ["certify-uda", "--state", str(state),
                           "--observables", str(obs), "--restarts", "5",
                           "--seed", "0", "--json", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "Falsified"
    assert "witness_density" in doc
    assert doc["measurements"] == [0.0, 0.0, 0.0]


def test_certify_udp_full_tomography(capsys, tmp_path):
    state = tmp_path / "psi.json"
    obs = tmp_path / "obs.json"
    matio.write_json(str(state), matio.vector_to_json(np.array([1, 0], dtype=complex)))
    matio.write_json(str(obs), matio.observables_to_json(np.array([PAULI_X, PAULI_Y, PAULI_Z])))
    code, out = run(capsys, ["certify-udp", "--state", str(state),
                             "--observables", str(obs), "--restarts", "10", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["verdict"] == "Inconclusive"


def test_numrange_csv(capsys, tmp_path):
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    csv = tmp_path / "boundary.csv"
    matio.write_json(str(a1), matio.matrix_to_json(PAULI_X))
    matio.write_json(str(a2), matio.matrix_to_json(PAULI_Y))
    code, out = run(capsys, ["numrange", "--a1", str(a1), "--a2", str(a2),
                             "--angles", "16", "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "theta,x,y,degeneracy"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert abs(float(first[1]) - 1.0) < 1e-9  # theta=0 supports the point (1, 0)


def test_numrange_demo(capsys):
    code, out = run(capsys, ["numrange", "--demo", "qutrit"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["pure_measurement"] == [0.0, 0.0, 0.0]


def test_demo_bloch(capsys):
    code, out = run(capsys, ["demo", "bloch-nonconvexity"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["midpoint"] == [1.0, 0.0, 0.0, 0.0]


def test_rdm_check_state(capsys, tmp_path):
    rng = np.random.default_rng(5)
    tensor = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    tensor /= np.linalg.norm(tensor)
    path = tmp_path / "c.json"
    matio.write_json(str(path), matio.tensor_to_json((2, 2, 2), tensor))
    code, out = run(capsys, ["rdm-check", "--dims", "2,2,2", "--state", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["system_shape"] == [16, 16]
    assert doc["rank"] == 16
    assert doc["uda"] is True
    assert doc["generic"] is True


def test_rdm_check_mixed(capsys, tmp_path):
    from udalab.states import random_density

    rho = random_density(16, 2, 9)
    path = tmp_path / "rho.json"
    matio.write_json(str(path), matio.matrix_to_json(rho))
    code, out = run(capsys, ["rdm-check", "--dims", "4,2,2",
                             "--mixed", str(path), "--rank", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["system_shape"] == [128, 64]
    assert doc["rank"] == 64
    assert doc["uda"] is True


def test_rdm_check_reports_the_decided_system(capsys, tmp_path):
    # d3 > d2: the verdict is decided on the system with parties 2 and 3
    # swapped, and the document must describe that system
    rng = np.random.default_rng(11)
    for k in range(3):
        tensor = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
        tensor /= np.linalg.norm(tensor)
        path = tmp_path / f"c{k}.json"
        matio.write_json(str(path), matio.tensor_to_json((2, 2, 3), tensor))
        code, out = run(capsys, ["rdm-check", "--dims", "2,2,3", "--state", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["uda"] is True
        assert doc["rank"] == doc["system_shape"][1]


def test_rdm_check_mixed_dependent_slices(capsys, tmp_path):
    # 1/2 |a><a| (x) |0><0| + 1/2 |b><b| (x) |0><0|: party 3 is always |0>,
    # so the purification slices with p3 = 1 vanish
    rng = np.random.default_rng(4)
    frame = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))[0]
    zero = np.array([1.0, 0.0])
    rho = sum(np.kron(np.outer(v, v.conj()), np.outer(zero, zero)) for v in frame.T) / 2
    path = tmp_path / "rho.json"
    matio.write_json(str(path), matio.matrix_to_json(rho))
    code, out = run(capsys, ["rdm-check", "--dims", "4,2,2",
                             "--mixed", str(path), "--rank", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["generic"] is False


def test_rdm_check_ghz_demo(capsys):
    code, out = run(capsys, ["rdm-check", "--demo", "ghz"])
    assert code == 0
    doc = json.loads(out)
    assert doc["max_rdm_difference"] < 1e-12
    assert all(d > 1e-6 for d in doc["projector_distances"])


def test_symmetry_command(capsys, tmp_path):
    obs = tmp_path / "obs.json"
    diag = np.array([np.diag([1.0, 0, 0]), np.diag([0.0, 1, 0]),
                     np.diag([0.0, 0, 1])]).astype(complex)
    matio.write_json(str(obs), matio.observables_to_json(diag))
    code, out = run(capsys, ["symmetry", "--observables", str(obs),
                             "--check-algebra", "--fixed-dims", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["star_algebra"] is True
    assert doc["commutant_dim"] == 3
    assert doc["certificate"]["certified"] is True
    assert doc["bicommutant_identity"] is True
    assert doc["fixed_dims"] == [1, 2, 3, 4, 6, 8, 10, 16]


def test_symmetry_command_computes_each_quantity_once(capsys, tmp_path, monkeypatch):
    from udalab import symmetry

    calls = {"is_star_algebra": [], "generated_algebra": [], "commutant": []}
    for name in calls:
        original = getattr(symmetry, name)

        def counted(observables, *args, _name=name, _original=original, **kwargs):
            result = _original(observables, *args, **kwargs)
            calls[_name].append((observables, result))
            return result

        monkeypatch.setattr(symmetry, name, counted)
    obs = tmp_path / "obs.json"
    diag = np.array([np.diag([1.0, 0, 0]), np.diag([0.0, 1, 0])]).astype(complex)
    matio.write_json(str(obs), matio.observables_to_json(diag))
    assert run(capsys, ["symmetry", "--observables", str(obs)])[0] == 0
    assert [len(c) for c in calls.values()] == [1, 1, 1]
    for c in calls.values():
        c.clear()
    code, out = run(capsys, ["symmetry", "--observables", str(obs), "--check-algebra"])
    assert code == 0 and json.loads(out)["bicommutant_identity"] is True
    assert len(calls["is_star_algebra"]) == 1
    assert len(calls["generated_algebra"]) == 1
    # the bicommutant is the commutant of the commutant: one call per input
    (first_input, first), (second_input, _) = calls["commutant"]
    assert second_input is first


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["bogus-command"])
    assert info.value.code == 1


def test_missing_required_inputs(capsys):
    code = dispatch(["numrange"])
    assert code == 1
    capsys.readouterr()


def test_domain_errors_exit_one(capsys, tmp_path):
    a1 = tmp_path / "a1.json"
    matio.write_json(str(a1), matio.matrix_to_json(PAULI_X))
    code = dispatch(["numrange", "--a1", str(a1), "--a2", str(a1), "--angles", "4"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = dispatch(["certify-uda", "--state", "/nonexistent.json",
                     "--observables", "/nonexistent.json"])
    assert code == 1
    capsys.readouterr()


MALFORMED = {
    "entry-not-a-pair": {"d": 2, "entries": [[1, 0], 5, [0, 0], [1, 0]]},
    "matrices-not-a-list": {"d": 2, "matrices": 7},
    "top-level-list": [[1, 0], [0, 0]],
    "no-matrices": {"d": 2, "matrices": []},
    "bad-dimension": {"d": 0, "matrices": [[[1, 0]]]},
    "entry-in-matrices": {"d": 2, "matrices": [[[1, 0], 5, [0, 0], [1, 0]]]},
    "non-hermitian": {"d": 2, "matrices": [[[0, 0], [1, 0], [0, 0], [0, 0]]]},
}


@pytest.mark.parametrize("command, name", [
    ("certify-uda", "entry-not-a-pair"), ("certify-uda", "matrices-not-a-list"),
    ("certify-uda", "top-level-list"), ("certify-uda", "no-matrices"),
    ("certify-uda", "bad-dimension"), ("certify-uda", "non-hermitian"),
    ("numrange", "entry-not-a-pair"), ("numrange", "top-level-list"),
    ("symmetry", "matrices-not-a-list"), ("symmetry", "top-level-list"),
    ("symmetry", "no-matrices"), ("symmetry", "entry-in-matrices"),
    ("symmetry", "non-hermitian"),
])
def test_malformed_input_exits_one_with_a_message(tmp_path, command, name):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(MALFORMED[name]))
    good = tmp_path / "good.json"
    if command == "certify-uda":
        state = bad if "entries" in MALFORMED[name] else good
        matio.write_json(str(good), matio.vector_to_json(np.array([1, 0], dtype=complex)))
        argv = ["--state", str(state), "--observables", str(bad)]
    elif command == "numrange":
        matio.write_json(str(good), matio.matrix_to_json(PAULI_X))
        argv = ["--a1", str(bad), "--a2", str(good), "--angles", "4"]
    else:
        argv = ["--observables", str(bad)]
    env = dict(os.environ, PYTHONPATH=str(Path(udalab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "udalab.cli", command, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_reproduce_subset(capsys, tmp_path):
    summary = tmp_path / "summary.json"
    code, out = run(capsys, ["reproduce", "--suite", "1,3", "--seed", "0",
                             "--json", str(summary)])
    assert code == 0
    assert "[PASS] criterion 01" in out
    assert "[PASS] criterion 03" in out
    doc = json.loads(summary.read_text())
    assert doc["all_passed"] is True
    assert [r["index"] for r in doc["results"]] == [1, 3]


def test_byte_identical_outputs(capsys, tmp_path):
    state = tmp_path / "psi.json"
    obs = tmp_path / "obs.json"
    matio.write_json(str(state), matio.vector_to_json(np.array([0, 0, 1], dtype=complex)))
    x3, y3, z3 = pauli_embedded(3)
    matio.write_json(str(obs), matio.observables_to_json(np.array([x3, y3, z3])))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for target in (out_a, out_b):
        code, _ = run(capsys, ["certify-uda", "--state", str(state),
                               "--observables", str(obs), "--restarts", "3",
                               "--seed", "7", "--json", str(target)])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("UDA_LAB_SEED", "123")
    code, out = run(capsys, ["construct", "--d", "3", "--q", "1"])
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 123
