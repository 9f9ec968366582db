import json

import numpy as np
import pytest

from udalab import matio


def test_float_formatting():
    assert matio.format_float(1.0) == "1"
    assert matio.format_float(1 / 3) == "0.33333333333333331"
    assert matio.format_float(-2.5e-17) == "-2.4999999999999999e-17"


def test_dumps_is_valid_json_and_deterministic():
    doc = {"a": 1, "b": [1.5, -2.0, 3], "c": {"nested": True, "x": None}, "s": "text"}
    out1 = matio.dumps(doc)
    out2 = matio.dumps(doc)
    assert out1 == out2
    assert json.loads(out1) == {"a": 1, "b": [1.5, -2.0, 3],
                                "c": {"nested": True, "x": None}, "s": "text"}


def test_matrix_round_trip(tmp_path, rng):
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.json"
    matio.write_json(str(path), matio.matrix_to_json(mat))
    loaded = matio.load_matrix(str(path))
    np.testing.assert_allclose(loaded, mat, atol=0)


def test_vector_round_trip(tmp_path):
    vec = np.array([1 / 3 + 2j, -0.25, 0.0])
    path = tmp_path / "v.json"
    matio.write_json(str(path), matio.vector_to_json(vec))
    loaded = matio.load_vector(str(path))
    np.testing.assert_allclose(loaded, vec, atol=0)


def test_vector_matrix_disambiguation(tmp_path):
    path = tmp_path / "x.json"
    matio.write_json(str(path), matio.matrix_to_json(np.eye(2)))
    with pytest.raises(ValueError):
        matio.load_vector(str(path))
    matio.write_json(str(path), matio.vector_to_json(np.ones(2)))
    with pytest.raises(ValueError):
        matio.load_matrix(str(path))
    matio.write_json(str(path), {"d": 2, "entries": [[1.0, 0.0]] * 3})
    with pytest.raises(ValueError):
        matio.load_matrix(str(path))


def test_observables_round_trip(tmp_path, rng):
    raw = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    stack = raw + raw.conj().transpose(0, 2, 1)
    path = tmp_path / "obs.json"
    matio.write_json(str(path), matio.observables_to_json(stack))
    loaded = matio.load_observables(str(path))
    np.testing.assert_allclose(loaded, stack, atol=0)
    matio.write_json(str(path), matio.observables_to_json(raw))
    with pytest.raises(ValueError, match="Hermitian"):
        matio.load_observables(str(path))


def test_tensor_round_trip(tmp_path, rng):
    tensor = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    path = tmp_path / "c.json"
    matio.write_json(str(path), matio.tensor_to_json((2, 3, 2), tensor))
    dims, loaded = matio.load_tensor(str(path))
    assert dims == (2, 3, 2)
    np.testing.assert_allclose(loaded, tensor, atol=0)


def test_dataclass_serialization():
    from dataclasses import dataclass

    @dataclass
    class Row:
        name: str
        value: float

    out = matio.dumps({"row": Row(name="x", value=0.5)})
    assert json.loads(out) == {"row": {"name": "x", "value": 0.5}}
