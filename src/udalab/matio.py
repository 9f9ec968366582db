"""JSON interchange for matrices, vectors, and reports.

Matrix schema: ``{"d": n, "entries": [[re, im], ...]}`` with the entries in
row-major order.  A file with exactly ``n`` entry pairs is an amplitude
vector; ``n*n`` pairs make a matrix.  Observable files carry a list of
row-major entry lists under ``"matrices"``; tripartite tensors carry
``"dims"`` plus flattened entries in (i, j, k) order.  The loaders check this
shape, and that observables are Hermitian, and raise ``ValueError`` otherwise.

Serialization is byte-deterministic: floats are rendered with 17 significant
digits, dictionaries keep insertion order, and no whitespace choices are left
to a library.
"""

from __future__ import annotations

import json
from dataclasses import is_dataclass, asdict
from typing import Any

import numpy as np

from .linalg import check_hermitian_stack


def format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def dumps(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if is_dataclass(obj) and not isinstance(obj, type):
        return dumps(asdict(obj), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps(v) for v in seq) + "]"
        items = [f"{inner}{dumps(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, complex):
        return dumps([obj.real, obj.imag], indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path: str, obj: Any) -> None:
    with open(path, "w") as handle:
        handle.write(dumps(obj))
        handle.write("\n")


def _entries(mat: np.ndarray) -> list[list[float]]:
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def matrix_to_json(mat: np.ndarray) -> dict:
    """A ``(d, d)`` matrix, or a ``(d,)`` amplitude vector, in the shared schema."""
    mat = np.asarray(mat, dtype=complex)
    return {"d": int(mat.shape[0]), "entries": _entries(mat)}


vector_to_json = matrix_to_json


def observables_to_json(stack: np.ndarray) -> dict:
    stack = np.asarray(stack, dtype=complex)
    return {"d": int(stack.shape[1]), "matrices": [_entries(m) for m in stack]}


def tensor_to_json(dims, tensor: np.ndarray) -> dict:
    return {"dims": [int(x) for x in dims], "entries": _entries(np.asarray(tensor))}


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def _from_entries(entries, shape) -> np.ndarray:
    size = int(np.prod(shape))
    if not isinstance(entries, list) or len(entries) != size:
        raise ValueError(f"expected a list of {size} entries")
    try:
        return np.array([complex(re, im) for re, im in entries]).reshape(shape)
    except (TypeError, ValueError):
        raise ValueError("each entry must be a pair [re, im] of numbers") from None


def load_json(path: str) -> dict:
    """Read one JSON document, which must be an object."""
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return doc


def parse_matrix_or_vector(doc: dict) -> np.ndarray:
    """Parse the shared schema; returns a (d,) vector or a (d, d) matrix."""
    d = _positive_int(doc.get("d"), "'d'")
    entries = doc.get("entries")
    count = len(entries) if isinstance(entries, list) else None
    if count == d:
        return _from_entries(entries, (d,))
    if count == d * d:
        return _from_entries(entries, (d, d))
    raise ValueError(f"expected a list of {d} or {d * d} entries, got {count}")


def load_matrix(path: str) -> np.ndarray:
    out = parse_matrix_or_vector(load_json(path))
    if out.ndim != 2:
        raise ValueError(f"{path} holds a vector, expected a matrix")
    return out


def load_vector(path: str) -> np.ndarray:
    out = parse_matrix_or_vector(load_json(path))
    if out.ndim != 1:
        raise ValueError(f"{path} holds a matrix, expected a vector")
    return out


def load_observables(path: str) -> np.ndarray:
    """A ``(k, d, d)`` stack of Hermitian observables, ``k >= 1``."""
    doc = load_json(path)
    d = _positive_int(doc.get("d"), "'d'")
    mats = doc.get("matrices")
    if not isinstance(mats, list) or not mats:
        raise ValueError("'matrices' must be a non-empty list of entry lists")
    stack = np.array([_from_entries(entries, (d, d)) for entries in mats])
    check_hermitian_stack(stack)
    return stack


def load_tensor(path: str) -> tuple[tuple[int, ...], np.ndarray]:
    doc = load_json(path)
    dims = doc.get("dims")
    if not isinstance(dims, list) or not dims:
        raise ValueError("'dims' must be a non-empty list of positive integers")
    dims = tuple(_positive_int(x, "each of 'dims'") for x in dims)
    return dims, _from_entries(doc.get("entries"), dims)
