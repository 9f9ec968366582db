"""Independent verdict checker: plain numpy, no udalab helpers.

``check(query, result)`` returns a :class:`Verdict`: whether the answer was
decisive and, if it is wrong, why.  Decisive means ``CertifiedUnique``,
``Falsified`` or a definite exact answer.  A wrong answer is one that
contradicts the query's label, or a ``Falsified`` witness that fails the
re-check below.  An ``Inconclusive`` answer is never wrong, only undecided.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from workloads import NOT_UNIQUE, UNIQUE, Query

PSD_TOL = 1e-9
# Roundoff allowed when the measurement residual is recomputed here in
# another summation order than the engine's.
RESIDUAL_SLACK = 1e-12

KNOWN_DEFECTS = {
    "rdm-check-unswapped-report": (
        "rdm-check prints the shape and rank of the unswapped marginal system "
        "for d3 > d2 while its uda verdict comes from the swapped one"),
}


@dataclass
class Verdict:
    decided: bool
    failure: str | None = None
    known_defect: str | None = None


def _stack(observables) -> np.ndarray:
    return np.asarray(getattr(observables, "matrices", observables), dtype=complex)


def _expectations(stack: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("kab,ba->k", stack, rho))


def recheck_witness(query: Query, outcome) -> str | None:
    """Re-verify a ``Falsified`` witness against the engine's own tolerances."""
    psi, observables, cfg = query.args[:3]
    stack = _stack(observables)
    target = _expectations(stack, np.outer(psi, psi.conj()))
    witness = np.asarray(outcome.witness, dtype=complex)
    if witness.ndim == 1:
        norm = np.linalg.norm(witness)
        if abs(norm - 1.0) > 1e-10:
            return f"pure witness has norm {norm!r}"
        rho = np.outer(witness, witness.conj())
        residual = np.linalg.norm(_expectations(stack, rho) - target)
        separation = 1.0 - abs(np.vdot(witness, psi)) ** 2
    else:
        rho = witness
        herm = (rho + rho.conj().T) / 2
        if np.max(np.abs(rho - herm)) > PSD_TOL:
            return "witness is not Hermitian"
        lowest = float(np.linalg.eigvalsh(herm)[0])
        if lowest < -PSD_TOL:
            return f"witness has eigenvalue {lowest!r}"
        gaps = np.concatenate([[np.trace(rho).real - 1.0], _expectations(stack, rho) - target])
        residual = np.linalg.norm(gaps)
        separation = np.linalg.norm(rho - np.outer(psi, psi.conj()))
    if residual > cfg.constraint_tol + RESIDUAL_SLACK:
        return f"witness misses the measurements by {residual!r}"
    if separation <= cfg.distinctness_tol:
        return f"witness is only {separation!r} from the query state"
    return None


def _outcome(query: Query, outcome) -> Verdict:
    verdict = outcome.verdict
    if verdict == "CertifiedUnique":
        if query.label == NOT_UNIQUE:
            return Verdict(True, "certified a state that has a second preimage")
        return Verdict(True)
    if verdict == "Falsified":
        if query.label == UNIQUE:
            return Verdict(True, "falsified a state that is unique")
        return Verdict(True, recheck_witness(query, outcome))
    if verdict == "Inconclusive":
        return Verdict(False)
    return Verdict(False, f"unknown verdict {verdict!r}")


def _scan(query: Query, report) -> Verdict:
    # Nondegenerate boundary states of a two-observable range are UDA, and
    # interior points have a second pure preimage by convexity.
    if report.boundary_uda_falsified or report.hard_failures:
        return Verdict(False, f"{report.boundary_uda_falsified} boundary states falsified, "
                              f"{report.hard_failures} hard failures")
    if report.interior_udp_falsified > report.interior_checked:
        return Verdict(False, "more interior falsifications than interior points")
    return Verdict(report.interior_udp_falsified == report.interior_checked)


def _sweep(query: Query, planar) -> Verdict:
    a1, a2 = query.args
    if len(planar.thetas) < query.kwargs["angles"]:
        return Verdict(False, f"sweep returned {len(planar.thetas)} angles")
    cos, sin = np.cos(planar.thetas), np.sin(planar.thetas)
    support = np.linalg.eigvalsh(cos[:, None, None] * a1 + sin[:, None, None] * a2)[:, -1]
    states = planar.states
    x = np.real(np.einsum("ni,ij,nj->n", states.conj(), a1, states))
    y = np.real(np.einsum("ni,ij,nj->n", states.conj(), a2, states))
    scale = max(1.0, float(np.max(np.abs(support))))
    worst = max(float(np.max(np.abs(planar.support_values - support))),
                float(np.max(np.abs(planar.points[:, 0] - x))),
                float(np.max(np.abs(planar.points[:, 1] - y))),
                float(np.max(np.abs(cos * x + sin * y - support))))
    if worst > 1e-9 * scale:
        return Verdict(True, f"boundary point off its supporting line by {worst!r}")
    return Verdict(True)


def _equal(query: Query, answer) -> Verdict:
    if answer != query.label:
        return Verdict(True, f"answered {answer!r}, expected {query.label!r}")
    return Verdict(True)


def _count(query: Query, observable_set) -> Verdict:
    stack = _stack(observable_set)
    if len(stack) != query.label:
        return Verdict(True, f"built {len(stack)} observables, closed form gives {query.label}")
    d = stack.shape[1]
    flat = stack.reshape(len(stack), -1)
    gram = np.real(flat.conj() @ flat.T)
    traces = np.abs(np.trace(stack, axis1=1, axis2=2))
    if np.max(np.abs(gram - np.eye(len(stack)))) > 1e-9 or np.max(traces) > 1e-9 * d:
        return Verdict(True, "observables are not an orthonormal traceless set")
    return Verdict(True)


def _signature(query: Query, report) -> Verdict:
    return _equal(query, bool(report.passed))


def _group(query: Query, group) -> Verdict:
    return _equal(query, len(group))


def _trace(query: Query, projection) -> Verdict:
    dim = float(np.trace(projection))
    if abs(dim - query.label) > 1e-8:
        return Verdict(True, f"fixed space has dimension {dim!r}, expected {query.label}")
    return Verdict(True)


def _star(query: Query, verdict) -> Verdict:
    if verdict.certified != query.label:
        return Verdict(True, f"certified={verdict.certified}, expected {query.label}")
    if verdict.certified and verdict.route != "star-subalgebra":
        return Verdict(True, f"certified through {verdict.route!r}, expected star-subalgebra")
    return Verdict(True)


def _cli_doc(result) -> tuple[dict | None, str | None]:
    code, text = result
    if code != 0:
        return None, f"exit code {code}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _cli_construct(query: Query, result) -> Verdict:
    doc, error = _cli_doc(result)
    if error:
        return Verdict(False, error)
    for key, expected in query.label.items():
        if doc.get(key) != expected:
            return Verdict(True, f"{key}={doc.get(key)!r}, expected {expected}")
    if not doc.get("signature_check", {}).get("passed"):
        return Verdict(True, "signature check did not pass")
    return Verdict(True)


def _cli_rdm(query: Query, result) -> Verdict:
    doc, error = _cli_doc(result)
    if error:
        return Verdict(False, error)
    if doc.get("uda") != query.label:
        return Verdict(True, f"uda={doc.get('uda')!r}, expected {query.label!r}")
    # The document must describe the system its verdict was decided on.
    full_rank = doc.get("rank") == doc.get("system_shape", [None, None])[1]
    if doc["uda"] != full_rank:
        d1, d2, d3 = query.facts["dims"]
        known = "rdm-check-unswapped-report" if d3 > d2 else None
        return Verdict(True, f"uda={doc['uda']} but rank {doc.get('rank')} of system "
                             f"{doc.get('system_shape')}", known)
    return Verdict(True)


def _cli_symmetry(query: Query, result) -> Verdict:
    doc, error = _cli_doc(result)
    if error:
        return Verdict(False, error)
    got = (doc.get("star_algebra"), doc.get("certificate", {}).get("certified"),
           doc.get("bicommutant_identity"))
    if got != (query.label, query.label, True):
        return Verdict(True, f"star_algebra, certified, bicommutant = {got}")
    return Verdict(True)


CHECKS = {
    "outcome": _outcome,
    "scan": _scan,
    "sweep": _sweep,
    "equal": _equal,
    "count": _count,
    "signature": _signature,
    "group": _group,
    "trace": _trace,
    "star": _star,
    "cli-construct": _cli_construct,
    "cli-rdm": _cli_rdm,
    "cli-symmetry": _cli_symmetry,
}


def check(query: Query, result) -> Verdict:
    return CHECKS[query.check](query, result)
