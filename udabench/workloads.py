"""Workload inputs: one list of udalab queries per round, each with its ground truth.

Every input is a pure function of (workload, seed, round).  The arrays are
made here with plain numpy from the construction that fixes their label:
a state that is unique by theorem, a state with a second preimage built in,
a rank-deficient GHZ-phase system, a group of known order.  udalab receives
only the generated arrays and the ``FeasibilityConfig`` values derived from
the seed.  The one exception is ``setup``, which builds the shared ``5d-7``
observable sets with ``udalab.uda_observables`` because the program's own
construction is what the certify-unique queries exercise.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import udalab
from udalab import FeasibilityConfig, matio, rdm, symmetry

UNIQUE = "unique"
NOT_UNIQUE = "not-unique"

# Engine settings: the criterion-07 and criterion-12 configurations, so the
# capped-Dykstra geometry the ROADMAP baseline describes is what gets timed.
STAR_CFG = {"restarts": 3, "max_iterations": 1500}
UDA_CFG = {"restarts": 5, "max_iterations": 1500}
UDP_CFG = {"restarts": 10, "max_iterations": 400}
FALSIFY_UDA_CFG = {"restarts": 3, "max_iterations": 2000}
FALSIFY_UDP_CFG = {"restarts": 5, "max_iterations": 400}
SCAN_CFG = {"restarts": 3, "max_iterations": 1500}
SCAN_TRIALS = 4
SCAN_ANGLES = 32
SWEEP_ANGLES = 64
SWEEP_REFINE_GAP = 0.05
GAP_TWINS_D5 = 16

# Distinct rounds per workload.  Round r takes the inputs of round
# r % POOL_ROUNDS, so every input runs several times in one run, a pass of
# the pool apart, and a query's time is the mean over its runs (see
# worker.py).  Each pool is sized so that a 28-second run repeats every
# input three to four times; a range-scan round takes 3-4 s, so its pool is
# one round and each scan runs six to eight times.  Fresh queries take new
# inputs every round.
POOL_ROUNDS = {"certify-unique": 4, "falsify": 10, "range-scan": 1, "exact": 5}


@dataclass
class Query:
    """One call to a public udalab function plus what the answer must be.

    ``call`` is ``"<module>.<attribute path>"`` under ``udalab``; ``check``
    names the verdict checker in :mod:`checks`.  ``tag`` separates span
    names for one function used in several ways (the CLI subcommands).
    """

    name: str
    call: str
    args: tuple
    label: Any
    check: str
    kwargs: dict = field(default_factory=dict)
    tag: str = ""
    facts: dict = field(default_factory=dict)
    fresh: bool = False

    @property
    def span(self) -> str:
        return f"{self.call}:{self.tag}" if self.tag else self.call


def round_rng(workload: str, seed: int, round_index: int | None,
              fresh: bool = False) -> np.random.Generator:
    """Generator for one round's inputs; ``None`` gives the set-up stream.

    Pooled and fresh inputs of a round come from two separate streams.
    """
    stream = [] if round_index is None else [int(round_index)]
    kind = 2 if fresh else len(stream)
    return np.random.default_rng([zlib.crc32(workload.encode()), int(seed), kind, *stream])


def _cfg(rng: np.random.Generator, settings: dict) -> FeasibilityConfig:
    return FeasibilityConfig(seed=int(rng.integers(2 ** 31)), **settings)


# --- plain-numpy generators -------------------------------------------------

def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return vec / np.linalg.norm(vec)


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def conjugate(u: np.ndarray, mats: np.ndarray) -> np.ndarray:
    return np.einsum("ab,kbc,dc->kad", u, mats, u.conj())


def hermitian_basis(d: int) -> np.ndarray:
    """Hilbert-Schmidt orthonormal basis of the d x d Hermitian matrices."""
    out = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        out.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            re = np.zeros((d, d), dtype=complex)
            re[i, j] = re[j, i] = 1 / np.sqrt(2)
            im = np.zeros((d, d), dtype=complex)
            im[i, j], im[j, i] = -1j / np.sqrt(2), 1j / np.sqrt(2)
            out += [re, im]
    return np.array(out)


def hermitian_complement(mats: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random orthonormal basis of the Hermitians orthogonal to ``mats``."""
    d = mats.shape[1]
    basis = hermitian_basis(d)
    coords = np.real(np.einsum("kab,mba->mk", basis, mats))
    q_fixed, _ = np.linalg.qr(coords.T)
    gauss = rng.standard_normal((d * d, d * d - len(mats)))
    gauss -= q_fixed @ (q_fixed.T @ gauss)
    q_free, _ = np.linalg.qr(gauss)
    return np.tensordot(q_free.T, basis, axes=1)


def gap_instance(d: int, rng: np.random.Generator) -> dict:
    """Pure state, mixed twin and observables from an isolated-sign direction.

    ``v`` is traceless with d-1 positive eigenvalues and one negative
    eigenvalue ``mu``; the observables span the Hermitians orthogonal to
    ``I`` and ``v``.  Its eigenvector ``phi`` for ``mu`` is unique among
    pure states, while ``phi phi^dag - v / mu`` is a PSD twin with the same
    measurements, so ``phi`` is not unique among all states.
    """
    frame = random_unitary(d, rng)
    positives = rng.uniform(0.2, 1.0, size=d - 1)
    values = np.concatenate([positives, [-positives.sum()]])
    values /= np.linalg.norm(values)
    v = (frame * values) @ frame.conj().T
    v = (v + v.conj().T) / 2
    phi = frame[:, -1]
    twin = np.outer(phi, phi.conj()) - v / values[-1]
    obs = hermitian_complement(np.array([np.eye(d, dtype=complex), v]), rng)
    return {"phi": phi, "twin": twin, "observables": obs}


def diagonal_units(d: int) -> np.ndarray:
    out = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        out[i, i, i] = 1.0
    return out


def block_basis() -> np.ndarray:
    """Hermitian basis of the 2+2 block-diagonal algebra in M_4."""
    out = []
    for offset in (0, 2):
        sub = hermitian_basis(2)
        for m in sub:
            full = np.zeros((4, 4), dtype=complex)
            full[offset:offset + 2, offset:offset + 2] = m
            out.append(full)
    return np.array(out)


def tripartite(dims, rng: np.random.Generator) -> np.ndarray:
    c = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return c / np.linalg.norm(c)


def ghz_tensor(rng: np.random.Generator) -> np.ndarray:
    """a|000> + b e^{i theta}|111>: every phase gives the same marginals."""
    angle = rng.uniform(0.2, np.pi / 2 - 0.2)
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = np.cos(angle)
    c[1, 1, 1] = np.sin(angle) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return c


def weyl_generators(d: int, u: np.ndarray) -> list[np.ndarray]:
    """Clock and shift, conjugated by ``u``: projectively Z_d x Z_d, order d^2."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [u @ shift @ u.conj().T, u @ clock @ u.conj().T]


def symmetric_generators(d: int, u: np.ndarray) -> list[np.ndarray]:
    """A transposition and a d-cycle, conjugated by ``u``: the group S_d."""
    swap = np.eye(d, dtype=complex)[[1, 0] + list(range(2, d))]
    cycle = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    return [u @ swap @ u.conj().T, u @ cycle @ u.conj().T]


def observable_count(d: int, q: int) -> int:
    return (4 * q + 1) * d - (4 * q * q + 2 * q + 1)


def family_count(d: int, q: int) -> int:
    return d * d - (4 * q + 1) * d + (4 * q * q + 2 * q)


# --- set-up: shared objects and input files -----------------------------------

@dataclass
class Shared:
    workload: str
    seed: int
    observable_sets: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)


def setup(workload: str, seed: int, scratch: Path) -> Shared:
    """Build what many queries reuse; write the CLI input files of ``exact``."""
    shared = Shared(workload=workload, seed=seed)
    if workload == "certify-unique":
        shared.observable_sets = {d: udalab.uda_observables(d, 1) for d in (4, 5)}
    elif workload == "exact":
        shared.observable_sets = {4: udalab.uda_observables(4, 1)}
        rng = round_rng(workload, seed, None)
        folder = scratch / "inputs" / f"{workload}-seed{seed}"
        folder.mkdir(parents=True, exist_ok=True)
        for dims in ((2, 2, 3), (3, 2, 2)):
            path = folder / ("state-" + "".join(map(str, dims)) + ".json")
            matio.write_json(str(path), matio.tensor_to_json(dims, tripartite(dims, rng)))
            shared.files[dims] = str(path)
        path = folder / "mixed-422.json"
        matio.write_json(str(path), matio.matrix_to_json(random_density(16, 2, rng)))
        shared.files["mixed"] = str(path)
        path = folder / "observables-block.json"
        closed = conjugate(random_unitary(4, rng), block_basis())
        matio.write_json(str(path), matio.observables_to_json(closed))
        shared.files["closed"] = str(path)
    return shared


# --- one round of queries per workload ------------------------------------------

def _certify_unique(shared: Shared, rng: np.random.Generator,
                    fresh: np.random.Generator) -> list[Query]:
    queries = []
    for d in (4, 5):
        obs = shared.observable_sets[d]
        psi = random_pure(d, rng)
        queries.append(Query(f"uda-structural-d{d}", "certify.uda_certify",
                             (psi, obs, _cfg(rng, UDA_CFG)), UNIQUE, "outcome"))
        queries.append(Query(f"uda-5d7-stack-d{d}", "certify.uda_certify",
                             (psi, np.array(obs.matrices), _cfg(rng, UDA_CFG)), UNIQUE, "outcome"))
    # Twice over, so that these capped runs are the majority of a round and
    # both the median and the tail fall inside one kind of query.
    for _ in range(2):
        for d in range(3, 8):
            u = random_unitary(d, rng)
            psi = u[:, int(rng.integers(d))]
            queries.append(Query(f"uda-diagonal-d{d}", "certify.uda_certify",
                                 (psi, conjugate(u, diagonal_units(d)), _cfg(rng, STAR_CFG)),
                                 UNIQUE, "outcome", kwargs={"use_structural": False}))
        u = random_unitary(4, rng)
        local = np.zeros(4, dtype=complex)
        block = 2 * int(rng.integers(2))
        local[block:block + 2] = random_pure(2, rng)
        queries.append(Query("uda-block-2+2", "certify.uda_certify",
                             (u @ local, conjugate(u, block_basis()), _cfg(rng, STAR_CFG)),
                             UNIQUE, "outcome", kwargs={"use_structural": False}))
    for d in (3, 4, 5):
        inst = gap_instance(d, rng)
        queries.append(Query(f"udp-gap-d{d}", "certify.udp_certify",
                             (inst["phi"], inst["observables"], _cfg(rng, UDP_CFG)),
                             UNIQUE, "outcome", facts={"twin": inst["twin"]}))
    return queries


def _falsify(shared: Shared, rng: np.random.Generator,
             fresh: np.random.Generator) -> list[Query]:
    queries = []
    # The few-observable queries cost anywhere from 1 to 400 ms, depending
    # on the input; they take fresh inputs every round so that a run sees
    # hundreds of them.
    for d in (3, 4, 5, 6):
        # 2d-3 < 2d-2 observables: the pure-state fibre through psi has
        # positive dimension, so neither UDP nor UDA can hold.
        obs = np.array([random_hermitian(d, fresh) for _ in range(2 * d - 3)])
        psi = random_pure(d, fresh)
        queries.append(Query(f"uda-few-d{d}", "certify.uda_certify",
                             (psi, obs, _cfg(fresh, FALSIFY_UDA_CFG)), NOT_UNIQUE, "outcome",
                             fresh=True))
        queries.append(Query(f"udp-few-d{d}", "certify.udp_certify",
                             (psi, obs, _cfg(fresh, FALSIFY_UDP_CFG)), NOT_UNIQUE, "outcome",
                             fresh=True))
    # A gap twin costs the same for every input of one d.  The d=5 twins
    # are the majority of a round, so that the median falls among them.
    for d in (3, 4) + (5,) * GAP_TWINS_D5 + (6,):
        inst = gap_instance(d, rng)
        queries.append(Query(f"uda-gap-twin-d{d}", "certify.uda_certify",
                             (inst["phi"], inst["observables"], _cfg(rng, FALSIFY_UDA_CFG)),
                             NOT_UNIQUE, "outcome", facts={"twin": inst["twin"]}))
    return queries


def _range_scan(shared: Shared, rng: np.random.Generator,
                fresh: np.random.Generator) -> list[Query]:
    # One d=3 pair and three d=4 pairs: the d=4 scans are the majority of a
    # round, so the median and the tail both fall among them.
    pairs = [(d, random_hermitian(d, rng), random_hermitian(d, rng)) for d in (3, 4, 4, 4)]
    queries = []
    for d, a1, a2 in pairs:
        queries.append(Query(
            f"scan-d{d}", "numrange.uniqueness_consistency_scan", (a1, a2),
            "consistent", "scan",
            kwargs={"trials": SCAN_TRIALS, "seed": int(rng.integers(2 ** 31)),
                    "angles": SCAN_ANGLES, "cfg": _cfg(rng, SCAN_CFG)}))
    _, a1, a2 = pairs[0]
    queries.append(Query("sweep-d3", "numrange.boundary_sweep", (a1, a2), "boundary", "sweep",
                         kwargs={"angles": SWEEP_ANGLES, "refine_gap": SWEEP_REFINE_GAP}))
    return queries


RANK_DIMS = ((2, 2, 2), (3, 2, 2), (2, 2, 3), (3, 3, 3), (4, 2, 2), (3, 2, 4), (5, 3, 3), (8, 4, 4))
MIXED_CASES = (((4, 2, 2), 2), ((6, 2, 2), 3))
CONSTRUCTION_CASES = ((12, 1), (14, 2), (16, 3))


def _exact(shared: Shared, rng: np.random.Generator,
           fresh: np.random.Generator) -> list[Query]:
    queries = []
    for d, q in CONSTRUCTION_CASES:
        queries.append(Query(f"uda-observables-d{d}-q{q}", "construction.uda_observables", (d, q),
                             observable_count(d, q), "count"))
        queries.append(Query(f"signature-d{d}-q{q}", "construction.family_signature_check",
                             (udalab.complement_family(d, q),), True, "signature",
                             kwargs={"samples": 100, "seed": int(rng.integers(2 ** 31))}))
    for dims in RANK_DIMS:
        state = rdm.TripartiteState(dims=dims, c=tripartite(dims, rng))
        queries.append(Query("rank-" + "".join(map(str, dims)), "rdm.uda_rank_test", (state,),
                             True, "equal", facts={"dims": dims}))
    for k in range(2):
        state = rdm.TripartiteState(dims=(2, 2, 2), c=ghz_tensor(rng))
        queries.append(Query(f"rank-ghz-phase-{k}", "rdm.uda_rank_test", (state,), False, "equal",
                             facts={"dims": (2, 2, 2)}))
    for dims, rank in MIXED_CASES:
        rho = random_density(int(np.prod(dims)), rank, rng)
        queries.append(Query("mixed-rank-" + "".join(map(str, dims)), "rdm.mixed_uda_rank_test",
                             (rho, dims, rank), True, "equal", facts={"dims": dims, "rank": rank}))

    def elements(gens):
        return [symmetry.SymmetryElement(unitary=g) for g in gens]

    for name, gens, order in (
            ("weyl-d3", weyl_generators(3, random_unitary(3, rng)), 9),
            ("weyl-d4", weyl_generators(4, random_unitary(4, rng)), 16),
            ("symmetric-d4", symmetric_generators(4, random_unitary(4, rng)), 24)):
        queries.append(Query(f"group-{name}", "symmetry.SymmetryGroup.generate", (elements(gens),),
                             order, "group"))
    # Averaging queries take small groups built here, outside the timed call.
    shift = symmetry.SymmetryGroup.generate(elements(weyl_generators(4, random_unitary(4, rng))[:1]))
    weyl = symmetry.SymmetryGroup.generate(elements(weyl_generators(3, random_unitary(3, rng))))
    queries.append(Query("average-shift-d4", "symmetry.average_projection", (shift,), 4, "trace"))
    queries.append(Query("average-weyl-d3", "symmetry.average_projection", (weyl,), 1, "trace"))

    closed_diag = conjugate(random_unitary(5, rng), diagonal_units(5))
    closed_block = conjugate(random_unitary(4, rng), block_basis())
    open_pair = np.array([random_hermitian(3, rng) for _ in range(2)])
    open_5d7 = conjugate(random_unitary(4, rng), shared.observable_sets[4].matrices)
    for name, mats, closed in (("diagonal-d5", closed_diag, True), ("block-2+2", closed_block, True),
                               ("random-pair-d3", open_pair, False), ("5d7-d4", open_5d7, False)):
        queries.append(Query(f"star-{name}", "symmetry.udp_implies_uda_via_symmetry", (mats,),
                             closed, "star"))
    for name, mats in (("diagonal-d5", closed_diag), ("random-pair-d3", open_pair),
                       ("5d7-d4", open_5d7)):
        queries.append(Query(f"bicommutant-{name}", "symmetry.bicommutant_check", (mats,),
                             True, "equal"))

    files = shared.files
    queries.append(Query("cli-construct-d8", "cli.dispatch",
                         (["construct", "--d", "8", "--q", "1", "--verify-samples", "50",
                           "--seed", str(int(rng.integers(2 ** 31)))],),
                         {"observable_count": observable_count(8, 1),
                          "family_count": family_count(8, 1)}, "cli-construct", tag="construct"))
    for dims in ((2, 2, 3), (3, 2, 2)):
        queries.append(Query("cli-rdm-check-" + "".join(map(str, dims)), "cli.dispatch",
                             (["rdm-check", "--dims", ",".join(map(str, dims)),
                               "--state", files[dims]],),
                             True, "cli-rdm", tag="rdm-check", facts={"dims": dims}))
    queries.append(Query("cli-rdm-check-mixed-422", "cli.dispatch",
                         (["rdm-check", "--dims", "4,2,2", "--mixed", files["mixed"],
                           "--rank", "2"],),
                         True, "cli-rdm", tag="rdm-check", facts={"dims": (4, 2, 2)}))
    queries.append(Query("cli-symmetry-block", "cli.dispatch",
                         (["symmetry", "--observables", files["closed"], "--check-algebra"],),
                         True, "cli-symmetry", tag="symmetry"))
    return queries


ROUNDS: dict[str, Callable[[Shared, np.random.Generator, np.random.Generator], list[Query]]] = {
    "certify-unique": _certify_unique,
    "falsify": _falsify,
    "range-scan": _range_scan,
    "exact": _exact,
}
WORKLOADS = tuple(ROUNDS)


def round_queries(shared: Shared, round_index: int) -> list[Query]:
    """The queries of one round; a pure function of (workload, seed, round).

    Pooled inputs depend on the round only modulo the workload's pool.
    """
    pooled = round_rng(shared.workload, shared.seed, round_index % POOL_ROUNDS[shared.workload])
    fresh = round_rng(shared.workload, shared.seed, round_index, fresh=True)
    return ROUNDS[shared.workload](shared, pooled, fresh)
