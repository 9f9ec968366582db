"""Command-line front end.

Subcommands: construct, certify-uda, certify-udp, numrange, rdm-check,
symmetry, demo, reproduce.  All outputs are deterministic JSON (17
significant digits) or CSV; every JSON document embeds the module name and
the effective configuration.  The environment variable ``UDA_LAB_SEED``
overrides the default seed of 0.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import acceptance, construction, matio, numrange, rdm, symmetry
from .certify import FeasibilityConfig, measure, uda_certify, udp_certify
from .rdm import TripartiteState


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _default_seed() -> int:
    return int(os.environ.get("UDA_LAB_SEED", "0"))


def _provenance(command: str, module: str, config: dict) -> dict:
    return {"command": command, "module": module, "config": config}


def _write_or_print(doc: dict, path: str | None) -> None:
    if path:
        matio.write_json(path, doc)
    else:
        sys.stdout.write(matio.dumps(doc) + "\n")


def _outcome_doc(outcome, extra: dict) -> dict:
    doc = dict(extra)
    doc["verdict"] = outcome.verdict
    if outcome.witness is not None:
        witness = np.asarray(outcome.witness)
        key = "witness_state" if witness.ndim == 1 else "witness_density"
        doc[key] = matio.matrix_to_json(witness)
    doc["evidence"] = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
                       for k, v in outcome.evidence.items()}
    return doc


def cmd_construct(args) -> int:
    family = construction.complement_family(args.d, args.q)
    observables = construction.uda_observables(args.d, args.q)
    config = {"d": args.d, "q": args.q, "seed": args.seed}
    if args.out:
        fam_path, obs_path = args.out
        matio.write_json(fam_path, {
            **_provenance("construct", "observable-construction", config),
            "count": len(family),
            "lines": [[k, kind] for k, kind in family.lines],
            **matio.observables_to_json(family.matrices),
        })
        matio.write_json(obs_path, {
            **_provenance("construct", "observable-construction", config),
            "count": len(observables),
            **matio.observables_to_json(observables.matrices),
        })
    summary = {
        **_provenance("construct", "observable-construction",
                      {**config, "verify_samples": args.verify_samples}),
        "family_count": len(family),
        "observable_count": len(observables),
    }
    if args.verify_samples and len(family):
        report = construction.family_signature_check(
            family, samples=args.verify_samples, seed=args.seed)
        summary["signature_check"] = {
            "samples": report.samples,
            "min_n_plus": report.min_n_plus,
            "min_n_minus": report.min_n_minus,
            "worst_margin": report.worst_margin,
            "passed": report.passed,
        }
        if not report.passed:
            _write_or_print(summary, None)
            return 2
    _write_or_print(summary, None)
    return 0


def cmd_certify(args, mode: str) -> int:
    psi = matio.load_vector(args.state)
    stack = matio.load_observables(args.observables)
    cfg = FeasibilityConfig(restarts=args.restarts, seed=args.seed)
    outcome = uda_certify(psi, stack, cfg) if mode == "uda" else udp_certify(psi, stack, cfg)
    doc = _outcome_doc(outcome, _provenance(
        f"certify-{mode}", "uniqueness-certifier",
        {"state": args.state, "observables": args.observables,
         "restarts": args.restarts, "seed": args.seed}))
    doc["measurements"] = measure(stack, psi).tolist()
    _write_or_print(doc, args.json)
    return 0


def _demo_body(demo: str, seed: int) -> dict:
    """Keys of a range-geometry demo document, shared by ``numrange --demo`` and ``demo``."""
    if demo == "qutrit":
        record = numrange.qutrit_counterexample(seed=seed)
        return {
            "target": record.target.tolist(),
            "pure_state": matio.vector_to_json(record.pure_state),
            "pure_measurement": record.pure_measurement.tolist(),
            "mixed_witness": matio.matrix_to_json(record.mixed_witness),
            "witness_measurement": record.witness_measurement.tolist(),
            "udp_verdict": record.udp_outcome.verdict,
            "ball_realization_error": record.ball_realization_error,
            "passed": record.passed,
        }
    record = numrange.bloch_nonconvexity_demo(seed=seed)
    return {
        "image_zero": record.image_zero.tolist(),
        "image_one": record.image_one.tolist(),
        "midpoint": record.midpoint.tolist(),
        "min_pure_distance": record.min_pure_distance,
        "mixed_reaches_midpoint": record.mixed_reaches_midpoint,
        "passed": record.passed,
    }


def cmd_numrange(args) -> int:
    if args.demo:
        _write_or_print({
            **_provenance("numrange", "numerical-range", {"demo": args.demo, "seed": args.seed}),
            **_demo_body(args.demo, args.seed),
        }, None)
        return 0
    if not (args.a1 and args.a2):
        sys.stderr.write("error: --a1 and --a2 are required without --demo\n")
        return 1
    a1 = matio.load_matrix(args.a1)
    a2 = matio.load_matrix(args.a2)
    planar = numrange.boundary_sweep(a1, a2, args.angles)
    if args.csv:
        planar.write_csv(args.csv)
    doc = {
        **_provenance("numrange", "numerical-range",
                      {"a1": args.a1, "a2": args.a2, "angles": args.angles,
                       "seed": args.seed}),
        "points": len(planar),
        "degenerate_points": int(np.sum(planar.degeneracy > 1)),
        "csv": args.csv,
    }
    _write_or_print(doc, None)
    return 0


def cmd_rdm_check(args) -> int:
    if args.demo == "ghz":
        report = rdm.ghz_family_check(args.a, args.b, [np.pi / 4, np.pi / 2, np.pi])
        doc = {
            **_provenance("rdm-check", "rdm-uniqueness",
                          {"demo": "ghz", "a": args.a, "b": args.b}),
            "thetas": list(report.thetas),
            "max_rdm_difference": report.max_rdm_difference,
            "projector_distances": list(report.projector_distances),
        }
        _write_or_print(doc, None)
        return 0
    if not args.dims or not (args.state or args.mixed):
        sys.stderr.write("error: --dims plus --state or --mixed are required without --demo\n")
        return 1
    dims = tuple(int(x) for x in args.dims.split(","))
    if args.mixed:
        decision = rdm.mixed_marginal_rank(matio.load_matrix(args.mixed), dims,
                                           rank_bound=args.rank)
        config = {"dims": list(dims), "mixed": args.mixed, "rank": args.rank}
    else:
        _, tensor = matio.load_tensor(args.state)
        decision = rdm.marginal_rank(TripartiteState(dims=dims, c=tensor.reshape(dims)))
        config = {"dims": list(dims), "state": args.state}
    doc = {
        **_provenance("rdm-check", "rdm-uniqueness", config),
        "system_shape": list(decision.system.matrix.shape),
        "rank": decision.rank,
        "uda": decision.unique,
        "generic": decision.system.generic,
    }
    _write_or_print(doc, None)
    return 0


def cmd_symmetry(args) -> int:
    stack = matio.load_observables(args.observables)
    star = symmetry.is_star_algebra(stack)
    algebra = symmetry.generated_algebra(stack)
    comm = symmetry.commutant(stack)
    verdict = symmetry.symmetry_verdict(stack.shape[1], star, comm)
    doc = {
        **_provenance("symmetry", "symmetry-analysis",
                      {"observables": args.observables,
                       "check_algebra": args.check_algebra,
                       "fixed_dims": args.fixed_dims}),
        "star_algebra": star,
        "generated_dim": int(algebra.shape[0]),
        "commutant_dim": int(comm.shape[0]),
        "certificate": {"certified": verdict.certified, "route": verdict.route},
    }
    if args.check_algebra:
        doc["bicommutant_identity"] = symmetry.bicommutant_equal(comm, algebra)
    if args.fixed_dims:
        doc["fixed_dims"] = symmetry.realizable_fixed_dims(args.fixed_dims)
    _write_or_print(doc, None)
    return 0


def cmd_demo(args) -> int:
    doc = _provenance("demo", "numerical-range", {"name": args.name, "seed": args.seed})
    if args.name == "qutrit-gap":
        doc["observable_count"] = 3
    doc.update(_demo_body("qutrit" if args.name == "qutrit-gap" else "bloch", args.seed))
    _write_or_print(doc, None)
    return 0


def cmd_reproduce(args) -> int:
    indices = None
    if args.suite != "all":
        indices = [int(x) for x in args.suite.split(",")]
    results = acceptance.run_all(seed=args.seed, indices=indices)
    for result in results:
        sys.stdout.write(result.line() + "\n")
    failed = [r for r in results if not r.passed]
    doc = {
        **_provenance("reproduce", "cli", {"suite": args.suite, "seed": args.seed}),
        "results": [{"index": r.index, "name": r.name, "passed": r.passed,
                     "seconds": r.seconds} for r in results],
        "all_passed": not failed,
    }
    if args.json:
        matio.write_json(args.json, doc)
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="udalab",
                     description="uniqueness certificates for quantum measurement data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a line-matrix family and its observables")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--out", nargs=2, metavar=("FAMILY", "OBSERVABLES"))
    p.add_argument("--verify-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=_default_seed())

    for mode in ("uda", "udp"):
        p = sub.add_parser(f"certify-{mode}", help=f"run the {mode.upper()} certifier")
        p.add_argument("--state", required=True)
        p.add_argument("--observables", required=True)
        p.add_argument("--restarts", type=int, default=20 if mode == "uda" else 50)
        p.add_argument("--seed", type=int, default=_default_seed())
        p.add_argument("--json", help="write the verdict document here")

    p = sub.add_parser("numrange", help="planar numerical range sweep or demos")
    p.add_argument("--a1")
    p.add_argument("--a2")
    p.add_argument("--angles", type=int, default=720)
    p.add_argument("--csv")
    p.add_argument("--demo", choices=["qutrit", "bloch"])
    p.add_argument("--seed", type=int, default=_default_seed())

    p = sub.add_parser("rdm-check", help="marginal-uniqueness rank certificates")
    p.add_argument("--dims")
    p.add_argument("--state")
    p.add_argument("--mixed")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--demo", choices=["ghz"])
    p.add_argument("--a", type=float, default=1 / np.sqrt(2))
    p.add_argument("--b", type=float, default=1 / np.sqrt(2))

    p = sub.add_parser("symmetry", help="algebraic certificates from observable spans")
    p.add_argument("--observables", required=True)
    p.add_argument("--check-algebra", action="store_true")
    p.add_argument("--fixed-dims", type=int)

    p = sub.add_parser("demo", help="packaged demonstrations")
    p.add_argument("name", choices=["qutrit-gap", "bloch-nonconvexity"])
    p.add_argument("--seed", type=int, default=_default_seed())

    p = sub.add_parser("reproduce", help="run the acceptance criteria")
    p.add_argument("--suite", default="all",
                   help="'all' or a comma-separated list of criterion indices")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--json", help="write a machine-readable summary here")
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "construct": cmd_construct,
        "certify-uda": lambda a: cmd_certify(a, "uda"),
        "certify-udp": lambda a: cmd_certify(a, "udp"),
        "numrange": cmd_numrange,
        "rdm-check": cmd_rdm_check,
        "symmetry": cmd_symmetry,
        "demo": cmd_demo,
        "reproduce": cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
