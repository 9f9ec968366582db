#!/usr/bin/env python3
"""Paired benchmark of this checkout against a base commit, written to one JSON file.

Usage, from the root of a checkout:

    python3 scripts/bench_pair.py --base HEAD --out BENCH_6.json

The base commit is exported with ``git archive`` into a temporary directory,
so nothing is added to the repository's worktrees; the other side is this
checkout as it stands, uncommitted edits included.  Three phases run, one
process at a time, and the file is rewritten after each:

1. ``parity``: every query of the engine workloads (one pass through each
   workload's pool of rounds) runs on both sides, for each seed; a query
   matches when its verdict, route, winning restart, reported iterations and
   the iteration counts of every Dykstra call it made are equal.
2. ``suite``: the tier-1 suite and ``udalab reproduce --suite all`` run on
   both sides; each acceptance criterion's seconds come from
   ``reproduce --json``.
3. ``udabench``: ``udabench/run.py --trace 0`` runs ``PAIRS`` times per
   workload and seed on each side, for the ``run_seconds`` that
   ``BENCHMARK.json`` sets, alternating which side runs first.  The summary
   gives each side's median and quartiles per end-to-end metric and the
   number of pairs the change won (ties count for neither side).

Nothing under ``udabench/`` is changed and no dependency beyond the
repository's own is needed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE_WORKLOADS = ("certify-unique", "falsify", "range-scan")
ALL_WORKLOADS = ENGINE_WORKLOADS + ("exact",)
SIDES = ("parent", "change")
SEEDS = (0, 1, 2)
PAIRS = 4  # per workload and seed: 12 pairs over the three seeds


def export_base(base: str, into: Path) -> str:
    """Unpack ``git archive <base>`` into ``into``; return the full commit id."""
    sha = subprocess.run(["git", "rev-parse", base], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {base} failed")
    return sha


def env_for(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


# --- phase 1: verdict parity --------------------------------------------------

def parity_worker(root: Path, workload: str, seed: int) -> None:
    """Run one pass of a workload's pool in ``root`` and print one record per query."""
    sys.path[:0] = [str(root / "src"), str(root / "udabench")]
    import workloads
    from udalab import certify, numrange

    calls: list[int] = []
    engine = certify._dykstra

    def recorded(starts, affine, cfg):
        run = engine(starts, affine, cfg)
        calls.append(int(run["iterations"]))
        return run

    certify._dykstra = numrange._dykstra = recorded
    with tempfile.TemporaryDirectory() as tmp:
        shared = workloads.setup(workload, seed, Path(tmp))
        for r in range(workloads.POOL_ROUNDS[workload]):
            for query in workloads.round_queries(shared, r):
                module, *path = query.call.split(".")
                fn = functools.reduce(getattr, path, importlib.import_module(f"udalab.{module}"))
                calls.clear()
                result = fn(*query.args, **query.kwargs)
                record = {"round": r, "query": query.name, "dykstra_iterations": list(calls)}
                if isinstance(result, certify.CertificateOutcome):
                    ev = result.evidence
                    record.update(verdict=result.verdict, route=ev.get("route"),
                                  restart=ev.get("restart"), iterations=ev.get("iterations"))
                elif isinstance(result, numrange.ConsistencyReport):
                    record.update(passed=result.passed, boundary_checked=result.boundary_checked,
                                  boundary_uda_falsified=result.boundary_uda_falsified,
                                  interior_checked=result.interior_checked,
                                  interior_udp_falsified=result.interior_udp_falsified,
                                  hard_failures=result.hard_failures)
                else:
                    record["size"] = len(result)
                print(json.dumps(record))


def parity_records(root: Path, workload: str, seed: int) -> list[dict]:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--parity-worker",
                           str(root), workload, str(seed)],
                          cwd=root, env=env_for(root), capture_output=True, text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def parity(roots: dict, seed: int) -> dict:
    out = {}
    for workload in ENGINE_WORKLOADS:
        parent, change = (parity_records(roots[side], workload, seed) for side in SIDES)
        mismatches = [{"parent": a, "change": b} for a, b in zip(parent, change) if a != b]
        if len(parent) != len(change):
            mismatches.append({"parent_queries": len(parent), "change_queries": len(change)})
        out[workload] = {"queries": len(parent),
                         "matched": sum(a == b for a, b in zip(parent, change)),
                         "mismatches": mismatches}
        print(f"parity seed {seed} {workload}: {out[workload]['matched']}/{len(parent)} match", flush=True)
    return out


# --- phase 2: tier-1 and acceptance criteria -----------------------------------

def suite(root: Path) -> dict:
    began = time.monotonic()
    tier1 = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors"],
                           cwd=root, env=env_for(root), capture_output=True, text=True)
    tier1_s = time.monotonic() - began
    lines = tier1.stdout.strip().splitlines()
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "reproduce.json"
        began = time.monotonic()
        repro = subprocess.run([sys.executable, "-m", "udalab.cli", "reproduce", "--suite", "all",
                                "--seed", "0", "--json", str(report)],
                               cwd=root, env=env_for(root), capture_output=True, text=True)
        reproduce_s = time.monotonic() - began
        results = json.loads(report.read_text())["results"] if report.exists() else []
    criteria = {f"{r['index']:02d} {r['name']}": {"passed": r["passed"], "seconds": r["seconds"]}
                for r in results}
    return {"tier1_s": tier1_s, "tier1_summary": lines[-1] if lines else "",
            "tier1_exit": tier1.returncode, "reproduce_s": reproduce_s,
            "reproduce_exit": repro.returncode, "criteria": criteria}


# --- phase 3: udabench pairs -----------------------------------------------------

def udabench_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, "udabench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list[dict], better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs
                 if name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
        if not pairs:
            continue
        sign = 1 if direction == "higher" else -1
        out[name] = {"parent": quartiles([p for p, _ in pairs]),
                     "change": quartiles([c for _, c in pairs]),
                     "wins": sum(sign * (c - p) > 0 for p, c in pairs),
                     "losses": sum(sign * (c - p) < 0 for p, c in pairs),
                     "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", default="HEAD", help="commit to compare against")
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--parity-worker", nargs=3, metavar=("ROOT", "WORKLOAD", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.parity_worker:
        root, workload, seed = args.parity_worker
        parity_worker(Path(root), workload, int(seed))
        return 0
    if not args.out:
        parser.error("--out is required")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    out = Path(args.out)
    base_dir = Path(tempfile.mkdtemp(prefix="bench-pair-"))
    try:
        sha = export_base(args.base, base_dir)
        roots = {"parent": base_dir, "change": ROOT}
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
        doc = {"base": sha, "change": f"working tree of {head}",
               "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                        "python": platform.python_version(),
                        "numpy": importlib.import_module("numpy").__version__},
               "settings": {"workloads": ALL_WORKLOADS, "seeds": SEEDS, "pairs": PAIRS,
                            "seconds": seconds}}

        def save():
            out.write_text(json.dumps(doc, indent=1) + "\n")

        doc["parity"] = {str(seed): parity(roots, seed) for seed in SEEDS}
        save()
        doc["suite"] = {side: suite(roots[side]) for side in SIDES}
        for side in SIDES:
            print(f"suite {side}: {doc['suite'][side]['tier1_summary']}", flush=True)
        save()
        doc["udabench"] = {}
        for workload in ALL_WORKLOADS:
            runs = []
            for seed in SEEDS:
                for k in range(PAIRS):
                    order = SIDES if (len(runs) % 2 == 0) else SIDES[::-1]
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        run[side] = udabench_run(roots[side], workload, seed, seconds)
                    runs.append(run)
                    print(f"{workload} seed {seed} pair {k}: qps "
                          f"{run['parent']['metrics']['queries_per_s']:.3g} -> "
                          f"{run['change']['metrics']['queries_per_s']:.3g}", flush=True)
                    doc["udabench"][workload] = {"runs": runs, "summary": summarise(runs, better)}
                    save()
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
