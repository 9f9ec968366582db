"""One workload process: set up, run rounds of checked queries, report.

Run by ``run.py``; prints one JSON line.  With ``--setup-only`` it stops
after set-up and prints the monotonic time set-up ended, so the parent can
time set-up from process start.  Otherwise it runs whole rounds in a closed
loop (one query at a time, the next only after the previous returns) until
``--seconds`` have passed.  Rounds cycle through the workload's pool of
distinct rounds, so each pooled input runs several times, a pass of the
pool apart, and its time is the mean of those runs.  A shared host runs
slow and fast for stretches of seconds; a single run of a query lands in
one or the other, while the mean over runs spread across the run lands
near the run's average.  With ``--trace 1`` every other pass is traced, so
the same run measures the tracing overhead on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import SELF_TIME, Tracer  # noqa: E402

OUT = ROOT / ".udabench"
TAIL_BEYOND = 10
FAILED_FLOOR = 1e-6
ONCE = "construction.setup_observables_s"


def resolve(call: str):
    module, *path = call.split(".")
    return functools.reduce(getattr, path, importlib.import_module(f"udalab.{module}"))


def run_query(query: workloads.Query, fn):
    """Call ``fn`` as the query asks; CLI output is captured, not printed."""
    if query.call == "cli.dispatch":
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = fn(*query.args, **query.kwargs)
        return code, buffer.getvalue()
    return fn(*query.args, **query.kwargs)


def layer_counts(query: workloads.Query, result, counts: Counter, samples: dict) -> None:
    """Per-layer counts that a public result carries (traced rounds only)."""
    call = query.call
    if call in ("certify.uda_certify", "certify.udp_certify"):
        counts["certify.uda_calls" if call == "certify.uda_certify" else "certify.udp_calls"] += 1
        route = result.evidence.get("route")
        counts[f"certify.route.{route}"] += 1
        # Gap twins always falsify in one iteration; the fresh
        # few-observable queries are the ones whose count varies.
        if (call == "certify.uda_certify" and result.falsified and route == "dykstra"
                and query.fresh):
            samples["certify.falsify_iterations"].append(result.evidence["iterations"])
        if call == "certify.udp_certify" and result.verdict == "Inconclusive":
            ev = result.evidence
            counts["udp.wasted_runs"] += ev["on_orbit_runs"] + ev["near_orbit_runs"]
            counts["udp.inconclusive_restarts"] += ev["restarts"]
    elif call == "numrange.uniqueness_consistency_scan":
        counts["numrange.scan_calls"] += 1
        counts["numrange.boundary_checked"] += result.boundary_checked
        counts["numrange.interior_checked"] += result.interior_checked
        counts["numrange.interior_falsified"] += result.interior_udp_falsified
        counts["numrange.hard_failures"] += result.hard_failures
    elif call == "numrange.boundary_sweep":
        counts["numrange.sweep_points"] += len(result)
    elif call == "construction.uda_observables":
        counts["construction.observables_built"] += len(result)
    elif call == "rdm.uda_rank_test":
        d1, d2, d3 = query.facts["dims"]
        small = min(d2, d3)  # the test gives the smaller party the d3 role
        counts["rdm.rank_tests"] += 1
        counts["rdm.system_entries"] += d1 * d1 * small * small * small ** 4
    elif call == "rdm.mixed_uda_rank_test":
        d1, d2, d3 = query.facts["dims"]
        rank = query.facts["rank"]
        counts["rdm.rank_tests"] += 1
        counts["rdm.system_entries"] += (d1 * d1 * d3 * d3 + d1 * d1 * d2 * d2) * d3 ** 4 * rank ** 2
    elif call == "symmetry.SymmetryGroup.generate":
        counts["symmetry.group_elements"] += len(result)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, counts: Counter, samples: dict, rounds: int,
                  overhead: float) -> dict:
    """Every per-layer metric, per traced round (rounds are identical in make-up)."""
    seconds = Counter()
    for span, value in tracer.self_times().items():
        if span in SELF_TIME:
            seconds[SELF_TIME[span]] += value
    counts = counts + tracer.counts
    per_round = rounds
    iterations = samples["certify.falsify_iterations"]
    out = {}
    for name in set(SELF_TIME.values()) - {ONCE}:
        out[name] = (seconds[name] / per_round, "s/round")
    out[ONCE] = (seconds[ONCE], "s")  # set-up runs once per process, not per round
    for name in ("certify.uda_calls", "certify.udp_calls", "certify.streams",
                 "certify.capped_streams", "certify.route.complete-tomography",
                 "certify.route.two-sided-complement", "certify.route.dykstra",
                 "certify.route.sphere-gradient", "linalg.eigh_calls", "linalg.eigh_matrices",
                 "linalg.pinv_calls", "linalg.svd_calls", "linalg.eigvalsh_calls",
                 "numrange.scan_calls", "numrange.boundary_checked", "numrange.interior_checked",
                 "numrange.interior_falsified", "numrange.hard_failures",
                 "numrange.sweep_points", "construction.observables_built", "rdm.rank_tests",
                 "rdm.system_entries", "symmetry.group_elements"):
        out[name] = (counts[name] / per_round, "count/round")
    out["certify.capped_share"] = (_share(counts["certify.capped_streams"],
                                          counts["certify.streams"]), "ratio")
    out["certify.udp_wasted_share"] = (_share(counts["udp.wasted_runs"],
                                              counts["udp.inconclusive_restarts"]), "ratio")
    out["certify.falsify_iterations_p50"] = (
        float(statistics.median(iterations)) if iterations else 0.0, "iterations")
    out["trace.overhead_share"] = (overhead, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(out.items())}


def tail(times: list[float]) -> dict:
    """The highest order statistic with >= 10 queries beyond it (the maximum
    when there are too few), with its percentile and the sample count."""
    ordered = sorted(times)
    index = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return {"seconds": ordered[index], "percentile": 100.0 * (index + 1) / len(ordered),
            "beyond": len(ordered) - index - 1, "samples": len(ordered)}


def environment(args, attempted: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "default") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "queries": attempted,
    }


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be a non-negative integer")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace and not args.setup_only else None
    with tracer.setup_span(workloads.udalab) if tracer else contextlib.nullcontext():
        shared = workloads.setup(args.workload, args.seed, OUT)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    counts: Counter = Counter()
    samples = {"certify.falsify_iterations": []}
    records = []  # (query name, traced, seconds, decided, failure, known defect, input)
    pool = workloads.POOL_ROUNDS[args.workload]
    start = time.monotonic()
    round_index = traced_rounds = 0
    # A traced run needs one untraced and one traced pass at the least.
    while time.monotonic() - start < args.seconds or (tracer and round_index < 2 * pool):
        traced = tracer is not None and (round_index // pool) % 2 == 1
        if traced:
            tracer.install()
            traced_rounds += 1
        try:
            for position, query in enumerate(workloads.round_queries(shared, round_index)):
                fn = resolve(query.call)
                if traced:
                    tracer.query = len(records)
                    root = tracer.open(f"query:{query.name}")
                    fn = tracer.wrap(query.span, fn)
                began = time.perf_counter()
                try:
                    result = run_query(query, fn)
                    error = None
                except Exception:  # a raising query is a failed query, not a crash
                    result, error = None, traceback.format_exc()
                elapsed = time.perf_counter() - began
                if traced:
                    tracer.close(root)
                verdict = (checks.check(query, result) if error is None
                           else checks.Verdict(False, error))
                if traced and error is None:
                    layer_counts(query, result, counts, samples)
                records.append((query.name, traced, elapsed, verdict.decided,
                                verdict.failure, verdict.known_defect,
                                (round_index if query.fresh else round_index % pool,
                                 position)))
        finally:
            if traced:
                tracer.remove()
        round_index += 1

    attempted = len(records)
    failures = [(name, why, known) for name, _, _, _, why, known, _ in records if why]
    per_input, failed = input_times(records)
    times = list(per_input.values())
    ok = sum(1 for key in per_input if key not in failed)
    query_tail = tail(times)
    detail = {
        "environment": environment(args, attempted),
        "rounds": round_index,
        "inputs": len(per_input),
        "runs_per_input": attempted / len(per_input),
        "query_tail": query_tail,
        "failures": [{"query": n, "why": w, "known_defect": k} for n, w, k in failures],
        "known_defects": {k: checks.KNOWN_DEFECTS[k] for _, _, k in failures if k},
        "per_query": per_query_summary(records),
    }
    if tracer is None:
        metrics = {
            "queries_per_s": {"value": ok / sum(times), "unit": "1/s"},
            "query_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
            "query_tail_ms": {"value": query_tail["seconds"] * 1e3, "unit": "ms"},
            "decided_share": {"value": sum(r[3] for r in records) / attempted, "unit": "ratio"},
            # Floored so that it is never 0 and a change can be compared
            # with its parent as a ratio; any failure at all lifts it far above.
            "failed_share": {"value": max(len(failures) / attempted, FAILED_FLOOR),
                             "unit": "ratio"},
        }
    else:
        # Compared on the inputs that ran both traced and untraced.
        rates = {}
        sides = {flag: input_times([r for r in records if r[1] == flag]) for flag in (False, True)}
        both = sides[False][0].keys() & sides[True][0].keys()
        for flag, (side, side_failed) in sides.items():
            good = sum(1 for key in both if key not in side_failed)
            rates[flag] = good / sum(side[key] for key in both) if both else math.nan
        overhead = 1.0 - rates[True] / rates[False]
        detail["trace"] = {"traced_queries_per_s": rates[True],
                           "untraced_queries_per_s": rates[False],
                           "spans": len(tracer.spans)}
        metrics = layer_metrics(tracer, counts, samples, traced_rounds, overhead)
        tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.json")
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "setup_done": setup_done,
        "peak_rss_mb": peak_mib,
        "correct": not any(known is None for _, _, known in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "detail": detail,
    }))
    return 0


def input_times(records) -> tuple[dict, set]:
    """Each input's mean time over its runs, and the inputs that failed."""
    runs: dict = {}
    failed = set()
    for _, _, seconds, _, failure, _, key in records:
        runs.setdefault(key, []).append(seconds)
        if failure:
            failed.add(key)
    return {key: statistics.fmean(v) for key, v in runs.items()}, failed


def per_query_summary(records) -> dict:
    out: dict = {}
    for name, _, seconds, decided, failure, _, _ in records:
        entry = out.setdefault(name, {"count": 0, "decided": 0, "failed": 0, "ms": []})
        entry["count"] += 1
        entry["decided"] += int(decided)
        entry["failed"] += int(bool(failure))
        entry["ms"].append(seconds * 1e3)
    for entry in out.values():
        entry["median_ms"] = statistics.median(entry.pop("ms"))
    return out


if __name__ == "__main__":
    raise SystemExit(main())
