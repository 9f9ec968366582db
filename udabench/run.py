"""udalab benchmark: checked queries in a closed loop, one workload per process.

Usage, from the root of a checkout:

    python3 udabench/run.py --workload certify-unique --seed 1 --seconds 20 --trace 0

Set-up is timed from process start several times (setup-only processes plus
the measuring one) and reported as the median.  The measuring process runs
whole rounds of queries for ``--seconds`` seconds.  The last line of
standard output is the result: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  The line before it carries the environment, the tail
percentile and sample count, every failure by name and per-query figures.
See ``udabench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 7  # set-up samples per run, the measuring process included
DEADLINE = 170.0


def _worker(args, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Start a worker, wait for it, return (set-up seconds, its JSON report)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           *extra]
    began = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["setup_done"] - began, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "udalab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no udalab sources under {ROOT / 'src'}; "
                         "run from the root of a udalab checkout\n")
        return 2
    if not 1 <= args.seconds <= 120:
        sys.stderr.write("error: --seconds must lie in 1..120\n")
        return 2

    start = time.monotonic()
    setups = [_worker(args, ["--setup-only"], 60.0)[0] for _ in range(SETUP_RUNS - 1)]
    remaining = DEADLINE - (time.monotonic() - start)
    setup, report = _worker(args, ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                            remaining)
    setups.append(setup)

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": report["peak_rss_mb"], "unit": "MiB"}
    detail = report["detail"]
    detail["setup_samples_s"] = setups
    detail["peak_rss_mb"] = report["peak_rss_mb"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
