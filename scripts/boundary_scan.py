#!/usr/bin/env python3
"""Sweep a random two-observable range and cross-check its uniqueness law.

Draws a random Hermitian pair, traces the range boundary, writes it to CSV,
and runs the pointwise scan: nondegenerate boundary states must survive the
mixed-state falsifier while interior states must lose their pure-state
uniqueness.
"""

import argparse

import numpy as np

from udalab.numrange import boundary_sweep, uniqueness_consistency_scan


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--angles", type=int, default=720)
    parser.add_argument("--trials", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default="boundary.csv")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    a1 = random_hermitian(args.d, rng)
    a2 = random_hermitian(args.d, rng)

    planar = boundary_sweep(a1, a2, args.angles)
    planar.write_csv(args.csv)
    print(f"wrote {len(planar)} boundary points to {args.csv}")

    report = uniqueness_consistency_scan(a1, a2, trials=args.trials,
                                         seed=args.seed, angles=min(args.angles, 64))
    print(f"boundary states checked: {report.boundary_checked}, "
          f"falsified: {report.boundary_uda_falsified}")
    print(f"interior states falsified: {report.interior_udp_falsified}"
          f"/{report.interior_checked}")
    print(f"hard failures: {report.hard_failures}")
    print("consistent" if report.passed else "INCONSISTENT")


if __name__ == "__main__":
    main()
