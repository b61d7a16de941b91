#!/usr/bin/env python3
"""Sweep the multi-route Ursell identity over a seed range.

Prints the worst pairwise relative difference per (n, beta) cell, split into
the exact routes (graph vs partition sums) and, where `identity_check` runs
them (n <= MAX_INTEGRAL_ROUTE_N), the worst pair that involves a closed-form
simplex route (tree integral or merge expansion).
"""

from __future__ import annotations

import argparse
import time

from mayerbounds.ursell import identity_check, random_interaction_matrix


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--betas", type=float, nargs="+", default=[0.3, 1.0, 2.7])
    args = parser.parse_args()

    start = time.monotonic()
    worst_exact: dict[tuple[int, float], float] = {}
    worst_simplex: dict[tuple[int, float], float] = {}
    for seed in range(args.seeds):
        n = 2 + seed % 6
        matrix = random_interaction_matrix(n, seed)
        for beta in args.betas:
            _, pairwise = identity_check(matrix, beta)
            key = (n, beta)
            exact = pairwise.pop("graph_sum_vs_partition_sum")
            worst_exact[key] = max(worst_exact.get(key, 0.0), exact)
            if pairwise:
                worst_simplex[key] = max(worst_simplex.get(key, 0.0), *pairwise.values())

    print(f"{'n':>3} {'beta':>6} {'graph-vs-partition':>20} {'simplex routes':>20}")
    for key in sorted(worst_exact):
        n, beta = key
        simplex = f"{worst_simplex[key]:.3e}" if key in worst_simplex else "-"
        print(f"{n:>3} {beta:>6g} {worst_exact[key]:>20.3e} {simplex:>20}")
    print(f"[{args.seeds} seeds x {len(args.betas)} betas in {time.monotonic() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
