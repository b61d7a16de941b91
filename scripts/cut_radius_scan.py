#!/usr/bin/env python3
"""Scan the cut radius and watch the damped bound integral collapse.

Reproduces the optimization story behind the 0.6397 cut: the inner piece of
C^(1, 0) grows only slightly with a while the absolute tail integral falls
fast, so the certified radius improves until the stability criterion stops
certifying larger cuts.
"""

from __future__ import annotations

import argparse
import math

from mayerbounds.bounds import bound_pieces
from mayerbounds.potentials import LennardJones
from mayerbounds.stability import criterion_holds, mu_upper_yuhjtman


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--lo", type=float, default=0.30)
    parser.add_argument("--hi", type=float, default=0.70)
    parser.add_argument("--steps", type=int, default=17)
    args = parser.parse_args()

    lj = LennardJones()
    print(f"{'a':>7} {'inner':>12} {'outer':>12} {'C^(1,0)':>12} {'certified':>10}")
    for k in range(args.steps):
        a = args.lo + (args.hi - args.lo) * k / (args.steps - 1)
        # C^(beta, 0) = C*(beta)
        pieces = bound_pieces(lj, a, args.beta, 0.0)
        if 0.6 <= a <= 0.7:
            certified = "yes" if criterion_holds(lj, mu_upper_yuhjtman(a)) else "no"
        else:
            certified = "n/a"
        print(f"{a:>7.4f} {pieces.pieces['c_star_inner']:>12.5g} "
              f"{pieces.pieces['outer_abs']:>12.5g} {pieces.c_star:>12.5g} {certified:>10}")

    # at B = B-bar = 0 the C^ radius is e^-1 / C^
    total = bound_pieces(lj, 0.6397, args.beta, 0.0).c_hat
    print(f"\nat the published optimum a=0.6397: C^({args.beta:g},0) = {total:.4f}, "
          f"radius factor 1/(e*C^) = {math.exp(-1.0) / total:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
