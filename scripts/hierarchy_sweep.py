#!/usr/bin/env python3
"""Sweep random tensors through all hierarchies and tabulate agreement.

For each instance the script prints the inner-hierarchy levels (coefficient
cone and SOS cone), the outer grid levels, the branch-and-bound verdict, and
the oracle grid minimum, so the containment relations are visible side by
side: rows where the coefficient cone flips to Member at some r are strictly
inside rows where the SOS cone certifies earlier.

Per level, coef and grid print M (Member) or . (NotMember); sos prints C
(Certified), N (NotMember, refuted by a moment certificate) or ? (Unknown).
"""

import argparse
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from copotensor import certify_copositivity, member_O_r
from copotensor.polycone import member_C_r
from copotensor.soscone import sweep_K_r
from copotensor.oracle import simplex_grid_min
from copotensor.tensor import SymTensorBuilder, canonical_tuples


SOS_SYMBOL = {"Certified": "C", "NotMember": "N", "Unknown": "?"}


@dataclass
class SweepConfig:
    instances: int = 20
    levels: int = 3
    seed: int = 20240
    resolution: int = 12
    dims: tuple = ((2, 2), (2, 3), (3, 2), (3, 3))


def random_tensor(rng, n, d):
    """Mildly diagonal-dominant so a useful fraction is copositive."""
    b = SymTensorBuilder(n, d)
    for key in canonical_tuples(n, d):
        if len(set(key)) == 1:
            b.set(key, Fraction(rng.randint(8, 24), 16))
        else:
            b.set(key, Fraction(rng.randint(-6, 8), 16))
    return b.build()


def sweep(cfg: SweepConfig):
    rng = random.Random(cfg.seed)
    shapes = itertools.cycle(cfg.dims)
    header = (f"{'n':>2} {'d':>2}  {'coef r=0..' + str(cfg.levels):<14} "
              f"{'sos r=0..' + str(cfg.levels):<14} "
              f"{'grid r=0..' + str(cfg.levels):<14} "
              f"{'certify':<22} oracle min")
    print(header)
    print("-" * len(header))
    for _ in range(cfg.instances):
        n, d = next(shapes)
        A = random_tensor(rng, n, d)
        coef = "".join("M" if member_C_r(A, r).member else "."
                       for r in range(cfg.levels + 1))
        sos = "".join(SOS_SYMBOL[v.verdict] for v in sweep_K_r(A, cfg.levels))
        grid = "".join("M" if member_O_r(A, r).member else "."
                       for r in range(cfg.levels + 1))
        cert = certify_copositivity(A, max_depth=24)
        mn = simplex_grid_min(A, cfg.resolution).min_value
        print(f"{n:>2} {d:>2}  {coef:<14} {sos:<14} {grid:<14} "
              f"{cert.verdict.value:<22} {float(mn):+.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=20)
    parser.add_argument("--levels", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--resolution", type=int, default=12)
    args = parser.parse_args()
    sweep(SweepConfig(args.instances, args.levels, args.seed, args.resolution))


if __name__ == "__main__":
    main()
