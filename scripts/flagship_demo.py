#!/usr/bin/env python3
"""Walk the flagship order-4 example through every component.

The tensor (dimension 3, order 4) is zero on the first diagonal, one on the
other two diagonals, and five everywhere else.  It is entrywise non-negative,
hence copositive, yet the associated form takes negative values off the
non-negative orthant, so it is copositive without being positive
semidefinite.
"""

from fractions import Fraction

from copotensor import (SymTensorBuilder, certify_copositivity, member_O_r,
                        necessary_screen)
from copotensor.polycone import member_C_r
from copotensor.soscone import member_K_r
from copotensor.oracle import simplex_grid_min
from copotensor.tensor import eval_form


def build_tensor():
    b = SymTensorBuilder(3, 4, Fraction(5))
    b.set((1, 1, 1, 1), Fraction(0))
    b.set((2, 2, 2, 2), Fraction(1))
    b.set((3, 3, 3, 3), Fraction(1))
    return b.build()


def main():
    A = build_tensor()
    print(f"tensor: n={A.n}, d={A.d}, diagonal={A.diag_vector()}")

    screen = necessary_screen(A)
    print(f"necessary screen: {'pass' if screen.passed else screen.reason}")

    cv = member_C_r(A, 0)
    print(f"coefficient cone level 0: {'Member' if cv.member else 'NotMember'}")

    kv = member_K_r(A, 0)
    print(f"SOS cone level 0: {kv.verdict} (fast path: {kv.fast_path})")

    cert = certify_copositivity(A)
    print(f"certify: {cert.verdict.value} "
          f"at depth {cert.stats.max_depth}")

    ov = member_O_r(A, 6)
    print(f"rational grid level 6: {'Member' if ov.member else 'NotMember'}")

    grid = simplex_grid_min(A, 20)
    print(f"oracle simplex minimum (resolution 20): {grid.min_value}")

    probe = (-2, 0, 1)
    print(f"form value at {probe}: {eval_form(A, probe)}  (negative, so the "
          f"tensor is not positive semidefinite)")


if __name__ == "__main__":
    main()
