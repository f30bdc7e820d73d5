#!/usr/bin/env python3
"""Re-derive the 3x4x6 transportation hole and its infinite family.

Prints the margin triple, the unique half-integral point of its
transportation polytope, and the verification flags: the margins are a
fundamental hole, and every hole above them is a translate by the 24
support columns, so the hole set is infinite.  Exits 1 unless every flag
holds and there is no diagnostic.
"""

import sys
import time

from monoid_holes import verify_vlach, vlach_margins
from monoid_holes.transport import VLACH_DIMS


def print_block(name, block):
    print(f"{name}:")
    for row in block:
        print("  ", " ".join(str(x) for x in row))


def main():
    margins = vlach_margins()
    print_block("u (sum over i)", margins.u)
    print_block("v (sum over j)", margins.v)
    print_block("w (sum over k)", margins.w)

    started = time.perf_counter()
    report = verify_vlach()
    elapsed = time.perf_counter() - started

    dims = VLACH_DIMS
    print("\nunique real point of the polytope (doubled, by k-slice):")
    for k in range(dims.t):
        print(f"  k={k}:")
        for j in range(dims.s):
            row = [str(int(2 * report.z_star[dims.col(i, j, k)])) for i in range(dims.r)]
            print("    ", " ".join(row))

    print("\nsupport size:", len(report.support))
    print("integer witnesses for incremented margins:", len(report.non_hole_witnesses))
    print("unique real solution:", report.unique_real_solution)
    print("margins are a hole:", report.f_is_hole)
    print("margins are a fundamental hole:", report.f_is_fundamental_checked)
    print("holes above margins = margins + monoid(support columns):",
          report.holes_are_f_plus_monoid_a_prime)
    for diag in report.diagnostics:
        print("diagnostic:", diag)
    print(f"\nverified in {elapsed * 1000:.0f} ms")
    return 0 if report.all_true() and not report.diagnostics else 1


if __name__ == "__main__":
    sys.exit(main())
