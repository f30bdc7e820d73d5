#!/usr/bin/env python3
"""Survey all coprime pairs 2 <= a < b <= 12 as 1x2 instances.

For each numerical semigroup <a, b> the library's hole representation,
fundamental holes, and saturation points are compared against a direct
sieve over the integers.  The output is a table of per-pair statistics;
a mismatching pair is marked NO and makes the script exit with status 1.
"""

import sys
import time
from math import gcd

from monoid_holes import IntMatrix, SemigroupProblem, hole_bound, holes_representation, saturation_points


def sieve(a, b, limit):
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for z in range(1, limit + 1):
        if (z >= a and reachable[z - a]) or (z >= b and reachable[z - b]):
            reachable[z] = True
    return reachable


def main():
    pairs = [(a, b) for a in range(2, 13) for b in range(a + 1, 13) if gcd(a, b) == 1]
    print(f"{'a':>3} {'b':>3} {'holes':>6} {'fund':>5} {'frobenius':>9} "
          f"{'sat-min':>8} {'bound':>6} {'ok':>3}")
    started = time.perf_counter()
    mismatches = 0
    for a, b in pairs:
        reachable = sieve(a, b, a * b)
        gaps = [z for z in range(1, a * b + 1) if not reachable[z]]
        problem = SemigroupProblem.build(IntMatrix.from_rows([[a, b]]))
        rep = holes_representation(problem)
        covered = sorted({cell.shift[0] for cell in rep.cells})
        sat = saturation_points(problem)
        bound = hole_bound(problem.matrix).bound
        ok = covered == gaps and all(g <= bound for g in gaps)
        mismatches += 0 if ok else 1
        print(f"{a:>3} {b:>3} {len(gaps):>6} {len(rep.fundamental_set.holes):>5} "
              f"{max(gaps):>9} {min(p[0] for p in sat.points):>8} {bound:>6} "
              f"{'yes' if ok else 'NO'}")
    elapsed = time.perf_counter() - started
    print(f"\n{len(pairs)} pairs, {mismatches} mismatches, {elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
