#!/usr/bin/env python3
"""Survey all coprime pairs 2 <= a < b <= 12 as 1x2 instances.

For each numerical semigroup Q = <a, b> the library's answers are
compared against a direct sieve over the integers:

- the cells of the hole representation cover exactly the gaps, the
  integers not in Q, and every gap is at most the hole bound;
- the fundamental holes are the gaps f with f - h not in Q for every
  other gap h;
- the saturation points are the Q-minimal integers of the saturation
  c + N, c the conductor: the s >= c with s - q < c for every q in Q
  other than 0.

The output is a table of per-pair statistics; a mismatching pair is
marked NO and makes the script exit with status 1.
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
        fundamental = [f for f in gaps
                       if not any(f > h and reachable[f - h] for h in gaps if h != f)]
        conductor = max(gaps) + 1
        minimal = [z for z in range(conductor, a * b + 1)
                   if all(z - q < conductor for q in range(1, z + 1) if reachable[q])]
        ok = (covered == gaps and all(g <= bound for g in gaps)
              and sorted(h[0] for h in rep.fundamental_set.holes) == fundamental
              and sorted(p[0] for p in sat.points) == minimal)
        mismatches += 0 if ok else 1
        print(f"{a:>3} {b:>3} {len(gaps):>6} {len(rep.fundamental_set.holes):>5} "
              f"{max(gaps):>9} {min(p[0] for p in sat.points):>8} {bound:>6} "
              f"{'yes' if ok else 'NO'}")
    elapsed = time.perf_counter() - started
    print(f"\n{len(pairs)} pairs, {mismatches} mismatches, {elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
