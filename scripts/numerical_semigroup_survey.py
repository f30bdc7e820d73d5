#!/usr/bin/env python3
"""Survey numerical semigroups as 1-row instances.

The survey runs every coprime pair 2 <= a < b <= 12, every coprime triple
2 <= a < b < c <= 12, and <4,5,6,7>, <5,7,11,13>, <7,9,11,13> and
<6,7,8,9,10>.  For each Q = <a_1, ..., a_k> the library's answers are
compared against a direct sieve over the integers up to a_min * a_max,
which lies above the Frobenius number:

- the cells of the hole representation cover exactly the gaps, the
  integers not in Q, and every gap is at most the hole bound;
- above each fundamental hole f, a gap g is the shift of as many cells
  as there are lam >= 0 with a . lam = g - f: the standard monomials of
  the hole ideal of f, each one a cell.  Cells above different
  fundamental holes may share a shift (7 = 1 + 6 = 2 + 5 in <3,5>), so
  the cells are counted per fundamental hole, not against the gaps;
- the fundamental holes are the gaps f with f - h not in Q for every
  other gap h;
- the saturation points are the Q-minimal integers of the saturation
  c + N, c the conductor: the s >= c with s - q < c for every q in Q
  other than 0.

The output is a table of per-semigroup statistics; a mismatching
semigroup is marked NO and makes the script exit with status 1.
"""

import sys
import time
from collections import Counter
from itertools import combinations
from math import gcd

from monoid_holes import IntMatrix, SemigroupProblem, hole_bound, holes_representation, saturation_points


def sieve(generators, limit):
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for z in range(1, limit + 1):
        reachable[z] = any(z >= g and reachable[z - g] for g in generators)
    return reachable


def denumerants(generators, limit):
    """ways[z] for z <= limit: the number of lam >= 0 with a . lam = z."""
    ways = [1] + [0] * limit
    for g in generators:
        for z in range(g, limit + 1):
            ways[z] += ways[z - g]
    return ways


def semigroups():
    small = range(2, 13)
    coprime = [s for k in (2, 3) for s in combinations(small, k) if gcd(*s) == 1]
    return coprime + [(4, 5, 6, 7), (5, 7, 11, 13), (7, 9, 11, 13), (6, 7, 8, 9, 10)]


def main():
    cases = semigroups()
    print(f"{'generators':<16} {'holes':>6} {'fund':>5} {'frobenius':>9} "
          f"{'sat-min':>8} {'bound':>6} {'ok':>3}")
    started = time.perf_counter()
    mismatches = 0
    for gens in cases:
        limit = min(gens) * max(gens)
        reachable = sieve(gens, limit)
        gaps = [z for z in range(1, limit + 1) if not reachable[z]]
        problem = SemigroupProblem.build(IntMatrix.from_rows([list(gens)]))
        rep = holes_representation(problem)
        covered = sorted({cell.shift[0] for cell in rep.cells})
        sat = saturation_points(problem)
        bound = hole_bound(problem.matrix).bound
        fundamental = [f for f in gaps
                       if not any(f > h and reachable[f - h] for h in gaps if h != f)]
        conductor = max(gaps) + 1
        minimal = [z for z in range(conductor, limit + 1)
                   if all(z - q < conductor for q in range(1, z + 1) if reachable[q])]
        ways = denumerants(gens, limit)
        cells = Counter((cell.fundamental_hole[0], cell.shift[0]) for cell in rep.cells)
        expected = Counter({(f, g): ways[g - f] for f in fundamental for g in gaps
                            if g >= f and ways[g - f]})
        # Q has finitely many gaps, so every cell is a single point
        ok = (covered == gaps and not any(cell.generators for cell in rep.cells)
              and cells == expected
              and all(g <= bound for g in gaps)
              and sorted(h[0] for h in rep.fundamental_set.holes) == fundamental
              and sorted(p[0] for p in sat.points) == minimal)
        mismatches += 0 if ok else 1
        print(f"{','.join(map(str, gens)):<16} {len(gaps):>6} "
              f"{len(rep.fundamental_set.holes):>5} {max(gaps):>9} "
              f"{min(p[0] for p in sat.points):>8} {bound:>6} {'yes' if ok else 'NO'}")
    elapsed = time.perf_counter() - started
    print(f"\n{len(cases)} semigroups, {mismatches} mismatches, {elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
