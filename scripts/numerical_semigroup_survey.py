#!/usr/bin/env python3
"""Survey numerical semigroups as 1-row instances.

The survey runs every coprime pair 2 <= a < b <= 12, every coprime triple
2 <= a < b < c <= 12, and <4,5,6,7>, <5,7,11,13>, <5,7,11,13,17>,
<7,9,11,13> and <6,7,8,9,10>.  For each Q = <a_1, ..., a_k> the library's
answers are compared against a direct sieve over the integers up to
a_min * a_max, which lies above the Frobenius number:

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

It then runs two projective monomial curves, the 2-row matrices
[[1, ..., 1], [0, 3, 5, 7, 11]] (n5) and [[1, ..., 1], [0, 3, 5, 7, 11, 13]]
(n6), whose hole sets are infinite.  Their first row grades Q, and a
layer sieve gives the heights y of the points (k, y) of Q, layer by layer
up to twice the half-open zonotope's top layer and twice every reported
point's:

- the cells, each walked up to that layer, cover exactly the holes there;
- the fundamental holes are the holes h with no hole h - a, a a column;
- the saturation points are the points s of Q with s + f in Q for every
  fundamental hole f and s - a not such a point for every column a.

The output is a table of per-semigroup statistics and one of the curves;
a mismatching semigroup or curve is marked NO and makes the script exit
with status 1.
"""

import functools
import operator
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
    return coprime + [(4, 5, 6, 7), (5, 7, 11, 13), (5, 7, 11, 13, 17), (7, 9, 11, 13),
                      (6, 7, 8, 9, 10)]


CURVES = {"n5": (0, 3, 5, 7, 11), "n6": (0, 3, 5, 7, 11, 13)}


def curve_layers(heights, top):
    """layers[k] for k <= top: an int whose bit y is set when (k, y) is in
    the semigroup of the columns (1, h), h in heights (all >= 0).  Layer k
    is layer k - 1 shifted by each height."""
    layers = [1]
    for _ in range(top):
        layers.append(functools.reduce(operator.or_, (layers[-1] << h for h in heights)))
    return layers


def check_curve(heights):
    """Check the curve with columns (1, h), h in heights, against its layer
    sieve: (ok, the numbers of holes, fundamental holes, cells and
    saturation points, the last layer checked)."""
    columns = [(1, h) for h in heights]
    problem = SemigroupProblem.build(IntMatrix.from_rows([[1] * len(heights), list(heights)]))
    rep = holes_representation(problem)
    sat = saturation_points(problem)
    # the saturation: k * low <= y <= k * high, y = k * low mod d
    low, high = min(heights), max(heights)
    d = functools.reduce(gcd, (h - low for h in heights))
    top = len(set(heights))  # the zonotope's top layer, above every fundamental hole
    window = 2 * max([top] + [p[0] for p in sat.points])
    layers = curve_layers(heights, window + top)

    def in_q(k, y):
        return 0 <= k < len(layers) and y >= 0 and layers[k] >> y & 1 == 1

    holes = {(k, y) for k in range(window + 1) for y in range(k * low, k * high + 1, d)
             if not in_q(k, y)}
    covered = set()
    for cell in rep.cells:
        frontier = {cell.shift}
        while frontier:
            covered |= frontier
            frontier = {(z[0] + g[0], z[1] + g[1]) for z in frontier for g in cell.generators
                        if z[0] + g[0] <= window}
    fundamental = sorted(h for h in holes
                         if not any((h[0] - a[0], h[1] - a[1]) in holes for a in columns))

    def saturated(k, y):
        return in_q(k, y) and all(in_q(k + f, y + g) for f, g in fundamental)

    minimal = [(k, y) for k in range(window + 1) for y in range(k * low, k * high + 1, d)
               if saturated(k, y) and not any(saturated(k - a, y - b) for a, b in columns)]
    ok = (covered == holes
          and list(rep.fundamental_set.holes) == fundamental
          and list(sat.points) == minimal)
    return ok, len(holes), len(fundamental), len(rep.cells), len(sat.points), window


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
    print(f"\n{'curve':<16} {'holes':>6} {'fund':>5} {'cells':>6} {'sat':>4} {'layers':>6} {'ok':>3}")
    for name, heights in CURVES.items():
        ok, holes, fundamental, cells, points, window = check_curve(heights)
        mismatches += 0 if ok else 1
        print(f"{name:<16} {holes:>6} {fundamental:>5} {cells:>6} {points:>4} {window:>6} "
              f"{'yes' if ok else 'NO'}")
    elapsed = time.perf_counter() - started
    print(f"\n{len(cases)} semigroups, {len(CURVES)} curves, {mismatches} mismatches, "
          f"{elapsed:.2f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
