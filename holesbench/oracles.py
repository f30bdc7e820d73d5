"""Independent answers for the benchmark's checks.

Nothing here imports the library.  Each routine takes a different route
from the code under test:

- membership in Q is a sieve over grading layers (the first matrix row is
  positive on every column, so the first coordinate of A*lam is a grading);
  each layer is one Python int used as a bitset over the other coordinates,
  which for a single row is the classic sieve of a numerical semigroup;
- the cone is cut out by facet normals found by brute force over column
  subsets (cofactor cross products), not by double description;
- the lattice test compares gcds of maximal minors: for a full-rank lattice
  L, z lies in L exactly when adding z as a generator keeps the index.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd


def det(rows) -> int:
    """Integer determinant by Laplace expansion (fine for d <= 3)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * det(minor)
    return total


def maximal_minors(cols, d: int) -> list[int]:
    return [det([list(r) for r in zip(*sub)]) for sub in combinations(cols, d)]


def _normal(vectors, d: int) -> tuple[int, ...]:
    """A vector orthogonal to d-1 vectors of Z^d (generalized cross product)."""
    out = []
    for i in range(d):
        rows = [[v[k] for k in range(d) if k != i] for v in vectors]
        out.append((-1) ** i * det(rows) if rows else 1)
    return tuple(out)


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


class Semigroup:
    """Q = A*Z^n_+ for an integer matrix whose first row is positive."""

    def __init__(self, rows):
        self.rows = tuple(tuple(int(x) for x in row) for row in rows)
        self.d = len(self.rows)
        self.cols = tuple(zip(*self.rows))
        if any(c[0] <= 0 for c in self.cols):
            raise ValueError("the first row must be positive on every column")
        minors = maximal_minors(self.cols, self.d)
        self.index = 0
        for m in minors:
            self.index = gcd(self.index, m)
        if self.index == 0:
            raise ValueError("the matrix must have full row rank")
        self.facets = []
        for sub in combinations(self.cols, self.d - 1):
            nrm = _normal(sub, self.d)
            if not any(nrm):
                continue
            signs = {(_dot(nrm, c) > 0) - (_dot(nrm, c) < 0) for c in self.cols}
            if -1 not in signs:
                self.facets.append(nrm)
            elif 1 not in signs:
                self.facets.append(tuple(-x for x in nrm))
        # per-unit-of-grading range of every other coordinate over the cone
        self.lo = [min(Fraction(c[i], c[0]) for c in self.cols) for i in range(1, self.d)]
        self.hi = [max(Fraction(c[i], c[0]) for c in self.cols) for i in range(1, self.d)]
        self._layers_upto = -1
        self._layers: list[int] = []
        self._enc = None
        self._witnesses = None

    # -- cone, lattice, saturation ----------------------------------------

    def in_cone(self, z) -> bool:
        return all(_dot(f, z) >= 0 for f in self.facets)

    def in_lattice(self, z) -> bool:
        g = self.index
        for sub in combinations(self.cols, self.d - 1):
            g = gcd(g, det([list(r) for r in zip(*(sub + (tuple(z),)))]))
        return abs(g) == abs(self.index)

    def in_saturation(self, z) -> bool:
        return self.in_cone(z) and self.in_lattice(z)

    def box(self, top: int):
        """Every integer point of the cone's slab 0 <= z0 <= top (a superset
        of the cone points there)."""
        for k in range(top + 1):
            ranges = [range(floor(lo * k), ceil(hi * k) + 1) for lo, hi in zip(self.lo, self.hi)]
            for rest in product(*ranges):
                yield (k,) + rest

    def saturation_box(self, top: int) -> list[tuple[int, ...]]:
        return [z for z in self.box(top) if self.in_saturation(z)]

    # -- membership in Q: a sieve over grading layers --------------------

    def _encoding(self, top: int):
        offs = [ceil(-lo * top) if lo < 0 else 0 for lo in self.lo]
        widths = [off + ceil(hi * top) + 1 if hi > 0 else off + 1
                  for off, hi in zip(offs, self.hi)]
        strides = []
        stride = 1
        for w in reversed(widths):
            strides.append(stride)
            stride *= w
        strides.reverse()

        def bit(rest) -> int:
            return sum((x + o) * s for x, o, s in zip(rest, offs, strides))

        shifts = [sum(c[i + 1] * strides[i] for i in range(self.d - 1)) for c in self.cols]
        return bit, bit([0] * (self.d - 1)), shifts

    def _sieve(self, top: int, keep_all: bool):
        bit, origin, shifts = self._encoding(top)
        steps = [(c[0], s) for c, s in zip(self.cols, shifts)]
        window = max(c[0] for c in self.cols)
        layers = [1 << origin]
        for k in range(1, top + 1):
            acc = 0
            for g, s in steps:
                if k - g >= 0:
                    prev = layers[k - g] if keep_all else layers[-g] if g <= len(layers) else 0
                    if prev:
                        acc |= prev << s if s >= 0 else prev >> -s
            layers.append(acc)
            if not keep_all and len(layers) > window:
                layers.pop(0)
        return bit, layers

    def prepare(self, top: int):
        """Keep every layer up to grading top for repeated box queries."""
        if top > self._layers_upto:
            self._enc, self._layers = self._sieve(top, keep_all=True)
            self._layers_upto = top

    def in_q(self, z) -> bool:
        z = tuple(z)
        k = z[0]
        if k < 0 or not self.in_cone(z):
            return False
        if any(x < floor(lo * k) or x > ceil(hi * k) for x, lo, hi in zip(z[1:], self.lo, self.hi)):
            return False
        if k <= self._layers_upto:
            return bool(self._layers[k] >> self._enc(z[1:]) & 1)
        bit, layers = self._sieve(k, keep_all=False)
        return bool(layers[-1] >> bit(z[1:]) & 1)

    # -- derived sets -------------------------------------------------------

    @property
    def zonotope_top(self) -> int:
        """Grading just below the half-open zonotope's top: Hilbert basis
        elements, fundamental holes and minimal non-saturating witnesses all
        lie at or under it."""
        return sum(c[0] for c in self.cols) - 1

    def hilbert_basis(self) -> set:
        top = self.zonotope_top
        sat = self.saturation_box(top)
        nonzero = [z for z in sat if any(z)]
        sat_set = set(sat)
        out = set()
        for z in nonzero:
            if not any(tuple(a - b for a, b in zip(z, x)) in sat_set
                       for x in nonzero if x[0] < z[0]):
                out.add(z)
        return out

    def holes(self, top: int) -> set:
        self.prepare(top)
        return {z for z in self.saturation_box(top) if not self.in_q(z)}

    def is_hole(self, z) -> bool:
        return self.in_saturation(z) and not self.in_q(z)

    def fundamental_holes(self) -> set:
        holes = self.holes(self.zonotope_top)
        return {h for h in holes
                if not any(self.is_hole(tuple(a - b for a, b in zip(h, c))) for c in self.cols)}

    def is_saturation_point(self, s) -> bool:
        """s in Q and s + Q_sat inside Q.  A minimal z with s + z outside Q
        has z - a_j outside Q_sat for every j, so it lies under the
        zonotope top; checking those z suffices."""
        if self._witnesses is None:
            self._witnesses = self.saturation_box(self.zonotope_top)
        self.prepare(s[0] + self.zonotope_top)
        return self.in_q(s) and all(
            self.in_q(tuple(a + b for a, b in zip(s, z))) for z in self._witnesses)

    def is_q_minimal_saturation_point(self, s) -> bool:
        """No saturation point t != s with s - t in Q; since saturation
        points are closed under adding columns, one column step suffices."""
        return self.is_saturation_point(s) and not any(
            self.is_saturation_point(tuple(a - b for a, b in zip(s, c))) for c in self.cols)

    def minimal_saturation_points(self, top: int) -> set:
        self.prepare(top)
        return {s for s in self.box(top)
                if self.in_q(s) and self.is_q_minimal_saturation_point(s)}


def hole_bound(rows) -> tuple[int, int, int, int]:
    """(d+1, M, D, (d+1)*M^2*D) from the bound theorem, computed from scratch."""
    d = len(rows)
    m = max(sum(abs(x) for x in row) for row in rows)
    big_d = max(abs(x) for x in maximal_minors(tuple(zip(*rows)), d))
    return d + 1, m, big_d, (d + 1) * m * m * big_d


# ---------------------------------------------------------------------------
# three-way tables

def table_margins(table):
    """(u, v, w) of an r x s x t table: u sums over i, v over j, w over k."""
    r, s, t = len(table), len(table[0]), len(table[0][0])
    u = [[sum(table[i][j][k] for i in range(r)) for k in range(t)] for j in range(s)]
    v = [[sum(table[i][j][k] for j in range(s)) for k in range(t)] for i in range(r)]
    w = [[sum(table[i][j][k] for k in range(t)) for j in range(s)] for i in range(r)]
    return u, v, w


def flat_margins(u, v, w) -> list:
    return [x for block in (u, v, w) for row in block for x in row]


# The 3 x 4 x 6 margins of the paper (after Vlach): every margin is 0 or 1.
VLACH_U = ((1, 0, 1, 0, 1, 0),
           (0, 1, 1, 0, 0, 1),
           (0, 1, 0, 1, 1, 0),
           (1, 0, 0, 1, 0, 1))
VLACH_V = ((1, 1, 1, 1, 0, 0),
           (1, 1, 0, 0, 1, 1),
           (0, 0, 1, 1, 1, 1))
VLACH_W = ((1, 1, 1, 1),
           (1, 1, 1, 1),
           (1, 1, 1, 1))
VLACH_MARGINS = (VLACH_U, VLACH_V, VLACH_W)
VLACH_SHAPE = (3, 4, 6)


def vlach_support():
    """Cells whose three margins are all positive; the paper's unique real
    point puts 1/2 on each of them."""
    r, s, t = VLACH_SHAPE
    return [(i, j, k) for i in range(r) for j in range(s) for k in range(t)
            if VLACH_U[j][k] and VLACH_V[i][k] and VLACH_W[i][j]]


def vlach_off_support():
    support = set(vlach_support())
    r, s, t = VLACH_SHAPE
    return [(i, j, k) for i in range(r) for j in range(s) for k in range(t)
            if (i, j, k) not in support]


def add_cells(margins, cells):
    """Margins of (table with those margins) + the given unit cells."""
    u, v, w = ([list(row) for row in block] for block in margins)
    for (i, j, k) in cells:
        u[j][k] += 1
        v[i][k] += 1
        w[i][j] += 1
    return u, v, w


def half_point_plus(cells):
    """The real table z* + sum of unit cells, z* = 1/2 on the support."""
    r, s, t = VLACH_SHAPE
    table = [[[Fraction(0)] * t for _ in range(s)] for _ in range(r)]
    for (i, j, k) in vlach_support():
        table[i][j][k] += Fraction(1, 2)
    for (i, j, k) in cells:
        table[i][j][k] += 1
    return table
