"""Arbitrary-precision integer and rational linear algebra.

Everything here is exact: matrices and vectors hold Python ints, and no
floating point appears anywhere in the package.  One fraction-free
Gauss-Jordan elimination (gauss_jordan, Bareiss 1968) does every exact
solve: rational affine solving, determinants, and the first simplex of
a placing triangulation with its normals; its row update (eliminate) is
also the pivot of the exact simplex in polyhedra.  Fractions appear only
where an answer is read off.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat, takewhile
from math import comb, gcd

from .errors import RankDeficientError, ResourceLimitError
from .limits import DEFAULT_LIMITS, Limits
from .records import Record

IntVector = tuple[int, ...]
RatVector = tuple[Fraction, ...]


# ---------------------------------------------------------------------------
# small vector helpers (tuples in, tuples out)

def vec_add(u, v) -> tuple:
    return tuple(map(operator.add, u, v))


def vec_sub(u, v) -> tuple:
    return tuple(map(operator.sub, u, v))


def vec_scale(k, v) -> tuple:
    return tuple(map(operator.mul, repeat(k), v))


def vec_dot(u, v):
    return sum(map(operator.mul, u, v))


def vec_is_zero(v) -> bool:
    return all(a == 0 for a in v)


def unit_vector(n: int, i: int) -> IntVector:
    return tuple(1 if j == i else 0 for j in range(n))


def primitive_vector(v) -> IntVector:
    """Divide an integer vector by the gcd of its entries (gcd of 0 is 0)."""
    g = 0
    for a in v:
        g = gcd(g, a)
    if g <= 1:
        return tuple(v)
    return tuple(a // g for a in v)


# ---------------------------------------------------------------------------
# matrices

class IntMatrix(Record):
    """Dense integer matrix, row-major, immutable and hashable.  Its columns,
    their nonzero (row, entry) pairs, its HNF over the identity and the
    lattice basis read off that HNF are kept once derived, apart from the
    entries that ==, hash and repr read."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # operator.index is lossless: floats are rejected, not truncated
        entries = tuple(tuple(map(operator.index, row)) for row in self.entries)
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @cached_property
    def _columns(self) -> tuple[IntVector, ...]:
        return tuple(zip(*self.entries))

    @cached_property
    def _sparse_columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple((i, x) for i, x in enumerate(column) if x) for column in self._columns)

    @cached_property
    def _stacked_hnf(self) -> "IntMatrix":
        n = self.cols
        return hermite_normal_form(IntMatrix(self.entries + tuple(unit_vector(n, i) for i in range(n))))

    @cached_property
    def _lattice(self) -> "LatticeBasis":
        d = self.rows
        images = tuple(takewhile(any, (column[:d] for column in self._stacked_hnf._columns)))
        pivots = tuple(next(i for i, x in enumerate(image) if x) for image in images)
        return LatticeBasis(d, len(images), images, pivots)

    def col(self, j: int) -> IntVector:
        return self._columns[j]

    def columns(self) -> list[IntVector]:
        return list(self._columns)

    def mul_vector(self, x) -> tuple:
        """A @ x for a length-cols x, summed over the nonzero x_j and column entries."""
        if len(x) != self.cols:
            raise ValueError("vector length does not match column count")
        out = [0] * self.rows
        for xj, column in zip(x, self._sparse_columns):
            if xj:
                for i, e in column:
                    out[i] += xj * e
        return tuple(out)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


# ---------------------------------------------------------------------------
# Hermite normal form (column style)

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    g0, g1 = a, b
    while g1:
        q = g0 // g1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
        g0, g1 = g1, g0 - q * g1
    if g0 < 0:
        x0, y0, g0 = -x0, -y0, -g0
    return g0, x0, y0


def _combine_columns(m: list[list[int]], c1: int, c2: int, a, b, c, d):
    # column c1 := a*c1 + b*c2, column c2 := c*c1 + d*c2 (old values)
    for row in m:
        e1, e2 = row[c1], row[c2]
        if e1 or e2:
            row[c1] = a * e1 + b * e2
            row[c2] = c * e1 + d * e2


def hermite_normal_form(m: IntMatrix) -> IntMatrix:
    """Column Hermite normal form H of m: H = m @ U for some unimodular U,
    so the columns of H generate the lattice of the columns of m.

    Convention: pivot columns come first with strictly increasing pivot
    rows, pivots are positive, and in each pivot row the entries of earlier
    columns are reduced to lie in [0, pivot).
    """
    d, n = m.rows, m.cols
    w = [list(row) for row in m.entries]
    col = 0
    for row in range(d):
        if col == n:
            break
        pivot_col = None
        for j in range(col, n):
            if w[row][j]:
                pivot_col = j
                break
        if pivot_col is None:
            continue
        if pivot_col != col:
            for r in w:
                r[col], r[pivot_col] = r[pivot_col], r[col]
        for j in range(col + 1, n):
            if w[row][j] == 0:
                continue
            a, b = w[row][col], w[row][j]
            g, x, y = _xgcd(a, b)
            _combine_columns(w, col, j, x, y, -(b // g), a // g)
        if w[row][col] < 0:
            for r in w:
                r[col] = -r[col]
        pivot = w[row][col]
        for j in range(col):
            q = w[row][j] // pivot
            if q:
                for r in w:
                    r[j] -= q * r[col]
        col += 1
    return IntMatrix.from_rows(w)


# ---------------------------------------------------------------------------
# lattices

class LatticeBasis(Record):
    """Basis of the integer column span of a matrix, in column HNF."""

    ambient_dim: int
    rank: int
    columns: tuple[IntVector, ...]
    pivot_rows: tuple[int, ...]

    def contains(self, z) -> IntVector | None:
        """Coefficient vector expressing z over the basis, or None."""
        if len(z) != self.ambient_dim:
            raise ValueError("vector dimension does not match lattice")
        resid = list(z)
        coeffs = []
        for column, p in zip(self.columns, self.pivot_rows):
            pivot = column[p]
            if resid[p] % pivot:
                return None
            k = resid[p] // pivot
            coeffs.append(k)
            if k:
                for i in range(p, self.ambient_dim):
                    resid[i] -= k * column[i]
        if any(resid):
            return None
        return tuple(coeffs)

    def from_coordinates(self, c) -> IntVector:
        if len(c) != self.rank:
            raise ValueError("coordinate length does not match rank")
        out = [0] * self.ambient_dim
        for k, column in zip(c, self.columns):
            if k:
                for i, x in enumerate(column):
                    out[i] += k * x
        return tuple(out)


def lattice_basis(a: IntMatrix) -> LatticeBasis:
    """Basis of the lattice generated by the columns of a: the nonzero
    columns of its HNF, read off the HNF over the identity kept on a.

    hermite_normal_form works row by row, and in each of the top d rows its
    pivot choice and xgcd column operations depend only on that row, so on
    [a; I] it makes the moves it makes on a.  The later pivot rows swap only
    columns >= r = rank a and reduce earlier ones by multiples of kernel
    columns, whose top d entries are 0.  So the top d rows of the first r
    columns are exactly the nonzero columns of hermite_normal_form(a).
    """
    return a._lattice


def integer_kernel(a: IntMatrix, f=None) -> tuple[tuple[IntVector, ...], IntVector | None]:
    """A basis of the integer kernel {x in Z^n : a@x = 0}, and an integer x
    with a@x = f (f = 0 when not given), or None for x when there is none.

    Both are read off one hermite_normal_form of a stacked over the
    identity: H = [a U; U] for a unimodular U.  The first r = rank a
    columns of a U are the independent pivot columns h_j of the lattice
    basis of a, and the others are 0.  So a U y = 0 exactly when y_j = 0
    for j < r, and the last n - r columns of U are a basis of the integer
    kernel.  f = sum c_j h_j with integer c_j exactly when f lies in the
    lattice of a, and then x = sum c_j U_j.  H and that basis are kept on a.
    """
    d, n = a.rows, a.cols
    columns = a._stacked_hnf._columns
    kernel = tuple(column[d:] for column in columns[a._lattice.rank:])
    if f is None:
        return kernel, (0,) * n
    coeffs = a._lattice.contains(tuple(map(operator.index, f)))
    if coeffs is None:
        return kernel, None
    x = [0] * n
    for k, column in zip(coeffs, columns):
        for i, u in enumerate(column[d:]):
            x[i] += k * u
    return kernel, tuple(x)


# ---------------------------------------------------------------------------
# fraction-free elimination

def eliminate(row, prow, support, p, d, col):
    """Row x after the pivot on entry p in column col of row y = prow,
    whose nonzero entries are support, when d is the previous pivot:
    (p*x - f*y) // d with f = x[col], as a new list, or row itself when
    nothing changes.  When p = d a row with f = 0 stays as it is, and one
    with f != 0 changes only on support, by f*y // d, exact since d
    divides p*x and p*x - f*y.
    """
    f = row[col]
    if p != d:
        if f:
            return [(p * x - f * y) // d for x, y in zip(row, prow)]
        return [p * x // d for x in row]
    if not f:
        return row
    row = row[:]
    for j, y in support:
        row[j] -= f * y // d
    return row


def gauss_jordan(rows, width: int) -> tuple[list[int], list[list[int]], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix,
    pivoting left to right in its first width columns.

    Returns (pivots, reduced, D, sign): the pivot columns, those of the
    first width independent of the ones before them; D times the reduced
    row echelon form, whose rows after the len(pivots) pivot rows are 0 in
    the first width columns; D, the last pivot (1 if there is none); and
    the sign of the row swaps, so that sign * D is the determinant of a
    nonsingular square matrix.

    A pivot on entry p of row y sets every other row x to (p*x - f*y) // d
    (eliminate), f being x's entry in the pivot column and d the previous
    pivot.  Each division is exact.  After k pivots, let M be the block of
    the pivot rows and columns; the rows are D times those of the rational
    elimination, with D = det M.  Pivot row i holds D (M^-1 b)_i for each
    column b, a k x k minor by Cramer's rule, and another row with entries
    c in the pivot columns and e in column b holds D (e - c M^-1 b), the
    (k + 1) x (k + 1) minor det [[M, b], [c, e]] by Sylvester's identity.
    So every quotient is an integer, which floor division finds.
    """
    w = [list(row) for row in rows]
    pivots: list[int] = []
    d, sign = 1, 1
    for c in range(width):
        r = len(pivots)
        if r == len(w):
            break
        pr = next((i for i in range(r, len(w)) if w[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            w[r], w[pr] = w[pr], w[r]
            sign = -sign
        prow = w[r]
        p = prow[c]
        support = [(j, y) for j, y in enumerate(prow) if y]
        for i in range(len(w)):
            if i != r:
                w[i] = eliminate(w[i], prow, support, p, d, c)
        pivots.append(c)
        d = p
    return pivots, w, d, sign


def solve_rational_affine(a: IntMatrix, b) -> tuple[RatVector, tuple[RatVector, ...]] | None:
    """Particular solution and rational kernel basis of A x = b, b integer,
    if solvable, read off one gauss_jordan of [A | b].

    The particular solution sets all free variables to zero; kernel basis
    vectors have a single free variable set to one.
    """
    n = a.cols
    if len(b) != a.rows:
        raise ValueError("right-hand side has wrong dimension")
    pivots, m, d, _ = gauss_jordan(
        [list(row) + [operator.index(x)] for row, x in zip(a.entries, b)], n)
    if any(row[n] for row in m[len(pivots):]):
        return None
    particular = [Fraction(0)] * n
    for row, c in zip(m, pivots):
        particular[c] = Fraction(row[n], d)
    kernel = []
    for fc in [c for c in range(n) if c not in pivots]:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, c in zip(m, pivots):
            vec[c] = Fraction(-row[fc], d)
        kernel.append(tuple(vec))
    return tuple(particular), tuple(kernel)


# ---------------------------------------------------------------------------
# determinants and the bound ingredients

def integer_determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, by gauss_jordan."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    pivots, _, d, sign = gauss_jordan(rows, n)
    return sign * d if len(pivots) == n else 0


def max_abs_subdeterminant(a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> int:
    """Largest |det| over all maximal (rows x rows) column selections.

    Intrinsically exponential; guarded by limits.max_subsets.  A matrix
    with d <= n has full row rank exactly when some maximal minor is nonzero.
    """
    d, n = a.rows, a.cols
    if d > n:
        raise RankDeficientError("matrix must have full row rank")
    count = comb(n, d)
    if count > limits.max_subsets:
        raise ResourceLimitError("column subsets for subdeterminants", limits.max_subsets)
    best = 0
    for cols in combinations(range(n), d):
        det = integer_determinant([[a.entries[i][j] for j in cols] for i in range(d)])
        if abs(det) > best:
            best = abs(det)
    if best == 0:
        raise RankDeficientError("matrix must have full row rank")
    return best


def row_sum_bound(a: IntMatrix) -> int:
    """Largest row sum of absolute values, the hole-entry bound ingredient."""
    return max(sum(abs(x) for x in row) for row in a.entries)
