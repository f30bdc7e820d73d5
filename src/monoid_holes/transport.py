"""Three-dimensional transportation problems.

Constraint matrices for r x s x t tables with prescribed two-dimensional
margins, integer feasibility of a margin triple through the search for
nonnegative systems in dioph, and the verification pipeline that
certifies the classical 3 x 4 x 6 margin triple as a fundamental hole
whose translates form an infinite hole family.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import permutations, product

from .dioph import nonnegative_solution
from .errors import InternalInconsistencyError
from .intlinalg import (
    IntMatrix,
    IntVector,
    RatVector,
    lattice_basis,
    solve_rational_affine,
)
from .limits import DEFAULT_LIMITS, Limits
from .records import Record


class TransportDims(Record):
    r: int
    s: int
    t: int

    def __post_init__(self):
        # operator.index is lossless: floats are rejected, not truncated
        for name in self._fields:
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if min(self.r, self.s, self.t) < 1:
            raise ValueError("table dimensions must be positive")

    @property
    def num_rows(self) -> int:
        return self.s * self.t + self.r * self.t + self.r * self.s

    @property
    def num_cols(self) -> int:
        return self.r * self.s * self.t

    def u_row(self, j: int, k: int) -> int:
        return j * self.t + k

    def v_row(self, i: int, k: int) -> int:
        return self.s * self.t + i * self.t + k

    def w_row(self, i: int, j: int) -> int:
        return self.s * self.t + self.r * self.t + i * self.s + j

    def col(self, i: int, j: int, k: int) -> int:
        return (i * self.s + j) * self.t + k

    def triples(self) -> list[tuple[int, int, int]]:
        return [(i, j, k) for i in range(self.r) for j in range(self.s) for k in range(self.t)]


class MarginTriple(Record):
    """Two-dimensional margins: u over (j,k), v over (i,k), w over (i,j)."""

    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]
    w: tuple[tuple[int, ...], ...]

    @classmethod
    def from_lists(cls, u, v, w) -> "MarginTriple":
        # operator.index is lossless: floats are rejected, not truncated
        conv = lambda m: tuple(tuple(operator.index(x) for x in row) for row in m)
        return cls(conv(u), conv(v), conv(w))

    def dims(self) -> TransportDims:
        s, t = len(self.u), len(self.u[0]) if self.u else 0
        r = len(self.v)
        d = TransportDims(r, s, t)
        widths = [len(row) for block in (self.u, self.v, self.w) for row in block]
        if widths != [t] * (s + r) + [s] * r:
            raise ValueError("margin blocks have inconsistent shapes")
        return d

    def is_consistent(self) -> bool:
        """Whether the two-dimensional margins agree on every one-dimensional
        margin: the i-sums of v and w, the j-sums of u and w and the k-sums
        of u and v.  This holds exactly when the margin vector lies in the
        span of the transportation matrix, so it is the condition for a
        real table with possibly negative cells."""
        u, v, w = self.u, self.v, self.w
        return ([sum(row) for row in v] == [sum(row) for row in w]
                and [sum(row) for row in u] == [sum(col) for col in zip(*w)]
                and [sum(col) for col in zip(*u)] == [sum(col) for col in zip(*v)])

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for m in (self.u, self.v, self.w) for row in m for x in row)


def transportation_matrix(dims: TransportDims) -> IntMatrix:
    """0/1 constraint matrix; rows are the u, v, w margin equations in that
    order, columns are the table cells (i,j,k) lexicographically."""
    d, n = dims.num_rows, dims.num_cols
    rows = [[0] * n for _ in range(d)]
    for (i, j, k) in dims.triples():
        c = dims.col(i, j, k)
        rows[dims.u_row(j, k)][c] = 1
        rows[dims.v_row(i, k)][c] = 1
        rows[dims.w_row(i, j)][c] = 1
    return IntMatrix.from_rows(rows)


def margins_to_vector(dims: TransportDims, m: MarginTriple) -> IntVector:
    """The u, v and w blocks, each read row by row: the row order of
    transportation_matrix."""
    if m.dims() != dims:
        raise ValueError("margins do not match the stated dimensions")
    return tuple(x for block in (m.u, m.v, m.w) for row in block for x in row)


# ---------------------------------------------------------------------------
# the 3 x 4 x 6 instance with a fundamental hole

_VLACH_W = ((1, 1, 1, 1),
            (1, 1, 1, 1),
            (1, 1, 1, 1))

_VLACH_V = ((1, 1, 1, 1, 0, 0),
            (1, 1, 0, 0, 1, 1),
            (0, 0, 1, 1, 1, 1))

_VLACH_U = ((1, 0, 1, 0, 1, 0),
            (0, 1, 1, 0, 0, 1),
            (0, 1, 0, 1, 1, 0),
            (1, 0, 0, 1, 0, 1))

VLACH_DIMS = TransportDims(3, 4, 6)


def vlach_margins() -> MarginTriple:
    return MarginTriple(_VLACH_U, _VLACH_V, _VLACH_W)


def vlach_instance() -> tuple[IntMatrix, IntVector]:
    """The 3 x 4 x 6 constraint matrix and the margin vector that is real-
    but not integer-feasible."""
    return transportation_matrix(VLACH_DIMS), margins_to_vector(VLACH_DIMS, vlach_margins())


# ---------------------------------------------------------------------------
# integer feasibility for margin triples

def _margin_lines(dims: TransportDims):
    # the margin system for nonnegative_solution: each cell lies on its u,
    # v and w line with weight 1
    return [((dims.u_row(j, k), 1), (dims.v_row(i, k), 1), (dims.w_row(i, j), 1))
            for (i, j, k) in dims.triples()]


def table_feasible(dims: TransportDims, margins: MarginTriple,
                   limits: Limits = DEFAULT_LIMITS):
    """An integer table with the given margins, or None when none exists.

    Negative margins and margins off the span (is_consistent) have no
    table; the rest are decided by dioph.nonnegative_solution on the
    margin system.  Tables come back as nested (r, s, t) tuples, checked
    cell by cell against the margins.  Raises ResourceLimitError rather
    than guessing when the node budget runs out.
    """
    f = margins_to_vector(dims, margins)
    if not margins.is_nonnegative() or not margins.is_consistent():
        return None
    flat = nonnegative_solution(_margin_lines(dims), f, limits)
    if flat is None:
        return None
    table = tuple(
        tuple(tuple(flat[dims.col(i, j, k)] for k in range(dims.t))
              for j in range(dims.s))
        for i in range(dims.r))
    sums = MarginTriple(tuple(tuple(map(sum, zip(*rows))) for rows in zip(*table)),
                        tuple(tuple(map(sum, zip(*plane))) for plane in table),
                        tuple(tuple(map(sum, plane)) for plane in table))
    if margins_to_vector(dims, sums) != f or any(x < 0 for x in flat):
        raise InternalInconsistencyError("table does not have the given margins")
    return table


# ---------------------------------------------------------------------------
# cell permutations that fix a margin vector

def _margin_symmetries(dims: TransportDims, f: IntVector) -> list[tuple[int, ...]]:
    """The cell permutations g: (i, j, k) -> (pi i, sigma j, tau k) that fix
    the margin vector f, each as the tuple of g(c) over the columns c, the
    identity first.

    g permutes the margin rows as well, u(j, k) to u(sigma j, tau k), v(i, k)
    to v(pi i, tau k) and w(i, j) to w(pi i, sigma j), and it fixes f when
    u[sigma j][tau k] = u[j][k], v[pi i][tau k] = v[i][k] and
    w[pi i][sigma j] = w[i][j].  So pi moves the k-columns of v, each read
    over i, onto the same multiset, and sigma those of u; only such pi and
    sigma are kept, and each pair is checked on w.  tau then sends each k to
    a k' whose v- and u-columns are those of k moved by pi and sigma: it maps
    each class of k with equal column pairs onto one class of the same size,
    in any order, so the taus are read off the classes and S_t is never
    enumerated.
    """
    r, s, t = dims.r, dims.s, dims.t
    v_cols = [tuple(f[dims.v_row(i, k)] for i in range(r)) for k in range(t)]
    u_cols = [tuple(f[dims.u_row(j, k)] for j in range(s)) for k in range(t)]
    w = [[f[dims.w_row(i, j)] for j in range(s)] for i in range(r)]

    def keeping(cols, n):
        # (perm, the columns moved by it) for each perm of the n rows that
        # keeps the multiset of columns; entry x of a column moves to perm[x]
        kept, want, rows = [], sorted(cols), list(zip(*cols))
        for perm in permutations(range(n)):
            moved = list(zip(*map(rows.__getitem__, sorted(range(n), key=perm.__getitem__))))
            if sorted(moved) == want:
                kept.append((perm, moved))
        return kept

    classes: dict[tuple, list[int]] = {}
    for k, pair in enumerate(zip(v_cols, u_cols)):
        classes.setdefault(pair, []).append(k)
    sigmas = keeping(u_cols, s)
    group = []
    for pi, v_moved in keeping(v_cols, r):
        for sigma, u_moved in sigmas:
            targets = []
            for ks in classes.values():
                to = classes.get((v_moved[ks[0]], u_moved[ks[0]]), ())
                if len(to) != len(ks):
                    break
                targets.append(to)
            if len(targets) < len(classes) or [[w[p][q] for q in sigma] for p in pi] != w:
                continue
            # dims.col(pi i, sigma j, tau k) over the cells in order
            bases = [(p * s + q) * t for p in pi for q in sigma]
            for images in product(*map(permutations, targets)):
                tau = [0] * t
                for ks, to in zip(classes.values(), images):
                    for k, image in zip(ks, to):
                        tau[k] = image
                group.append(tuple([base + x for base in bases for x in tau]))
    return group


# ---------------------------------------------------------------------------
# the verification pipeline for the 3 x 4 x 6 hole

class VlachReport(Record):
    f: IntVector
    z_star: RatVector | None  # the unique real point; None when it is not proved
    support: tuple[tuple[int, int, int], ...]
    non_hole_witnesses: tuple[tuple[tuple[int, int, int], IntVector], ...]
    f_is_hole: bool
    f_is_fundamental_checked: bool
    holes_are_f_plus_monoid_a_prime: bool  # A' is the support columns
    diagnostics: tuple[str, ...]

    def all_true(self) -> bool:
        return (self.f_is_hole and self.f_is_fundamental_checked
                and self.z_star is not None and self.holes_are_f_plus_monoid_a_prime)


def _refuted(f: IntVector, diagnostic: str) -> VlachReport:
    return VlachReport(f, None, (), (), False, False, False, (diagnostic,))


def _moved(mu, g: tuple[int, ...]) -> IntVector:
    # the table P_g mu, which holds mu[x] at cell g(x)
    moved = [0] * len(mu)
    for x, value in zip(g, mu):
        moved[x] = value
    return tuple(moved)


def _line_sums(lines, x, start) -> IntVector:
    # start + A x, where column c of A has the (row, entry) pairs lines[c]
    sums = list(start)
    for xc, line in filter(operator.itemgetter(0), zip(x, lines)):
        for i, e in line:
            sums[i] += xc * e
    return tuple(sums)


def verify_vlach(limits: Limits = DEFAULT_LIMITS) -> VlachReport:
    """Re-derive every claim about the 3 x 4 x 6 hole mechanically, with no LP.

    Steps: prove the unique real point z* of the margin polytope from the
    zero margins and the support solve; produce integer witnesses for the
    48 incremented-margin systems, each checked by its margins, which put
    the margin vector in the lattice; conclude it is a hole; derive
    fundamentality from the unique real point; and confirm the remaining
    holes are exactly the support-column translates.  All of it reads f and
    the margin lines, the sparse columns of the transportation matrix A,
    which is built only when no witness passes.  The support solve takes
    each row at the first support cell on it, a cell's w, v and u rows in
    turn: fraction-free elimination then rescales a whole row in 70 of its
    840 row updates, against 210 in the u, v, w order and 105 reversed.

    The witnesses come from one table search per orbit of the cell
    permutations that fix f (_margin_symmetries): on the paper's f, 24
    permutations split the 48 off-support cells into orbits of 24, 12 and
    12, so 3 cells are searched, the first of each orbit in cell order.  A
    cell permutation g, with P_g e_x = e_g(x), moves the margin rows by a
    permutation P'_g and maps each column of A to another: A P_g = P'_g A.
    When P'_g f = f and A mu = f + a_c, the moved table P_g mu, which holds
    mu[x] at g(x), has A (P_g mu) = P'_g (f + a_c) = f + a_g(c), and it is
    nonnegative and integral with mu.  Every table, searched or moved, is
    still checked by A mu = f + a_c, and a failure names its own cell; when
    a search finds no table, none of its orbit has one, as g is a bijection
    between the tables of f + a_c and those of f + a_g(c).  The group and
    the tables are derived in each call.
    """
    dims = VLACH_DIMS
    lines, f = _margin_lines(dims), margins_to_vector(dims, vlach_margins())
    diagnostics: list[str] = []

    # y, the sum of the zero-margin rows, has y.f = 0 and y.a_c >= 0 on
    # every column, since A is 0/1; so every real x >= 0 with Ax = f is 0 on
    # each cell that meets a zero margin.  The other cells are the support,
    # and when their columns are independent, x on them is the support solve.
    # The support columns are 0 on the zero rows, which read 0 = 0 there, so
    # the solve runs on the other rows alone
    support_cols = tuple(c for c, line in enumerate(lines) if all(f[i] for i, _ in line))
    off_support = tuple(c for c in range(dims.num_cols) if c not in support_cols)
    triples = dims.triples()
    rows = dict.fromkeys([i for c in support_cols for i, _ in reversed(lines[c])]
                         + [i for i, x in enumerate(f) if x])
    columns = [dict(lines[c]) for c in support_cols]
    solved = solve_rational_affine(
        IntMatrix.from_rows([[col.get(i, 0) for col in columns] for i in rows]),
        [f[i] for i in rows])
    if solved is not None and solved[1]:
        return _refuted(f, "support columns are rank deficient: the real point is not proved unique")
    if solved is None or any(x < 0 for x in solved[0]):
        return _refuted(f, "margin system is not real feasible")
    on_support = dict(zip(support_cols, solved[0]))
    z_star = tuple(on_support.get(c, Fraction(0)) for c in range(dims.num_cols))
    half = Fraction(1, 2)
    if len(support_cols) != 24 or not all(x in (0, half) for x in z_star):
        diagnostics.append("real witness is not the expected half-integral point")

    # explicit witnesses: every off-support increment is integer feasible.
    # f + a_c is nonnegative and lies in the span, as f and a_c do, so the
    # search needs none of table_feasible's checks.  Only the first cell of
    # each orbit of f's symmetry group is searched, and its table is moved
    # to the rest of the orbit; every table is checked by its margins
    witnesses = []
    failed: list[str] = []  # diagnostics, reported after the others
    group = _margin_symmetries(dims, f)
    tables: dict[int, IntVector | None] = {}
    for c in off_support:
        incremented = _line_sums([lines[c]], [1], f)  # f + a_c
        if c not in tables:
            # the identity comes first, so c keeps the table found for it
            found = nonnegative_solution(lines, incremented, limits)
            for g in group:
                if g[c] not in tables:
                    tables[g[c]] = None if found is None else _moved(found, g)
        mu = tables[c]
        if mu is None:
            failed.append(f"no integer witness for incremented margins at {triples[c]}")
        elif _line_sums(lines, mu, [0] * len(f)) != incremented:
            failed.append(f"witness margins mismatch at {triples[c]}")
        else:
            witnesses.append((triples[c], mu))

    # a checked witness mu at c gives f = A (mu - e_c), an integer preimage
    # of f; only without one is A built, and its Hermite normal form decides
    in_lattice = bool(witnesses) or lattice_basis(transportation_matrix(dims)).contains(f) is not None
    if not in_lattice:
        diagnostics.append("margin vector is not in the matrix lattice")
    f_is_hole = in_lattice and any(x.denominator != 1 for x in z_star)

    # the hole ideal is generated by the off-support variables: the zero
    # margins of f + A' mu are those of f, so its real points are 0 off the
    # support and z* + mu on it, which is not integral, and no translate by
    # support columns returns to the semigroup
    holes_flag = f_is_hole and all(z_star[c] == half for c in support_cols)

    # fundamentality: f is non-fundamental exactly when f - a_c is a hole
    # for some column c.  If f - a_c = A y with real y >= 0, then y + e_c is
    # a real point of f's polytope; that polytope is {z*} alone, so
    # z*_c >= 1.  Every coordinate of z* is below 1, so no f - a_c is even
    # real feasible, and f is fundamental
    fundamental = all(x < 1 for x in z_star)
    if not fundamental:
        diagnostics.append("fundamentality is not certified: the real point "
                           "has a coordinate of at least 1")

    return VlachReport(f, z_star, tuple(triples[c] for c in support_cols), tuple(witnesses),
                       f_is_hole=f_is_hole, f_is_fundamental_checked=f_is_hole and fundamental,
                       holes_are_f_plus_monoid_a_prime=holes_flag and not failed,
                       diagnostics=tuple(diagnostics + failed))
