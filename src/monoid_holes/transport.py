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

from .dioph import nonnegative_solution
from .errors import InternalInconsistencyError
from .intlinalg import (
    IntMatrix,
    IntVector,
    RatVector,
    lattice_basis,
    solve_rational_affine,
    vec_add,
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
    dims = VLACH_DIMS
    return transportation_matrix(dims), margins_to_vector(dims, vlach_margins())


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
# the verification pipeline for the 3 x 4 x 6 hole

class VlachReport(Record):
    f: IntVector
    z_star: RatVector | None
    support: tuple[tuple[int, int, int], ...]
    non_hole_witnesses: tuple[tuple[tuple[int, int, int], IntVector], ...]
    f_is_hole: bool
    f_is_fundamental_checked: bool
    unique_real_solution: bool
    holes_are_f_plus_monoid_a_prime: bool  # A' is the support columns
    diagnostics: tuple[str, ...]

    def all_true(self) -> bool:
        return (self.f_is_hole and self.f_is_fundamental_checked
                and self.unique_real_solution and self.holes_are_f_plus_monoid_a_prime)


def _refuted(f: IntVector, diagnostic: str) -> VlachReport:
    return VlachReport(f, None, (), (), False, False, False, False, (diagnostic,))


def verify_vlach(limits: Limits = DEFAULT_LIMITS) -> VlachReport:
    """Re-derive every claim about the 3 x 4 x 6 hole mechanically, with no LP.

    Steps: prove the unique real point z* of the margin polytope from the
    zero margins and the support solve; produce integer witnesses for the
    48 incremented-margin systems, each checked on the matrix, which put
    the margin vector in the lattice; conclude it is a hole; derive
    fundamentality from the unique real point; and confirm the remaining
    holes are exactly the support-column translates.
    """
    dims = VLACH_DIMS
    a, f = vlach_instance()
    diagnostics: list[str] = []

    # y, the sum of the zero-margin rows, has y.f = 0 and y.a_c >= 0 on
    # every column, since A is 0/1; so every real x >= 0 with Ax = f is 0 on
    # each cell that meets a zero margin.  The other cells are the support,
    # and when their columns are independent, x on them is the support solve.
    # The support columns are 0 on the zero rows, which read 0 = 0 there, so
    # the solve runs on the other rows alone
    zero_rows = [i for i in range(a.rows) if f[i] == 0]
    support_cols = tuple(c for c in range(a.cols)
                         if not any(a.entries[i][c] for i in zero_rows))
    off_support = tuple(c for c in range(a.cols) if c not in support_cols)
    triples = dims.triples()
    solved = solve_rational_affine(
        IntMatrix.from_rows([[row[c] for c in support_cols] for row, x in zip(a.entries, f) if x]),
        [x for x in f if x])
    if solved is not None and solved[1]:
        return _refuted(f, "support columns are rank deficient: "
                           "the real point is not proved unique")
    if solved is None or any(x < 0 for x in solved[0]):
        return _refuted(f, "margin system is not real feasible")
    on_support = dict(zip(support_cols, solved[0]))
    z_star = tuple(on_support.get(c, Fraction(0)) for c in range(a.cols))
    half = Fraction(1, 2)
    if len(support_cols) != 24 or not all(x in (0, half) for x in z_star):
        diagnostics.append("real witness is not the expected half-integral point")

    # explicit witnesses: every off-support increment is integer feasible.
    # f + a_c is nonnegative and lies in the span, as f and a_c do, so the
    # search needs none of table_feasible's checks
    witnesses = []
    failed: list[str] = []  # diagnostics, reported after the others
    lines = _margin_lines(dims)
    for c in off_support:
        incremented = vec_add(f, a.col(c))
        mu = nonnegative_solution(lines, incremented, limits)
        if mu is None:
            failed.append(f"no integer witness for incremented margins at {triples[c]}")
        elif a.mul_vector(mu) != incremented:
            failed.append(f"witness margins mismatch at {triples[c]}")
        else:
            witnesses.append((triples[c], tuple(mu)))

    # a checked witness mu at c gives f = A (mu - e_c), an integer preimage
    # of f; only without one does the Hermite normal form decide
    in_lattice = bool(witnesses) or lattice_basis(a).contains(f) is not None
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
                       unique_real_solution=True,
                       holes_are_f_plus_monoid_a_prime=holes_flag and not failed,
                       diagnostics=tuple(diagnostics + failed))
