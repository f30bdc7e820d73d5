"""Exact rational polyhedral computations.

The equations and facets of a finitely generated cone from one double
description on its dual, a grading certifying pointedness read off those
facets, and a two-phase exact simplex with Bland's anti-cycling rule for
systems A x = b, x >= 0 with integer data.

The simplex runs on an integer-preserving tableau (Bareiss/Edmonds pivots
over one common denominator), so its pivot loop does no rational
arithmetic.  Each LP verdict comes with a certificate that is checked
before the verdict is returned: a feasible point, or Farkas multipliers
proving infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import itemgetter

from .errors import InternalInconsistencyError, NotPointedError, ResourceLimitError
from .intlinalg import (
    IntMatrix,
    IntVector,
    RatVector,
    primitive_vector,
    unit_vector,
    vec_add,
    vec_dot,
    vec_is_zero,
)
from .limits import DEFAULT_LIMITS, Limits

GE = "ge"
EQ = "eq"


@dataclass(frozen=True)
class InequalitySystem:
    """Rows a.x >= rhs or a.x = rhs over free rational variables."""

    matrix: tuple[tuple, ...]
    senses: tuple[str, ...]
    rhs: tuple

    def __post_init__(self):
        if not (len(self.matrix) == len(self.senses) == len(self.rhs)):
            raise ValueError("row count mismatch between matrix, senses and rhs")
        width = len(self.matrix[0]) if self.matrix else 0
        for row in self.matrix:
            if len(row) != width:
                raise ValueError("ragged constraint rows")
            for x in row:
                if not isinstance(x, (int, Fraction)):
                    raise TypeError("constraint coefficients must be int or Fraction")
        for s in self.senses:
            if s not in (GE, EQ):
                raise ValueError(f"unknown sense {s!r}")
        for x in self.rhs:
            if not isinstance(x, (int, Fraction)):
                raise TypeError("rhs entries must be int or Fraction")

    @classmethod
    def from_rows(cls, rows) -> "InequalitySystem":
        mat, senses, rhs = [], [], []
        for coeffs, sense, b in rows:
            mat.append(tuple(coeffs))
            senses.append(sense)
            rhs.append(b)
        return cls(tuple(mat), tuple(senses), tuple(rhs))

    def satisfied_by(self, x) -> bool:
        # clear the denominators of x once, so integer rows check in integers
        scale = lcm(*(c.denominator for c in x))
        x = [c.numerator * (scale // c.denominator) for c in x]
        for row, sense, b in zip(self.matrix, self.senses, self.rhs):
            v = vec_dot(row, x)
            b *= scale
            if sense == EQ and v != b:
                return False
            if sense == GE and v < b:
                return False
        return True


@dataclass(frozen=True)
class FeasibilitySystem:
    """The equations matrix x = rhs over variables x >= 0, all data integer."""

    matrix: IntMatrix
    rhs: IntVector

    def __post_init__(self):
        if len(self.rhs) != self.matrix.rows:
            raise ValueError("rhs length does not match the equation count")
        for b in self.rhs:
            if not isinstance(b, int):
                raise TypeError("rhs entries must be int")

    @property
    def num_vars(self) -> int:
        return self.matrix.cols

    @property
    def num_rows(self) -> int:
        """The equations and the sign constraints x_j >= 0 together."""
        return self.matrix.rows + self.matrix.cols

    def satisfied_by(self, x) -> bool:
        if len(x) != self.num_vars or any(c < 0 for c in x):
            return False
        # clear the denominators of x once, so the rows check in integers;
        # only the nonzero coordinates of x contribute to a row's value
        scale = lcm(*(c.denominator for c in x))
        support = [(j, c.numerator * (scale // c.denominator)) for j, c in enumerate(x) if c]
        return all(sum(row[j] * c for j, c in support) == b * scale
                   for row, b in zip(self.matrix.entries, self.rhs))

    def refuted_by(self, multipliers) -> bool:
        """Whether the equation multipliers y prove that no x >= 0 solves
        the system: that holds (Farkas) when y.matrix <= 0 on every column
        and y.rhs > 0."""
        if len(multipliers) != self.matrix.rows:
            return False
        return (all(vec_dot(multipliers, column) <= 0 for column in self.matrix.columns())
                and vec_dot(multipliers, self.rhs) > 0)


def feasibility_system(a: IntMatrix, b) -> FeasibilitySystem:
    """The system a x = b over x >= 0."""
    return FeasibilitySystem(a, tuple(b))


@dataclass(frozen=True)
class LPResult:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None
    witness: RatVector | None
    farkas: tuple | None = None  # equation multipliers refuting an infeasible system


# ---------------------------------------------------------------------------
# exact two-phase simplex on an integer-preserving tableau
#
# Every tableau row, the objective row included, holds integers: the true
# rational row times D, the determinant of the current basis (Bareiss 1968,
# Edmonds 1967).  Pivoting on entry p of row y makes p the new D and sets
# every other row x to (p*x - f*y) // D, where f is x's entry in the pivot
# column; Sylvester's identity makes each division exact.  D stays positive,
# so every sign test and every ratio comparison has the outcome it has on
# the rational tableau of the same rows, and so has every pivot choice.
#
# A pivot does work only where it changes something.  A row whose entry f
# in the pivot column is 0 becomes p*x // D, so when p = D, as on most
# pivots, it stays as it is and only the rows with f != 0 are touched.
# Each of those changes only on the pivot row's support, by f*y // D, which
# is exact: D divides both p*x and p*x - f*y, hence f*y.  When p != D every
# row is rescaled in full.  Pivots replace the rows they change and never
# edit a row of the tableau in place, so two tableaux may share rows.

def _eliminate(row, prow, support, p, d, enter):
    """Row x after the pivot on entry p of row y = prow, whose nonzero
    entries are support; row itself when nothing changes."""
    f = row[enter]
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


def _pivot(tab, zrow, basis, d, leave, enter) -> int:
    """Pivot on tab[leave][enter]; returns the new denominator.

    Changed rows of tab are replaced, and zrow, which the caller owns, is
    overwritten.
    """
    prow = tab[leave]
    p = prow[enter]
    if p < 0:
        # only driving artificials out pivots on a negative entry
        tab[leave] = prow = [-x for x in prow]
        p = -p
    support = [(j, prow[j]) for j in compress(range(len(prow)), prow)]
    changed = range(len(tab))
    if p == d:
        # only the rows with f != 0 change
        changed = list(compress(changed, map(itemgetter(enter), tab)))
    for i in changed:
        if i != leave:
            tab[i] = _eliminate(tab[i], prow, support, p, d, enter)
    if zrow is not None:
        zrow[:] = _eliminate(zrow, prow, support, p, d, enter)
    basis[leave] = enter
    return p


def _run_simplex(tab, basis, zrow, d, allowed_cols) -> tuple[str, int]:
    """Minimize over the tableau in place. Bland's rule throughout.

    zrow is the priced-out objective row; returns the status and the final
    denominator.
    """
    while True:
        enter = None
        for j in allowed_cols:
            if zrow[j] < 0:
                enter = j
                break
        if enter is None:
            return "optimal", d
        leave = None
        for i, row in enumerate(tab):
            t = row[enter]
            if t > 0:
                # compare row[-1] / t with best_b / best_t; both t are positive
                if leave is None:
                    leave, best_b, best_t = i, row[-1], t
                    continue
                lhs, rhs = row[-1] * best_t, best_b * t
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_b, best_t = i, row[-1], t
        if leave is None:
            return "unbounded", d
        d = _pivot(tab, zrow, basis, d, leave, enter)


class _Phase1:
    """Feasible tableau (phase 1 already solved) for one constraint system.

    An infeasible system keeps Farkas multipliers in `farkas`, checked
    against the system before they are stored.
    """

    def __init__(self, system: FeasibilitySystem):
        self.system = system
        n, m = system.matrix.cols, system.matrix.rows
        # rows with a negative rhs are negated, so the artificials start
        # feasible; artificial i is column n + i
        signs = [-1 if b < 0 else 1 for b in system.rhs]
        tab = []
        for i, (s, row, b) in enumerate(zip(signs, system.matrix.entries, system.rhs)):
            artificials = [0] * m
            artificials[i] = 1
            tab.append([s * x for x in row] + artificials + [s * b])
        basis = list(range(n, n + m))
        # cost 1 on every artificial, priced out against the artificial basis:
        # minus the column sums of the real columns and of the rhs
        zrow = [-sum(column) for column in zip(*tab)]
        zrow[n:n + m] = [0] * m
        status, d = _run_simplex(tab, basis, zrow, 1, range(n + m))
        assert status == "optimal"  # phase 1 objective is bounded below by 0
        if zrow[-1] != 0:
            # the dual of phase 1 has y_i = 1 - z_i on artificial i, and
            # y.A <= 0 < y.b at the optimum
            self.farkas = tuple(s * (d - z) for s, z in zip(signs, zrow[n:n + m]))
            if not system.refuted_by(self.farkas):
                raise InternalInconsistencyError(
                    "LP infeasibility certificate failed its integer check")
            self.feasible = False
            return
        self.feasible = True
        self.farkas = None
        # drive artificials out of the basis, dropping redundant rows
        keep = []
        for i in range(len(tab)):
            if basis[i] >= n:
                enter = next((j for j in range(n) if tab[i][j] != 0), None)
                if enter is None:
                    continue  # redundant row
                d = _pivot(tab, None, basis, d, i, enter)
            keep.append(i)
        self.tab = [tab[i][:n] + [tab[i][-1]] for i in keep]
        self.basis = [basis[i] for i in keep]
        self.d = d

    def solve(self, objective, sense: str) -> LPResult:
        """Phase 2 for one objective; leaves the stored tableau untouched.

        An infeasible system gets its Farkas multipliers, whatever the
        objective, once the objective is well formed.
        """
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        if len(objective) != self.system.num_vars:
            raise ValueError("objective length does not match variable count")
        if not self.feasible:
            return LPResult("infeasible", None, None, self.farkas)
        # minimize sign * scale * objective, an integer cost with the same pivots
        sign = 1 if sense == "min" else -1
        scale = lcm(*(c.denominator for c in objective))
        cost = [sign * c.numerator * (scale // c.denominator) for c in objective]
        tab = self.tab[:]
        basis = self.basis[:]
        d = self.d
        zrow = [d * c for c in cost] + [0]
        for row, bi in zip(tab, basis):
            if cost[bi]:
                cb = cost[bi]
                zrow = [z - cb * x for z, x in zip(zrow, row)]
        status, d = _run_simplex(tab, basis, zrow, d, range(len(cost)))
        point = [0] * len(cost)
        for row, bi in zip(tab, basis):
            point[bi] = row[-1]
        witness = tuple(Fraction(x, d) for x in point)
        if not self.system.satisfied_by(witness):
            raise InternalInconsistencyError("LP witness violates its own system")
        if status == "unbounded":
            return LPResult("unbounded", None, witness)
        return LPResult("optimal", Fraction(-sign * zrow[-1], d * scale), witness)


def lp_exact(system: FeasibilitySystem, objective, sense: str = "min") -> LPResult:
    """Exact rational LP over {x >= 0 : matrix x = rhs}.

    Every verdict is checked before it is returned: the witness against the
    system, and for an infeasible system the Farkas multipliers in `farkas`,
    one per equation.
    """
    return _Phase1(system).solve(objective, sense)


def maximize_each(system: FeasibilitySystem, objectives) -> list[LPResult]:
    """Maximize several objectives over one feasible region, sharing phase 1."""
    phase1 = _Phase1(system)
    return [phase1.solve(obj, "max") for obj in objectives]


# ---------------------------------------------------------------------------
# double description: the dual cone

def _tight_set(vector, cols, upto) -> frozenset[int]:
    return frozenset(p for p in range(upto) if vec_dot(vector, cols[p]) == 0)


def _extreme_rays_dual(cols: list[IntVector], dim: int,
                       limits: Limits) -> tuple[list[IntVector], list[IntVector]]:
    """The lineality basis and the extreme rays of {y : y.c >= 0 for all c
    in cols}, every vector primitive.

    Incremental double description starting from full space (Fukuda &
    Prodon 1996).  The lineality left at the end is the space orthogonal
    to every column, and the rays are the extreme rays modulo it.
    """
    lin: list[IntVector] = [unit_vector(dim, i) for i in range(dim)]
    rays: list[IntVector] = []
    for idx, a in enumerate(cols):
        lin_vals = [vec_dot(l, a) for l in lin]
        if any(lin_vals):
            k = next(i for i, v in enumerate(lin_vals) if v)
            l0, v0 = lin[k], lin_vals[k]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            new_lin = []
            for i, l in enumerate(lin):
                if i == k:
                    continue
                v = vec_dot(l, a)
                new_lin.append(primitive_vector(tuple(v0 * x - v * y for x, y in zip(l, l0))))
            new_rays = []
            for r in rays:
                v = vec_dot(r, a)
                new_rays.append(primitive_vector(tuple(v0 * x - v * y for x, y in zip(r, l0))))
            new_rays.append(primitive_vector(l0))
            lin, rays = new_lin, new_rays
        else:
            vals = [vec_dot(r, a) for r in rays]
            pos = [r for r, v in zip(rays, vals) if v > 0]
            zer = [r for r, v in zip(rays, vals) if v == 0]
            neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
            if neg:
                tights = {r: _tight_set(r, cols, idx) for r in rays}
                combos = []
                for rp in pos:
                    vp = vec_dot(rp, a)
                    for rn, vn in neg:
                        common = tights[rp] & tights[rn]
                        adjacent = True
                        for other in rays:
                            if other == rp or other == rn:
                                continue
                            if common <= tights[other]:
                                adjacent = False
                                break
                        if adjacent:
                            combo = tuple(vp * x - vn * y for x, y in zip(rn, rp))
                            combos.append(primitive_vector(combo))
                rays = pos + zer + combos
        # lineality projection and combinations can produce repeats or the
        # zero vector; both would poison the adjacency test
        cleaned = []
        seen_now = set()
        for r in rays:
            if vec_is_zero(r) or r in seen_now:
                continue
            seen_now.add(r)
            cleaned.append(r)
        rays = cleaned
        if len(rays) > limits.max_rays:
            raise ResourceLimitError("intermediate rays in facet enumeration", limits.max_rays)
    return lin, rays


# ---------------------------------------------------------------------------
# cone descriptions

def _nonzero_columns(a: IntMatrix) -> list[IntVector]:
    # zero columns generate nothing; dropping them avoids degenerate rays
    seen = set()
    out = []
    for column in a.columns():
        if vec_is_zero(column) or column in seen:
            continue
        seen.add(column)
        out.append(column)
    return out


def cone_facets(a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> InequalitySystem:
    """Inequality description of the cone generated by the columns of a.

    Equality rows pin the linear span, inequality rows are the facets of
    the cone inside its span; together {z : rows hold} equals cone(a).
    Both come from one double description of the dual cone: its lineality
    is the left kernel of a, and its extreme rays are the facets.  Every
    row is a primitive integer vector with zero right-hand side; an
    equality row has a positive first nonzero entry.
    """
    lin, rays = _extreme_rays_dual(_nonzero_columns(a), a.rows, limits)
    eq_rows = [row if next(x for x in row if x) > 0 else tuple(-x for x in row)
               for row in lin]
    rows = [(row, EQ, 0) for row in sorted(eq_rows)]
    rows += [(row, GE, 0) for row in sorted(rays)]
    return InequalitySystem.from_rows(rows)


def positive_functional(a: IntMatrix, facets: InequalitySystem) -> IntVector:
    """A primitive integer y with y.col >= 1 for every nonzero column of a:
    the sum of the inequality rows of cone(a)'s facets.

    That sum vanishes on a point of the cone only when the point lies in
    the cone's lineality space, which the columns in it span; so it is
    positive on every nonzero column exactly when the cone is pointed.
    Used as a termination grading.
    """
    total = (0,) * a.rows
    for row, sense in zip(facets.matrix, facets.senses):
        if sense == GE:
            total = vec_add(total, row)
    grading = primitive_vector(total)
    if any(vec_dot(grading, column) <= 0 for column in _nonzero_columns(a)):
        raise NotPointedError("cone contains a line; no strictly positive functional")
    return grading
