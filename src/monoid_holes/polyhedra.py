"""Exact rational polyhedral computations.

Facet descriptions of finitely generated cones (double description on the
dual), a positive functional certifying pointedness, and a two-phase
exact simplex with Bland's anti-cycling rule.

The simplex runs on an integer-preserving tableau (Bareiss/Edmonds pivots
over one common denominator), so its pivot loop does no rational
arithmetic.  Each LP verdict comes with a certificate that is checked
before the verdict is returned: a feasible point, or Farkas multipliers
proving infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import InternalInconsistencyError, NotPointedError, ResourceLimitError
from .intlinalg import (
    IntMatrix,
    IntVector,
    RatVector,
    lattice_basis,
    primitive_vector,
    rational_to_primitive_int,
    solve_rational_affine,
    unit_vector,
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

    @property
    def num_vars(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def num_rows(self) -> int:
        return len(self.matrix)

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

    def refuted_by(self, multipliers) -> bool:
        """Whether the row multipliers prove that no x satisfies the system.

        That holds (Farkas) when the multipliers are nonnegative on GE rows,
        their combination of the rows is <= 0 on every variable that a row
        x_j >= 0 constrains and 0 on every other variable, and their
        combination of the right-hand sides is positive.
        """
        if len(multipliers) != self.num_rows:
            return False
        signed = {_sign_row(*row) for row in zip(self.matrix, self.senses, self.rhs)}
        if any(y < 0 for y, sense in zip(multipliers, self.senses) if sense == GE):
            return False
        for j in range(self.num_vars):
            v = sum(y * row[j] for y, row in zip(multipliers, self.matrix) if y)
            if v > 0 or (v < 0 and j not in signed):
                return False
        return vec_dot(multipliers, self.rhs) > 0


def feasibility_system(a: IntMatrix, b) -> InequalitySystem:
    """The rows a x = b, then x_j >= 0 for every column j."""
    rows = [(a.entries[i], EQ, b[i]) for i in range(a.rows)]
    rows += [(unit_vector(a.cols, j), GE, 0) for j in range(a.cols)]
    return InequalitySystem.from_rows(rows)


def _sign_row(coeffs, sense, b) -> int | None:
    """j when the row reads c * x_j >= 0 with c > 0, else None."""
    if sense != GE or b != 0:
        return None
    support = [j for j, c in enumerate(coeffs) if c]
    if len(support) == 1 and coeffs[support[0]] > 0:
        return support[0]
    return None


@dataclass(frozen=True)
class LPResult:
    status: str                 # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None
    witness: RatVector | None
    farkas: tuple | None = None  # row multipliers refuting an infeasible system


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
# Pivots replace rows and never change one in place.

class _Standardized:
    """Standard-form image of an InequalitySystem: A x = b, x >= 0, b >= 0,
    each row scaled to integers by the lcm of its denominators."""

    def __init__(self, system: InequalitySystem):
        n = system.num_vars
        nonneg = [False] * n
        main = []
        for k, (coeffs, sense, b) in enumerate(zip(system.matrix, system.senses, system.rhs)):
            j = _sign_row(coeffs, sense, b)
            if j is not None:
                nonneg[j] = True
            else:
                main.append((k, coeffs, sense, b))

        # column j of the standard form carries (original var, sign)
        self.col_map: list[tuple[int, int]] = []
        self.var_cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for v in range(n):
            self.var_cols[v].append((len(self.col_map), 1))
            self.col_map.append((v, 1))
            if not nonneg[v]:
                self.var_cols[v].append((len(self.col_map), -1))
                self.col_map.append((v, -1))
        surplus_start = len(self.col_map)
        num_surplus = sum(1 for _, _, sense, _ in main if sense == GE)

        self.ncols = surplus_start + num_surplus
        self.rows: list[list[int]] = []
        self.rhs: list[int] = []
        # standard row i is origin[i][1] times original row origin[i][0]
        self.origin: list[tuple[int, int]] = []
        s_idx = surplus_start
        for k, coeffs, sense, b in main:
            scale = lcm(*(c.denominator for c in coeffs), b.denominator)
            if b < 0:
                scale = -scale
            row = [0] * self.ncols
            for v, c in enumerate(coeffs):
                if c:
                    c = c.numerator * (scale // c.denominator)
                    for col, sign in self.var_cols[v]:
                        row[col] = sign * c
            if sense == GE:
                row[s_idx] = -scale
                s_idx += 1
            self.rows.append(row)
            self.rhs.append(b.numerator * (scale // b.denominator))
            self.origin.append((k, scale))
        self.num_main = len(self.rows)
        self.num_vars = n
        self.num_rows = system.num_rows

    def original_multipliers(self, y) -> tuple[int, ...]:
        """Multipliers on the original rows for multipliers y on the standard
        rows; rows absorbed as sign constraints get 0."""
        out = [0] * self.num_rows
        for (k, scale), yi in zip(self.origin, y):
            out[k] = scale * yi
        return tuple(out)


def _eliminate(row, prow, p, d, enter):
    f = row[enter]
    if f:
        return [(p * x - f * y) // d for x, y in zip(row, prow)]
    if p == d:
        return row
    return [p * x // d for x in row]


def _pivot(tab, zrow, basis, d, leave, enter) -> int:
    """Pivot on tab[leave][enter] in place; returns the new denominator."""
    prow = tab[leave]
    p = prow[enter]
    if p < 0:
        # only driving artificials out pivots on a negative entry
        tab[leave] = prow = [-x for x in prow]
        p = -p
    for i, row in enumerate(tab):
        if i != leave:
            tab[i] = _eliminate(row, prow, p, d, enter)
    if zrow is not None:
        zrow[:] = _eliminate(zrow, prow, p, d, enter)
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

    def __init__(self, system: InequalitySystem):
        self.system = system
        std = _Standardized(system)
        ncols = std.ncols
        m = std.num_main
        tab = []
        for i in range(m):
            art = [0] * m
            art[i] = 1
            tab.append(std.rows[i] + art + [std.rhs[i]])
        basis = list(range(ncols, ncols + m))
        # cost 1 on every artificial, priced out against the artificial basis
        zrow = ([-sum(row[j] for row in std.rows) for j in range(ncols)]
                + [0] * m + [-sum(std.rhs)])
        status, d = _run_simplex(tab, basis, zrow, 1, range(ncols + m))
        assert status == "optimal"  # phase 1 objective is bounded below by 0
        if zrow[-1] != 0:
            # the dual of phase 1 has y_i = 1 - z_i on artificial i, and
            # y.A <= 0 < y.b at the optimum
            y = [d - z for z in zrow[ncols:ncols + m]]
            self.farkas = std.original_multipliers(y)
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
            if basis[i] >= ncols:
                enter = next((j for j in range(ncols) if tab[i][j] != 0), None)
                if enter is None:
                    continue  # redundant row
                d = _pivot(tab, None, basis, d, i, enter)
            keep.append(i)
        self.std = std
        self.tab = [tab[i][:ncols] + [tab[i][-1]] for i in keep]
        self.basis = [basis[i] for i in keep]
        self.d = d
        self.ncols = ncols

    def solve(self, objective, sense: str) -> LPResult:
        """Phase 2 for one objective; leaves the stored tableau untouched."""
        std = self.std
        # minimize sign * scale * objective, an integer cost with the same pivots
        sign = 1 if sense == "min" else -1
        scale = lcm(*(c.denominator for c in objective))
        cost = [0] * self.ncols
        for v, c in enumerate(objective):
            if c:
                c = sign * c.numerator * (scale // c.denominator)
                for col, s in std.var_cols[v]:
                    cost[col] += s * c
        tab = self.tab[:]
        basis = self.basis[:]
        d = self.d
        zrow = [d * c for c in cost] + [0]
        for row, bi in zip(tab, basis):
            if cost[bi]:
                cb = cost[bi]
                zrow = [z - cb * x for z, x in zip(zrow, row)]
        status, d = _run_simplex(tab, basis, zrow, d, range(self.ncols))
        point = [0] * std.num_vars
        for row, bi in zip(tab, basis):
            if bi < len(std.col_map):  # not a surplus column
                v, s = std.col_map[bi]
                point[v] += s * row[-1]
        witness = tuple(Fraction(x, d) for x in point)
        if not self.system.satisfied_by(witness):
            raise InternalInconsistencyError("LP witness violates its own system")
        if status == "unbounded":
            return LPResult("unbounded", None, witness)
        return LPResult("optimal", Fraction(-sign * zrow[-1], d * scale), witness)


def lp_exact(system: InequalitySystem, objective, sense: str = "min") -> LPResult:
    """Exact rational LP over the system's free variables.

    Rows of the shape x_i >= 0 are recognized as sign constraints; all other
    variables are handled as differences of nonnegatives.  Every verdict is
    checked before it is returned: the witness against the system, and for
    an infeasible system the Farkas multipliers in `farkas`.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if len(objective) != system.num_vars:
        raise ValueError("objective length does not match variable count")
    phase1 = _Phase1(system)
    if not phase1.feasible:
        return LPResult("infeasible", None, None, phase1.farkas)
    return phase1.solve(objective, sense)


def maximize_each(system: InequalitySystem, objectives) -> list[LPResult]:
    """Maximize several objectives over one feasible region, sharing phase 1."""
    phase1 = _Phase1(system)
    if not phase1.feasible:
        return [LPResult("infeasible", None, None, phase1.farkas) for _ in objectives]
    return [phase1.solve(obj, "max") for obj in objectives]


# ---------------------------------------------------------------------------
# double description: extreme rays of a dual cone

def _tight_set(vector, cols, upto) -> frozenset[int]:
    return frozenset(p for p in range(upto) if vec_dot(vector, cols[p]) == 0)


def _extreme_rays_dual(cols: list[IntVector], dim: int, limits: Limits) -> list[IntVector]:
    """Extreme rays of {y : y.c >= 0 for all c in cols}.

    Incremental double description starting from full space; the caller
    guarantees cols spans R^dim so the result is a pointed cone and the
    lineality shrinks to zero.
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
    if lin:
        raise NotPointedError("dual cone has lineality; input columns do not span")
    seen = set()
    out = []
    for r in sorted(rays):
        if r not in seen and not vec_is_zero(r):
            seen.add(r)
            out.append(r)
    return out


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
    Every row is a primitive integer vector with zero right-hand side.
    """
    d = a.rows
    cols = _nonzero_columns(a)
    if not cols:
        rows = [(unit_vector(d, i), EQ, 0) for i in range(d)]
        return InequalitySystem.from_rows(rows)

    span = lattice_basis(a)
    r = span.rank
    coords = []
    for column in cols:
        c = span.contains(column)
        assert c is not None  # columns lie in their own lattice
        coords.append(c)

    rays = _extreme_rays_dual(coords, r, limits)

    # equalities: basis of the left kernel of a, as primitive integer rows
    solved = solve_rational_affine(a.transpose(), (0,) * a.cols)
    assert solved is not None
    _, kernel = solved
    eq_rows = []
    for vec in kernel:
        row = rational_to_primitive_int(vec)
        first = next((x for x in row if x), None)
        if first is not None and first < 0:
            row = tuple(-x for x in row)
        eq_rows.append(row)

    # lift each dual ray g through the span parameterization z = B t:
    # wanted is w with B^T w = g, so that w.z = g.t on the span
    basis_rows = IntMatrix.from_rows(span.columns)  # rank x d, rows are basis columns
    ineq_rows = []
    for g in rays:
        lifted = solve_rational_affine(basis_rows, g)
        assert lifted is not None  # basis has full column rank
        ineq_rows.append(rational_to_primitive_int(lifted[0]))

    rows = [(row, EQ, 0) for row in sorted(eq_rows)]
    rows += [(row, GE, 0) for row in sorted(ineq_rows)]
    return InequalitySystem.from_rows(rows)


def positive_functional(a: IntMatrix) -> RatVector:
    """A rational y with y.col >= 1 for every nonzero column of a.

    Exists exactly when cone(a) is pointed; used as a termination grading.
    """
    d = a.rows
    cols = _nonzero_columns(a)
    if not cols:
        return tuple(Fraction(1) for _ in range(d))
    if a.is_nonnegative():
        return tuple(Fraction(1) for _ in range(d))
    rows = [(col, GE, 1) for col in cols]
    result = lp_exact(InequalitySystem.from_rows(rows), (0,) * d, "min")
    if result.status != "optimal":
        raise NotPointedError("cone contains a line; no strictly positive functional")
    return result.witness
