"""Exact rational polyhedral computations.

The equations and facets of a finitely generated cone from one double
description on its dual, a grading certifying pointedness read off those
facets, a placing triangulation of a full-dimensional cone with the
integer points of each simplex's fundamental parallelepiped, and an
exact one-phase simplex with Bland's anti-cycling rule that decides
whether a system A x = b, x >= 0 with integer data has a solution.

The simplex runs on an integer-preserving tableau (Bareiss/Edmonds pivots
over one common denominator), so its pivot loop does no rational
arithmetic; its row update is that of intlinalg.gauss_jordan, the one
elimination of the package, which also gives the first simplex of a
triangulation.  Forcing rows, zero-rhs rows of one sign, fix their
columns at 0 and stay out of the tableau.  Each verdict comes with a
certificate that is checked on the caller's full system before the
verdict is returned: a feasible point, or Farkas multipliers proving
infeasibility.  Maximizing an objective is one more such check, of the
primal-dual system whose points are optimal pairs (LP duality), so its
verdicts are certified the same way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import ge, itemgetter
from typing import NamedTuple

from .errors import InternalInconsistencyError, NotPointedError, ResourceLimitError
from .intlinalg import (
    IntMatrix,
    IntVector,
    RatVector,
    eliminate,
    gauss_jordan,
    primitive_vector,
    unit_vector,
    vec_dot,
    vec_is_zero,
    vec_scale,
)
from .limits import DEFAULT_LIMITS, Limits
from .records import Record


class Cone(Record):
    """{z : e.z = 0 for every e in equations, w.z >= 0 for every w in
    facets}, each row a primitive integer vector."""

    equations: tuple[IntVector, ...]
    facets: tuple[IntVector, ...]

    def contains(self, z) -> bool:
        """Whether the integer point z satisfies every row."""
        first = self.equations[:1] or self.facets[:1]
        if first and len(z) != len(first[0]):
            raise ValueError("vector dimension does not match the cone")
        return (not any(map(vec_dot, self.equations, repeat(z)))
                and all(map(ge, map(vec_dot, self.facets, repeat(z)), repeat(0))))


class FeasibilitySystem(Record):
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
        return (all(sum(multipliers[i] * x for i, x in column) <= 0
                    for column in self.matrix._sparse_columns)
                and vec_dot(multipliers, self.rhs) > 0)


class LPResult(Record):
    # lp_exact: "feasible" | "infeasible";
    # maximize_each: "optimal" | "unbounded" | "infeasible"
    status: str
    optimum: Fraction | None     # c.x at an "optimal" verdict
    witness: RatVector | None    # a point of the region, unless it is empty
    farkas: tuple | None = None  # equation multipliers refuting an infeasible system


# ---------------------------------------------------------------------------
# exact phase-1 simplex on an integer-preserving tableau
#
# Every tableau row, the objective row included, holds integers: the true
# rational row times D, the determinant of the current basis (Bareiss 1968,
# Edmonds 1967).  Pivoting on entry p > 0 of row y makes p the new D and
# sets every other row x to (p*x - f*y) // D, where f is x's entry in the
# pivot column: intlinalg.eliminate, exact by the argument of gauss_jordan.
# When p = D only the rows with f != 0 change.  D stays positive, so every
# sign test and ratio comparison, and so every pivot choice, is that of the
# rational tableau.

def _pivot(tab, zrow, basis, d, leave, enter) -> int:
    """Pivot on tab[leave][enter]; returns the new denominator.

    zrow, which the caller owns, is overwritten.
    """
    prow = tab[leave]
    p = prow[enter]
    support = [(j, prow[j]) for j in compress(range(len(prow)), prow)]
    changed = range(len(tab))
    if p == d:
        # only the rows with f != 0 change
        changed = list(compress(changed, map(itemgetter(enter), tab)))
    for i in changed:
        if i != leave:
            tab[i] = eliminate(tab[i], prow, support, p, d, enter)
    zrow[:] = eliminate(zrow, prow, support, p, d, enter)
    basis[leave] = enter
    return p


def _run_simplex(tab, basis, zrow, d) -> int:
    """Minimize over the tableau in place by Bland's rule; zrow is the
    priced-out objective row.  Returns the final denominator.

    The phase-1 objective is bounded below by 0, so a column that prices
    negative has a positive entry in some row.
    """
    while True:
        enter = next((j for j in range(len(zrow) - 1) if zrow[j] < 0), None)
        if enter is None:
            return d
        leave = None
        for i, row in enumerate(tab):
            t = row[enter]
            # the least ratio row[-1] / t, against best_b / best_t with both t
            # positive, and on a tie the least basic variable
            if t > 0 and (leave is None or
                          (row[-1] * best_t, basis[i]) < (best_b * t, basis[leave])):
                leave, best_b, best_t = i, row[-1], t
        d = _pivot(tab, zrow, basis, d, leave, enter)


def lp_exact(system: FeasibilitySystem) -> LPResult:
    """Whether {x >= 0 : matrix x = rhs} is empty, by phase 1 of an exact
    simplex: "feasible" with a basic point of the region as witness, or
    "infeasible" with Farkas multipliers.

    A forcing row has rhs 0 and nonzero entries of one sign sigma_i (0 for
    a row of zeros), so every solution is 0 on its columns (Brearley,
    Mitra & Williams 1975).  The tableau holds the other rows and the
    columns that no forcing row touches.  One round runs: a row that is
    one-signed only on the kept columns is left to the simplex.  With no
    forcing row the tableau is that of the full system.

    Either verdict is checked on the full system before it is returned:
    the witness, read off the final tableau with 0 on the fixed columns
    (an artificial still basic there sits at level 0), or the multipliers
    in `farkas`, one per equation.  Those of the kept rows, y', lift to
    y = y' there and y_i = -M sigma_i on forcing row i: y.b = y'.b' > 0, a
    kept column sees y' alone, and a fixed column c, where
    s_c = sum_i sigma_i a_ic > 0, gets y.a_c = y'.a_c - M s_c <= 0 for
    M = max(0, max_c ceil(y'.a_c / s_c)).
    """
    entries, rhs, columns = system.matrix.entries, system.rhs, system.matrix._sparse_columns
    # forcing row i -> sigma_i; the tableau holds rows and cols, in order
    forcing = {i: (max(row) > 0) - (min(row) < 0) for i, (row, b) in enumerate(zip(entries, rhs))
               if b == 0 and (min(row) >= 0 or max(row) <= 0)}
    fixed = {j for i in forcing for j in compress(range(len(columns)), entries[i])}
    free = [j not in fixed for j in range(len(columns))]
    rows = [i for i in range(len(entries)) if i not in forcing]
    cols = list(compress(range(len(columns)), free))
    n, m = len(cols), len(rows)
    # rows with a negative rhs are negated, so the artificials start
    # feasible; artificial k is column n + k
    signs = [-1 if rhs[i] < 0 else 1 for i in rows]
    tab = [[s * x for x in compress(entries[i], free)] + list(unit_vector(m, k)) + [s * rhs[i]]
           for k, (s, i) in enumerate(zip(signs, rows))]
    basis = list(range(n, n + m))
    # cost 1 on every artificial, priced out against the artificial basis:
    # minus the column sums of the real columns and of the rhs, all 0 when
    # every row is forcing
    zrow = [-sum(column) for column in zip(*tab)] or [0] * (n + 1)
    zrow[n:n + m] = [0] * m
    d = _run_simplex(tab, basis, zrow, 1)
    if zrow[-1] != 0:
        # the dual of phase 1 has y_i = 1 - z_i on artificial i, and
        # y.A <= 0 < y.b at the optimum
        y = [0] * len(entries)
        for i, s, z in zip(rows, signs, zrow[n:n + m]):
            y[i] = s * (d - z)
        # M of the lift onto the forcing rows, as in the docstring
        lift = max([0, *(-(-sum(y[i] * x for i, x in columns[j])
                           // sum(forcing.get(i, 0) * x for i, x in columns[j])) for j in fixed)])
        farkas = tuple(-lift * forcing[i] if i in forcing else v for i, v in enumerate(y))
        if not system.refuted_by(farkas):
            raise InternalInconsistencyError(
                "LP infeasibility certificate failed its integer check")
        return LPResult("infeasible", None, None, farkas)
    # the levels of the basic real columns; an artificial left basic is at 0
    level = {cols[bi]: row[-1] for row, bi in zip(tab, basis) if bi < n}
    witness = tuple(Fraction(level.get(j, 0), d) for j in range(len(columns)))
    if not system.satisfied_by(witness):
        raise InternalInconsistencyError("LP witness violates its own system")
    return LPResult("feasible", None, witness)


def maximize_each(system: FeasibilitySystem, objectives) -> list[LPResult]:
    """Maximize each objective c, int or Fraction entries, over the region
    {x >= 0 : A x = b} of system, every verdict by lp_exact checks.

    One lp_exact of the region: an empty region is "infeasible" for every
    objective, with the region's multipliers.  Otherwise each c, scaled to
    integers, gets one lp_exact of the primal-dual system

        A x = b,  A^T (y+ - y-) - s = c,  c.x - b.(y+ - y-) = 0

    over x, y+, y-, s >= 0 (Schrijver 1986, section 7.4).  Weak duality
    puts c.x' <= b.y for every x' of the region and every y with
    A^T y >= c, so a checked point (x, y, s) proves x optimal: "optimal"
    with optimum c.x and witness x.  By strong duality the system has a
    point whenever the dual min b.y, A^T y >= c has one, the region being
    non-empty; so checked multipliers refuting it prove the dual empty and
    c unbounded on the region: "unbounded" with the region's witness.
    """
    objectives, a, b, n = list(objectives), system.matrix, system.rhs, system.num_vars
    for objective in objectives:
        if len(objective) != n:
            raise ValueError("objective length does not match variable count")
        if not all(isinstance(c, (int, Fraction)) for c in objective):
            raise TypeError("objective entries must be int or Fraction")
    region = lp_exact(system)
    if region.status == "infeasible":
        return [region] * len(objectives)
    # the rows of A x = b and A^T (y+ - y-) - s = c over (x, y+, y-, s)
    rows = [row + (0,) * (2 * a.rows + n) for row in a.entries]
    rows += [(0,) * n + col + vec_scale(-1, col) + vec_scale(-1, unit_vector(n, j))
             for j, col in enumerate(a.columns())]
    results = []
    for objective in objectives:
        scale = lcm(*(x.denominator for x in objective))
        c = tuple(x.numerator * (scale // x.denominator) for x in objective)
        gap = c + vec_scale(-1, b) + b + (0,) * n
        pair = lp_exact(FeasibilitySystem(IntMatrix(rows + [gap]), b + c + (0,)))
        if pair.status == "infeasible":
            results.append(LPResult("unbounded", None, region.witness))
        else:
            x = pair.witness[:n]
            results.append(LPResult("optimal", vec_dot(objective, x), x))
    return results


# ---------------------------------------------------------------------------
# double description: the dual cone

def _extreme_rays_dual(cols, dim: int,
                       limits: Limits) -> tuple[list[IntVector], list[IntVector]]:
    """The lineality basis and the extreme rays of {y : y.c >= 0 for all c
    in cols}, every vector primitive.

    Incremental double description starting from full space (Fukuda &
    Prodon 1996).  The lineality left at the end is the space orthogonal
    to every column, and the rays are the extreme rays modulo it.

    Each ray maps to its tight set: the processed columns it vanishes on,
    as the bits of one int, bit i for column i.  When a column is not
    orthogonal to the lineality, the lineality loses one dimension to a
    new ray l0, tight at every earlier column; the other rays are
    projected along l0, which vanishes on every earlier column, so they
    keep their tight sets and become tight at the new column.

    Otherwise a positive ray p and a negative ray n are combined when they
    are adjacent.  Modulo the lineality the cone is pointed, in a space of
    dimension D = dim - len(lin) whose dual the processed columns span.
    The smallest face containing p and n holds p + n in its relative
    interior, where exactly the columns of T_p & T_n are tight, so its
    dimension is D minus the rank of those columns.  Adjacent rays span a
    2-face, so that rank, and with it the popcount of T_p & T_n, is at
    least D - 2; a pair below that is skipped before the combinatorial
    test, which declares p and n adjacent when no third ray is tight at
    every column of T_p & T_n.  Distinct rays have distinct tight sets,
    since each ray is the only one in the face its tight set cuts out,
    so a third ray is one whose mask differs from T_p and T_n.
    """
    zero = (0,) * dim
    lin: list[IntVector] = [unit_vector(dim, i) for i in range(dim)]
    rays: dict[IntVector, int] = {}
    for idx, a in enumerate(cols):
        bit = 1 << idx
        lin_vals = [vec_dot(l, a) for l in lin]
        k = next((i for i, v in enumerate(lin_vals) if v), None)
        if k is not None:
            l0, v0 = lin[k], lin_vals[k]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0

            def project(x, v):
                return primitive_vector(tuple(v0 * p - v * q for p, q in zip(x, l0)))

            lin = [project(l, v) for i, (l, v) in enumerate(zip(lin, lin_vals)) if i != k]
            new = {project(r, vec_dot(r, a)): t | bit for r, t in rays.items()}
            new[l0] = bit - 1
        else:
            vals = [(r, t, vec_dot(r, a)) for r, t in rays.items()]
            new = {r: t | bit if v == 0 else t for r, t, v in vals if v >= 0}
            pos = [(r, t, v) for r, t, v in vals if v > 0]
            neg = [(r, t, v) for r, t, v in vals if v < 0]
            masks = list(rays.values())
            need = dim - len(lin) - 2
            for rp, tp, vp in pos:
                for rn, tn, vn in neg:
                    common = tp & tn
                    if common.bit_count() < need or any(
                            t & common == common and t != tp and t != tn for t in masks):
                        continue
                    combo = tuple(vp * x - vn * y for x, y in zip(rn, rp))
                    new[primitive_vector(combo)] = common | bit
        new.pop(zero, None)
        rays = new
        if len(rays) > limits.max_rays:
            raise ResourceLimitError("intermediate rays in facet enumeration", limits.max_rays)
    return lin, list(rays)


# ---------------------------------------------------------------------------
# cone descriptions

def cone_generators(a: IntMatrix) -> tuple[IntVector, ...]:
    """The distinct nonzero columns of a, in column order: the generators
    of its cone.  Zero columns generate nothing, and dropping them and
    repeats keeps degenerate rays out of the double description."""
    return tuple(dict.fromkeys(c for c in a.columns() if not vec_is_zero(c)))


def cone_facets(generators, dim: int, limits: Limits = DEFAULT_LIMITS) -> Cone:
    """The cone in Z^dim generated by generators, by its rows.

    Equations pin the linear span, facets are the facets of the cone inside
    its span; together they cut out exactly the cone.  Both come from one
    double description of the dual cone: its lineality is the left kernel
    of the generators, and its extreme rays are the facets.  An equation
    has a positive first nonzero entry; equations and facets are each
    sorted.
    """
    lin, rays = _extreme_rays_dual(generators, dim, limits)
    equations = [row if next(x for x in row if x) > 0 else tuple(-x for x in row)
                 for row in lin]
    return Cone(tuple(sorted(equations)), tuple(sorted(rays)))


class Simplex(NamedTuple):
    """The simplicial cone spanned by the vectors with indices vertices,
    whose matrix V holds them as columns.  normals[k] is row k of
    det * V^-1, where det = |det V|: it vanishes on every vertex but the
    k-th, where it is det, so it is the inward normal of the facet
    opposite vertex k.  A named tuple, not a Record: a triangulation
    builds one per placing step, thousands on a transportation cone, and
    a tuple is the cheapest immutable value to build."""

    vertices: tuple[int, ...]
    det: int
    normals: tuple[IntVector, ...]


def placing_triangulation(vectors, r: int,
                          limits: Limits = DEFAULT_LIMITS) -> list[Simplex]:
    """A triangulation of the cone spanned by vectors, which span Q^r.

    The first r independent vectors, the pivot columns of the r x m matrix
    of the vectors, span the first simplex.  Every other vector v is then
    placed in turn over the boundary facets that it sees, those whose
    inward normal is negative at v, each giving the new simplex facet + v;
    a vector inside the cone so far sees none and is left out.
    The new simplices cover the part of the cone of the placed vectors and
    v that the old cone misses, and meet the old ones and each other in
    common faces (the placing triangulation; De Loera, Rambau & Santos
    2010, section 4.3).  A facet lies in one simplex or in two, so the
    boundary is kept by toggling each new simplex's facets.  More than
    max_nodes simplices raise ResourceLimitError.

    The first simplex comes from one gauss_jordan of [G | I], G being the
    r x m matrix of the vectors, pivoting in G's columns.  Its row
    operations depend on those columns alone and turn the block M of the
    pivot columns into D I, D being the last pivot, so the right block is
    D M^-1; the det is |D|, and the normals are that block's rows times
    the sign of D.  A new simplex replaces vertex k of the simplex s
    behind the facet it is placed over by v, and one fraction-free
    Gauss-Jordan step gives its normals from those of s:
    with N = s.normals and a = N_k.v < 0, the new det is -a, the new
    normal opposite v is -N_k, and the one opposite another vertex i is
    ((N_i.v) N_k - a N_i) / s.det, which vanishes on the facet's other
    vertices and on v and is -a on vertex i; the division is exact, since
    the result is a row of the new simplex's integer matrix det * V^-1.
    Its multiplier N_i.v is no entry of a row, so this step does not go
    through intlinalg.eliminate.
    """
    m = len(vectors)
    first, reduced, d, _ = gauss_jordan(
        [list(row) + list(unit_vector(r, i)) for i, row in enumerate(zip(*vectors))], m)
    if len(first) != r:
        raise ValueError("the vectors do not span a full-dimensional cone")
    simplices: list[Simplex] = []
    boundary: dict[frozenset, tuple[Simplex, int]] = {}

    def add(simplex):
        simplices.append(simplex)
        if len(simplices) > limits.max_nodes:
            raise ResourceLimitError("triangulation simplices and parallelepiped points",
                                     limits.max_nodes)
        vertices = simplex.vertices
        for k in range(r):
            facet = frozenset(vertices[:k] + vertices[k + 1:])
            if boundary.pop(facet, None) is None:
                boundary[facet] = (simplex, k)

    sign = 1 if d > 0 else -1
    add(Simplex(tuple(first), abs(d), tuple(tuple(sign * x for x in row[m:]) for row in reduced)))
    for j, v in enumerate(vectors):
        # a simplex placed over a facet drops that facet from the boundary
        # and adds only facets through v, so the boundary as it was before
        # v lists every facet that v sees
        for s, k in list(boundary.values()):
            nk = s.normals[k]
            a = vec_dot(nk, v)
            if a < 0:
                normals = tuple(
                    tuple(-x for x in nk) if i == k
                    else tuple((f * y - a * x) // s.det for x, y in zip(n, nk))
                    for i, n in enumerate(s.normals) for f in [vec_dot(n, v)])
                add(Simplex(s.vertices[:k] + (j,) + s.vertices[k + 1:], -a, normals))
    return simplices


def parallelepiped_points(vectors, simplex: Simplex) -> list[IntVector]:
    """The det integer points V q with q in [0, 1)^r of a simplex, the
    origin among them.

    x -> det * V^-1 x mod det maps Z^r onto the subgroup of (Z/det)^r
    that the columns of the normals generate, and its kernel is V Z^r.  So
    the points are the V k / det for k in that subgroup, with entries in
    [0, det), which is built one generator at a time: the multiples of g
    up to the first that falls in the subgroup so far shift it to new
    cosets.
    """
    d, r = simplex.det, len(simplex.normals)
    group = [(0,) * r]
    members = set(group)
    for j in range(r):
        g = tuple(row[j] % d for row in simplex.normals)
        step, shifted = g, []
        while step not in members:
            shifted += [tuple((a + b) % d for a, b in zip(h, step)) for h in group]
            step = tuple((a + b) % d for a, b in zip(step, g))
        group += shifted
        members.update(shifted)
    columns = [vectors[j] for j in simplex.vertices]
    return [tuple(sum(k * c[i] for k, c in zip(q, columns)) // d for i in range(r))
            for q in group]


def positive_functional(cone: Cone, generators) -> IntVector:
    """A primitive integer y with y.g >= 1 for every generator g of the
    cone: the sum of its facet rows.

    That sum vanishes on a point of the cone only when the point lies in
    the cone's lineality space, which the generators in it span; so it is
    positive on every generator exactly when the cone is pointed, and
    NotPointedError is raised otherwise.  It only certifies pointedness.
    """
    grading = primitive_vector(tuple(map(sum, zip(*cone.facets))))
    if any(vec_dot(grading, g) <= 0 for g in generators):
        raise NotPointedError("cone contains a line; no strictly positive functional")
    return grading
