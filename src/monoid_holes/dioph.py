"""Hilbert bases and minimal solutions of linear Diophantine systems.

One completion search (Contejean-Devie style, with signed coordinates as
in Hemmecke 2002) finds the minimal x with A x = b in the conformal
order: y [= x when every y_j has the sign of x_j and |y_j| <= |x_j|.
Its docstring proves it complete and finite.  It answers two questions:

- the Graver basis of A, the minimal nonzero x with A x = 0;
- the minimal (lam, mu) in Z^{2n}_+ with f + A lam = A mu.  They have
  disjoint supports, since (lam - e_j, mu - e_j) would also solve the
  system, and on disjoint supports (lam, mu) <= (lam', mu') exactly when
  mu - lam [= mu' - lam'; so they are the (x^-, x^+) of the minimal x
  with A x = f.

The Hilbert basis of a saturation needs no search: a placing
triangulation of the cone, the integer points of each simplex's
fundamental parallelepiped and the generators hold it, and comparing
facet values reduces them to it.

Integer feasibility A lam = b of a nonnegative A, that is 3-way table
feasibility and semigroup membership, is decided by one depth-first
search with constraint propagation alone, with no LP relaxation.
Membership runs it on the facet rows of the cone, for every pointed A,
a nonnegative one too: they make the system nonnegative, and near an
extreme ray the facet through it leaves a budget small enough to cap
every column off the ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, ge, index, le, mul
from typing import TYPE_CHECKING

from .errors import InternalInconsistencyError, ResourceLimitError
from .intlinalg import (
    IntMatrix,
    IntVector,
    unit_vector,
    vec_dot,
)
from .limits import DEFAULT_LIMITS, Limits
from .polyhedra import parallelepiped_points, placing_triangulation

if TYPE_CHECKING:
    from .holes import SemigroupProblem


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generating set of a monoid of solutions."""

    elements: tuple[IntVector, ...]

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class MinimalSolutionSet:
    """Componentwise-minimal (lam, mu) solving f + A lam = A mu."""

    solutions: tuple[tuple[IntVector, IntVector], ...]

    def __len__(self):
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def lam_parts(self) -> tuple[IntVector, ...]:
        return tuple(lam for lam, _ in self.solutions)


def _conformal_below(s, x) -> bool:
    # s [= x: s_j x_j >= s_j^2 holds exactly when s_j = 0 or s_j lies
    # between 0 and x_j
    return all(map(ge, map(mul, s, x), map(mul, s, s)))


def _minimal_solutions(cols, rhs=None, known=(),
                       limits: Limits = DEFAULT_LIMITS) -> list[IntVector]:
    """The conformally minimal integer x with sum x_j cols[j] = rhs,
    nonzero ones when rhs is None.

    A state x moves one unit along a coordinate j, in the direction whose
    scalar product with the value A x - rhs is negative, and never against
    the sign of x_j; so each step adds one to |x|_1, and all that is
    reached from x lies above x.  With rhs None the search starts at each
    +-e_j; otherwise it starts at 0, and known must hold the answer for
    rhs None.  Solutions in known prune like found ones, but are not
    returned.  max_nodes and max_basis count this search's own states and
    solutions.

    Complete: for x [= s with A s = rhs and A x != rhs, s - x is
    conformal to s, and the scalar products of its unit steps with
    A x - rhs sum to -|A x - rhs|^2 < 0, so one of them leads to a state
    still below s.  A state above a known solution is pruned, since all
    that is reached from it lies above that solution too.

    Finite: the values on a path stay bounded (Contejean & Devie 1994), so
    an endless path would hold states x [= y with equal values.  Then
    y - x is a homogeneous solution conformal to y, above a minimal one g.
    With rhs given, g is known and y is pruned; with rhs None, g is found
    in an earlier layer (|g|_1 < |y|_1), so y or its extensions are pruned.

    A state x carries the scalar products (A x - rhs).cols[j] for every j
    and |A x - rhs|^2; a step +-e_i adds +-row i of the Gram matrix
    gram[i][j] = cols[i].cols[j], so no state recomputes A x.  Dominance
    is indexed: a state was above none of the solutions known when it
    was created, so its extension y = x +- e_i can only be above one of
    those with s_i == y_i, which the bucket (i, y_i) lists.  Solutions
    found after x was created are checked in full.

    Minimal: a minimal solution s [= t, s != t, has |s|_1 < |t|_1, so it is
    known or found in an earlier layer before t is tested, and t is kept
    only when it lies above none of the solutions known when it was
    created (the buckets) or found since (sols[checked:]); seen rules out
    a second copy of t.  So nothing found needs to be minimalized.
    """
    n = len(cols)
    gram = [tuple(vec_dot(c, d) for d in cols) for c in cols]
    neg = [tuple(-g for g in row) for row in gram]
    max_nodes = limits.max_nodes
    sols: list[IntVector] = list(known)
    skip = len(sols)
    buckets: dict[tuple[int, int], list[IntVector]] = {}
    for s in sols:
        for i, v in enumerate(s):
            if v:
                buckets.setdefault((i, v), []).append(s)
    # (state, its scalar products, |A x - rhs|^2, len(sols) when it was
    # created); the starts are above no solution
    if rhs is None:
        frontier = [(unit_vector(n, i), gram[i], gram[i][i], 0) for i in range(n)]
        frontier += [(tuple(-x for x in unit_vector(n, i)), neg[i], gram[i][i], 0)
                     for i in range(n)]
    else:
        frontier = [((0,) * n, tuple(-vec_dot(rhs, c) for c in cols), vec_dot(rhs, rhs), skip)]
    seen = {x for x, *_ in frontier}
    nodes = 0
    while frontier:
        next_frontier: list[tuple[IntVector, tuple, int, int]] = []
        for x, dots, norm, checked in frontier:
            nodes += 1
            if nodes > max_nodes:
                raise ResourceLimitError("completion search states", max_nodes)
            if norm == 0:
                if not any(_conformal_below(s, x) for s in sols[checked:]):
                    sols.append(x)
                    if len(sols) - skip > limits.max_basis:
                        raise ResourceLimitError("minimal solution count", limits.max_basis)
                    for i, v in enumerate(x):
                        if v:
                            buckets.setdefault((i, v), []).append(x)
                continue
            # no solution is added while x is extended
            later, count = sols[checked:], len(sols)
            for i, d in enumerate(dots):
                if d < 0 <= x[i]:
                    v, row = x[i] + 1, gram[i]
                elif d > 0 >= x[i]:
                    v, row = x[i] - 1, neg[i]
                else:
                    continue
                y = x[:i] + (v,) + x[i + 1:]
                if y in seen:
                    continue
                seen.add(y)
                # _conformal_below inlined: this test runs once per new state
                if (any(all(map(ge, map(mul, s, y), map(mul, s, s)))
                        for s in buckets.get((i, v), ()))
                        or any(_conformal_below(s, y) for s in later)):
                    continue
                next_frontier.append((y, tuple(map(add, dots, row)),
                                      norm - 2 * abs(d) + gram[i][i], count))
        frontier = next_frontier
    return sorted(sols[skip:])


def graver_basis(a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> tuple[IntVector, ...]:
    """The conformally minimal nonzero x with a@x = 0.  Its Lawrence lift,
    the (x^-, x^+) and the (e_j, e_j) of the nonzero columns, is the
    Hilbert basis of the kernel of [a | -a] (Sturmfels 1996, ch. 7)."""
    return tuple(_minimal_solutions(a.columns(), limits=limits))


def minimal_inhomogeneous_solutions(a: IntMatrix, f, limits: Limits = DEFAULT_LIMITS,
                                    graver=None) -> MinimalSolutionSet:
    """All minimal (lam, mu) in Z^{2n}_+ with f + a@lam = a@mu: the
    (x^-, x^+) of the minimal x with a@x = f.  graver = graver_basis(a),
    computed here when not given, prunes the search: a solution y above
    one of its elements g is not minimal, since y - g [= y solves it too."""
    f = tuple(map(index, f))  # lossless: floats are rejected, not truncated
    if len(f) != a.rows:
        raise ValueError("inhomogeneous term has wrong dimension")
    if graver is None:
        graver = graver_basis(a, limits)
    sols = _minimal_solutions(a.columns(), rhs=f, known=graver, limits=limits)
    pairs = ((tuple(max(-x, 0) for x in s), tuple(max(x, 0) for x in s)) for s in sols)
    return MinimalSolutionSet(tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# integer feasibility of nonnegative systems

class _FeasibilitySearch:
    """Depth-first search for lam in Z^n_+ with A lam = b, where A >= 0.

    Column c lies on the lines (rows) lines[c] with positive integer
    weights.  Propagation closes under: a line with budget 0 forces its
    free columns to 0; a line with one free column of weight w forces it
    to budget / w, and fails when w does not divide the budget; and a line
    budget must be reachable, sum w * cap(c) over its free columns, where
    cap(c) is the least budget // w over the lines of c.  Branching takes
    the first free column, values from its cap down to 0.  No LP relaxation
    runs, so a system with no real solution is refuted by propagation and
    branching alone; callers reject the cheap cases first, a point outside
    the cone (membership) or off the span of A (margin triples).
    """

    def __init__(self, lines, budget, limits: Limits):
        self.limits = limits
        self.col_lines = lines
        self.line_cols: list[list[tuple[int, int]]] = [[] for _ in budget]
        for c, pairs in enumerate(lines):
            for ln, w in pairs:
                self.line_cols[ln].append((c, w))
        self.budget = list(budget)
        self.pending = [len(cols) for cols in self.line_cols]
        # a column on no line is fixed at 0 before the search starts
        self.value: list[int | None] = [None if pairs else 0 for pairs in lines]
        self.trail: list[int] = []
        self.nodes = 0

    def _assign(self, col: int, val: int) -> bool:
        # always updates every line of col so that undo stays symmetric
        self.value[col] = val
        self.trail.append(col)
        ok = True
        for ln, w in self.col_lines[col]:
            self.budget[ln] -= w * val
            self.pending[ln] -= 1
            if self.budget[ln] < 0:
                ok = False
        return ok

    def _undo_to(self, mark: int):
        while len(self.trail) > mark:
            col = self.trail.pop()
            val = self.value[col]
            self.value[col] = None
            for ln, w in self.col_lines[col]:
                self.budget[ln] += w * val
                self.pending[ln] += 1

    def _cap(self, col: int) -> int:
        return min([self.budget[ln] // w for ln, w in self.col_lines[col]])

    def _propagate(self) -> bool:
        # budgets are nonnegative here, so assigning 0 never fails, and a
        # forced value above the cap of its column fails in _assign
        budget, pending, value = self.budget, self.pending, self.value
        changed = True
        while changed:
            changed = False
            for ln, cols in enumerate(self.line_cols):
                pend = pending[ln]
                if pend == 0:
                    if budget[ln] != 0:
                        return False
                    continue
                if budget[ln] == 0:
                    for c, _ in cols:
                        if value[c] is None:
                            self._assign(c, 0)
                    changed = True
                elif pend == 1:
                    c, w = next((c, w) for c, w in cols if value[c] is None)
                    need, rest = divmod(budget[ln], w)
                    if rest or not self._assign(c, need):
                        return False
                    changed = True
        # capacity check: each line must be fillable by its free columns
        col_lines = self.col_lines
        for ln, cols in enumerate(self.line_cols):
            if pending[ln] == 0:
                continue
            room = 0
            for c, w in cols:
                if value[c] is None:
                    # w * cap(c), inlined: this is the search's innermost loop
                    room += w * min([budget[k] // v for k, v in col_lines[c]])
                    if room >= budget[ln]:
                        break
            if room < budget[ln]:
                return False
        return True

    def search(self) -> list[int] | None:
        self.nodes += 1
        if self.nodes > self.limits.max_nodes:
            raise ResourceLimitError("integer-feasibility search nodes", self.limits.max_nodes)
        mark = len(self.trail)
        if not self._propagate():
            self._undo_to(mark)
            return None
        col = next((c for c, v in enumerate(self.value) if v is None), None)
        if col is None:
            return list(self.value)
        for val in range(self._cap(col), -1, -1):
            inner = len(self.trail)
            self._assign(col, val)  # val <= cap, so no budget goes negative
            result = self.search()
            if result is not None:
                return result
            self._undo_to(inner)
        self._undo_to(mark)
        return None


def nonnegative_solution(lines, budget, limits: Limits = DEFAULT_LIMITS) -> list[int] | None:
    """lam in Z^n_+ with A lam = budget for a nonnegative A, or None.

    A is given sparsely: lines[c] lists the (row, weight) pairs of the
    nonzero entries of column c.  budget must be nonnegative.  Raises
    ResourceLimitError rather than guessing when more than max_nodes
    search nodes are needed.
    """
    return _FeasibilitySearch(lines, budget, limits).search()


def _membership_system(problem: SemigroupProblem):
    """The sparse (row, weight) pairs of each column of T A, where T is the
    facet rows of the cone, which make A lam = b nonnegative."""
    rows = problem.cone.facets
    return [tuple((r, x) for r, x in enumerate(vec_dot(t, col) for t in rows) if x)
            for col in problem.matrix.columns()]


def semigroup_contains(problem: SemigroupProblem, b,
                       limits: Limits = DEFAULT_LIMITS) -> IntVector | None:
    """Witness lam in Z^n_+ with A lam = b, or None when b is not in Q.

    A point b outside the saturation, off the cone or off the lattice of
    A, is not in Q, and is rejected before any search.  Every other b is
    decided by one search for every pointed matrix: nonnegative_solution
    on T A lam = T b, where T is the facet rows of the cone, a nonnegative
    A included.  Each is nonnegative on every column, so T A >= 0, and
    T b >= 0 on the cone.  For b in the cone, which lies in the span of A,
    A lam = b holds exactly when T A lam = T b, because T is injective on
    the span: if T v = 0 for a nonzero v in the span, then v and -v both
    lie in the cone, which is pointed.  The witness is checked against
    A lam = b before it is returned.

    Near an extreme ray, the facet through it leaves a tiny budget: on
    [[1,1,1,1],[0,1,2,5]], (963, 4813) gets 5*963 - 4813 = 2, which caps
    every column off the ray (1, 5) at 0; the rows of A leave budgets
    near 10**3 and no such cut.  The price: the 3x3x3 transportation
    matrix has 207 facets against 27 margin rows, and a query there is
    about ten times slower than on the margin rows.
    """
    b = tuple(map(index, b))
    a = problem.matrix
    if len(b) != a.rows:
        raise ValueError("vector dimension does not match matrix rows")
    if not problem.in_saturation(b):
        return None
    lines = problem._derive("membership", lambda: _membership_system(problem))
    lam = nonnegative_solution(lines, [vec_dot(t, b) for t in problem.cone.facets], limits)
    if lam is None:
        return None
    if a.mul_vector(lam) != b:
        raise InternalInconsistencyError("membership witness does not solve A lam = b")
    return tuple(lam)


# ---------------------------------------------------------------------------
# Hilbert basis of cone intersected with lattice

def hilbert_basis_cone_lattice(problem: SemigroupProblem,
                               limits: Limits = DEFAULT_LIMITS) -> HilbertBasis:
    """Minimal Hilbert basis of cone(a) intersected with lattice(a).

    Works in the coordinates of the problem's lattice basis B, where the
    monoid becomes the integer points t of a full-dimensional pointed cone
    {t : F t >= 0}; row w of the problem's facets gives the row B^T w of F.
    The cone is triangulated by placing the generators, and each simplex V
    lists the integer points V q with q in [0, 1)^r of its fundamental
    parallelepiped (Bruns & Ichim 2010).

    These points and the generators hold the basis.  A point h of the
    monoid lies in some simplex V, h = V q with q >= 0, and
    h = V frac(q) + V floor(q), where V frac(q) = h - V floor(q) is an
    integer point of the parallelepiped.  If h is irreducible, one of the
    two terms is 0: then h is a parallelepiped point, or h = V floor(q) is
    a single column of V, a generator.

    The monoid is saturated, so a candidate t is reducible exactly when
    F u <= F t componentwise for another candidate u (Bruns & Koch 2001).
    Such a u has a smaller degree, the sum of F, so the candidates are
    taken by degree and each is compared with the basis elements kept so
    far.  Each simplex and each parallelepiped point counts one against
    max_nodes, and max_basis caps the basis.  Results are mapped back to
    ambient coordinates.
    """
    basis = problem.lattice
    generators = [basis.contains(g) for g in problem.generators]
    simplices = placing_triangulation(generators, basis.rank, limits)
    if len(simplices) + sum(s.det for s in simplices) > limits.max_nodes:
        raise ResourceLimitError("triangulation simplices and parallelepiped points",
                                 limits.max_nodes)
    candidates = set(generators)
    for s in simplices:
        candidates.update(parallelepiped_points(generators, s))
    candidates.discard((0,) * basis.rank)
    rows = [tuple(vec_dot(w, column) for column in basis.columns) for w in problem.cone.facets]
    valued = sorted((sum(v), v, t) for t in candidates
                    for v in [tuple(vec_dot(w, t) for w in rows)])
    kept: list[tuple[IntVector, IntVector]] = []
    for _, v, t in valued:
        if not any(all(map(le, u, v)) for u, _ in kept):
            kept.append((v, t))
            if len(kept) > limits.max_basis:
                raise ResourceLimitError("Hilbert basis size", limits.max_basis)
    return HilbertBasis(tuple(sorted(basis.from_coordinates(t) for _, t in kept)))
