"""Hilbert bases and minimal solutions of linear Diophantine systems.

The engine is a layered completion search over Z^n_+ (Contejean-Devie
style): starting from the unit vectors, a state x is extended to x + e_i
only when the scalar product of its current value A x with the column A_i
is negative.  Every componentwise-minimal nonnegative solution of A x = 0
is reachable along such a path, and any state dominating a known solution
can be pruned, so the search is complete and terminates.  Optional upper
bounds restrict the search to a box without losing minimal solutions
inside it.  Inhomogeneous systems f + A lam = A mu are homogenized with an
auxiliary variable u and searched from u = 1 alone, with the u = 0
solutions (the Hilbert basis of A lam = A mu) preloaded as known ones.

Integer feasibility A lam = b of a nonnegative A, that is 3-way table
feasibility and semigroup membership, is decided by one depth-first
search with constraint propagation alone, with no LP relaxation; a
mixed-sign A of a pointed cone is first made nonnegative by its facet
rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, ge, le
from typing import TYPE_CHECKING

from .errors import InternalInconsistencyError, ResourceLimitError
from .intlinalg import (
    IntMatrix,
    IntVector,
    primitive_vector,
    unit_vector,
    vec_dot,
    vec_is_zero,
)
from .limits import DEFAULT_LIMITS, Limits
from .polyhedra import GE

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
    """Componentwise-minimal (lam, mu) solving rhs + A lam = A mu."""

    solutions: tuple[tuple[IntVector, IntVector], ...]
    rhs: IntVector

    def __len__(self):
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)

    def lam_parts(self) -> tuple[IntVector, ...]:
        return tuple(lam for lam, _ in self.solutions)


def _dominates(x, y) -> bool:
    # x >= y componentwise
    return all(map(ge, x, y))


def _minimal_kernel_solutions(cols, upper=None, limits: Limits = DEFAULT_LIMITS,
                              preloaded=(), starts=None) -> list[IntVector]:
    """Minimal nonzero x in Z^n_+ (x <= upper where bounded) with sum x_i cols[i] = 0.

    preloaded solutions prune the search as if it had found them, but are
    not returned.  starts are the indices of the unit vectors the search
    begins from (all of them when None): it finds the minimal solutions
    that are at least one of those unit vectors and dominate no preloaded
    solution.  max_nodes and max_basis count this search's own states and
    solutions.

    A state x carries the scalar products (A x).cols[j] for every j and
    |A x|^2; extending it by e_i adds row i of the Gram matrix
    gram[i][j] = cols[i].cols[j], so no state recomputes A x.  Dominance
    is indexed: a state dominated none of the solutions known when it was
    created, so its extension y = x + e_i can only dominate one of those
    with s[i] == y[i], which the bucket (i, y[i]) lists.  Solutions found
    after x was created are checked in full.
    """
    n = len(cols)
    if n == 0:
        return []
    gram = [tuple(vec_dot(c, d) for d in cols) for c in cols]
    caps = [None] * n if upper is None else upper
    max_nodes = limits.max_nodes
    sols: list[IntVector] = list(preloaded)
    skip = len(sols)
    buckets: dict[tuple[int, int], list[IntVector]] = {}
    for s in sols:
        for i, v in enumerate(s):
            if v:
                buckets.setdefault((i, v), []).append(s)
    # (state, its scalar products, |A x|^2, len(sols) when it was created);
    # the unit vectors are checked against every solution
    frontier: list[tuple[IntVector, tuple, int, int]] = []
    seen: set[IntVector] = set()
    for i in range(n) if starts is None else starts:
        if caps[i] is not None and caps[i] < 1:
            continue
        x = unit_vector(n, i)
        frontier.append((x, gram[i], gram[i][i], 0))
        seen.add(x)
    nodes = 0
    while frontier:
        next_frontier: list[tuple[IntVector, tuple, int, int]] = []
        for x, dots, norm, known in frontier:
            nodes += 1
            if nodes > max_nodes:
                raise ResourceLimitError("completion search states", max_nodes)
            if norm == 0:
                if not any(_dominates(x, s) for s in sols[known:]):
                    sols.append(x)
                    if len(sols) - skip > limits.max_basis:
                        raise ResourceLimitError("minimal solution count", limits.max_basis)
                    for i, v in enumerate(x):
                        if v:
                            buckets.setdefault((i, v), []).append(x)
                continue
            # no solution is added while x is extended
            later, count = sols[known:], len(sols)
            for i, d in enumerate(dots):
                if d >= 0 or (caps[i] is not None and x[i] >= caps[i]):
                    continue
                v = x[i] + 1
                y = x[:i] + (v,) + x[i + 1:]
                if y in seen:
                    continue
                seen.add(y)
                # _dominates inlined: this test runs once per new state
                if (any(all(map(ge, y, s)) for s in buckets.get((i, v), ()))
                        or any(all(map(ge, y, s)) for s in later)):
                    continue
                row = gram[i]
                next_frontier.append((y, tuple(map(add, dots, row)), norm + 2 * d + row[i], count))
        frontier = next_frontier
    # defensive minimalization; solutions of equal degree are incomparable,
    # so this is normally a no-op
    found = sols[skip:]
    minimal = [s for s in found if not any(_dominates(s, t) and s != t for t in found)]
    return sorted(minimal)


def hilbert_basis_kernel(a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> HilbertBasis:
    """Minimal Hilbert basis of {x in Z^n_+ : a @ x = 0}."""
    return HilbertBasis(tuple(_minimal_kernel_solutions(a.columns(), limits=limits)))


def _difference_columns(a: IntMatrix) -> list[IntVector]:
    """The columns of [a | -a]."""
    columns = a.columns()
    return columns + [tuple(-x for x in col) for col in columns]


def difference_kernel(a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> tuple[IntVector, ...]:
    """Minimal Hilbert basis of {(lam, mu) in Z^{2n}_+ : a@lam = a@mu}, the
    kernel of [a | -a] (the Lawrence lifting of a's Graver basis), as plain
    tuples (lam + mu)."""
    return tuple(_minimal_kernel_solutions(_difference_columns(a), limits=limits))


def minimal_inhomogeneous_solutions(a: IntMatrix, f, limits: Limits = DEFAULT_LIMITS,
                                    kernel=None) -> MinimalSolutionSet:
    """All minimal (lam, mu) in Z^{2n}_+ with f + a@lam = a@mu.

    Computed on the homogenized system u*f + a@lam - a@mu = 0 with the
    auxiliary variable capped at one: the minimal solutions with u = 1 are
    exactly the minimal inhomogeneous pairs.  The search starts at u = 1
    alone, with the u = 0 solutions, kernel = difference_kernel(a) (computed
    here when not given), preloaded.  Every minimal u = 1 solution s lies
    above e_0 and is reached through states below s, which dominate no
    other solution; and two states x < y on one path with the same value
    make y - x a u = 0 solution below y, so y is pruned and the search ends.
    """
    f = tuple(int(x) for x in f)
    if len(f) != a.rows:
        raise ValueError("inhomogeneous term has wrong dimension")
    if kernel is None:
        kernel = difference_kernel(a, limits)
    n = a.cols
    upper = [1] + [None] * (2 * n)
    sols = _minimal_kernel_solutions([f] + _difference_columns(a), upper=upper, limits=limits,
                                     preloaded=[(0,) + k for k in kernel], starts=(0,))
    return MinimalSolutionSet(tuple(sorted((s[1:n + 1], s[n + 1:]) for s in sols)), f)


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
    """(T, lines): the rows T that turn A lam = b into a nonnegative
    system, and the sparse (row, weight) pairs of each column of T A."""
    a = problem.matrix
    if a.is_nonnegative():
        rows = tuple(unit_vector(a.rows, i) for i in range(a.rows))
    else:
        facets = problem.facets
        rows = tuple(w for w, sense in zip(facets.matrix, facets.senses) if sense == GE)
    lines = [tuple((r, x) for r, x in enumerate(vec_dot(t, col) for t in rows) if x)
             for col in a.columns()]
    return rows, lines


def semigroup_contains(problem: SemigroupProblem, b,
                       limits: Limits = DEFAULT_LIMITS) -> IntVector | None:
    """Witness lam in Z^n_+ with A lam = b, or None when b is not in Q.

    A point b outside the cone of A is not in Q, and is rejected before
    any search.  Every other b is decided by one search for every pointed
    matrix: nonnegative_solution on T A lam = T b.  T is the identity when
    A >= 0 (its rows are far fewer than its facets on transportation
    matrices), and otherwise the facet rows of the cone, each nonnegative
    on every column, so T A >= 0; in both cases T b >= 0 on the cone.  For
    b in the cone, which lies in the span of A, A lam = b holds exactly
    when T A lam = T b, because T is injective on the span: if T v = 0 for
    a nonzero v in the span, then v and -v both lie in the cone, which is
    pointed.  The witness is checked against A lam = b before it is
    returned.
    """
    b = tuple(int(x) for x in b)
    a = problem.matrix
    if len(b) != a.rows:
        raise ValueError("vector dimension does not match matrix rows")
    if not problem.in_cone(b):
        return None
    rows, lines = problem._derive("membership", lambda: _membership_system(problem))
    lam = nonnegative_solution(lines, [vec_dot(t, b) for t in rows], limits)
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
    Writing t = p - q and s = F t turns it into the kernel problem
    F p - F q - s = 0 over nonnegative variables, whose basis projects
    through (p, q, s) -> p - q onto a generating set.  The monoid is
    saturated, so a candidate t is reducible exactly when t - u lies in the
    cone for another candidate u, that is when F u <= F t componentwise
    (Bruns & Koch 2001).  Results are mapped back to ambient coordinates.
    """
    basis = problem.lattice
    r = basis.rank
    columns = {c for c in problem.matrix.columns() if not vec_is_zero(c)}
    if len(columns) == r:
        # r independent columns are a basis of the lattice they generate,
        # so the saturation is the semigroup itself
        return HilbertBasis(tuple(sorted(columns)))
    facets = problem.facets
    rows = sorted(primitive_vector(tuple(vec_dot(w, column) for column in basis.columns))
                  for w, sense in zip(facets.matrix, facets.senses) if sense == GE)
    assert rows  # a full-dimensional pointed cone has facets
    m = len(rows)
    kernel_cols = [tuple(row[j] for row in rows) for j in range(r)]
    kernel_cols += [tuple(-x for x in column) for column in kernel_cols]
    kernel_cols += [tuple(-1 if i == k else 0 for i in range(m)) for k in range(m)]
    sols = _minimal_kernel_solutions(kernel_cols, limits=limits)
    # each candidate t with its facet values s = F t
    values = {}
    for s in sols:
        t = tuple(s[j] - s[r + j] for j in range(r))
        if not vec_is_zero(t):
            values[t] = s[2 * r:]
    minimal = [t for t, v in values.items()
               if not any(u != t and all(map(le, w, v)) for u, w in values.items())]
    return HilbertBasis(tuple(sorted(basis.from_coordinates(t) for t in minimal)))
