"""Hilbert bases and minimal solutions of linear Diophantine systems.

One completion, _complete (Pottier 1996), works in the conformal order:
y [= x when every y_j has the sign of x_j and |y_j| <= |x_j|.  It closes
a set under sums, each reduced by a set G: elements g [= s of G are
subtracted from s until none is left.  Both of its seedings start from
intlinalg.integer_kernel, and their docstrings prove them complete.

- graver_basis: the Graver basis of A, the minimal nonzero x with
  A x = 0, from +- the kernel basis, reduced by the set itself.
- minimal_inhomogeneous_solutions: the minimal (lam, mu) in Z^{2n}_+
  with f + A lam = A mu.  They have disjoint supports, since
  (lam - e_j, mu - e_j) would also solve the system, and on disjoint
  supports (lam, mu) <= (lam', mu') exactly when mu - lam [= mu' - lam';
  so they are the (x^-, x^+) of the minimal x with A x = f, found from
  the integer solution, reduced by the Graver basis.

The Hilbert basis of a saturation needs no search: a placing
triangulation of the cone, the integer points of each simplex's
fundamental parallelepiped and the generators hold it, and comparing
facet values reduces them to it.

Integer feasibility A lam = b of a nonnegative A, that is 3-way table
feasibility and semigroup membership, is decided by one depth-first
search with constraint propagation alone, with no LP relaxation.  It is
a loop over a stack of propagated states: a branch copies its parent's
state, or takes it over as the parent's last branch, and a failed branch
is dropped, not undone.
Membership runs it on the facet rows of the cone, for every pointed A,
a nonnegative one too: they make the system nonnegative, and near an
extreme ray the facet through it leaves a budget small enough to cap
every column off the ray.
"""

from __future__ import annotations

from operator import add, ge, index, le, mul
from typing import TYPE_CHECKING

from .errors import InternalInconsistencyError, ResourceLimitError
from .intlinalg import (
    IntMatrix,
    IntVector,
    integer_kernel,
    vec_dot,
)
from .limits import DEFAULT_LIMITS, Limits
from .polyhedra import parallelepiped_points, placing_triangulation
from .records import Record

if TYPE_CHECKING:
    from .holes import SemigroupProblem


class HilbertBasis(Record):
    """Minimal generating set of a monoid of solutions."""

    elements: tuple[IntVector, ...]


def _signs(x) -> tuple[int, int]:
    """Bit masks of the positive and of the negative coordinates of x."""
    pos = neg = 0
    for j, v in enumerate(x):
        if v > 0:
            pos |= 1 << j
        elif v < 0:
            neg |= 1 << j
    return pos, neg


def _reduce(s, basis) -> IntVector:
    """s after subtracting elements g [= s of basis, (positive mask,
    negative mask, g) triples, until none is left.

    One pass suffices: subtracting k g [= s leaves s' [= s, and a g' not
    [= s is not [= s' either; k is the largest with k g [= s.
    """
    pos, neg = _signs(s)
    for gpos, gneg, g in basis:
        # g [= s: the support of g lies in that of s, sign by sign, and
        # g_j s_j >= g_j^2 on it
        if gpos & ~pos or gneg & ~neg or not all(map(ge, map(mul, g, s), map(mul, g, g))):
            continue
        k = min(x // y for x, y in zip(s, g) if y)
        s = tuple(x - k * y for x, y in zip(s, g))
        pos, neg = _signs(s)
    return s


def _complete(work: list, moves: list, start: int, limits: Limits) -> list:
    """work[start:] closed under s -> s + g reduced by moves (_reduce), for
    each g of moves before s with a coordinate of sign opposite to s's: a
    remainder that is nonzero and not yet in work joins it.  work and moves
    hold (positive mask, negative mask, vector) triples, and moves may be
    work itself.  A remainder is never in moves, as a move [= it would have
    been subtracted.  The start counts one against max_nodes and each
    reduced sum one more; max_basis caps len(work) - start.
    """
    if len(work) - start > limits.max_basis:
        raise ResourceLimitError("minimal solution count", limits.max_basis)
    nodes = 1  # the start; every limit is at least 1
    seen = {v for *_, v in work[start:]}
    i = start
    while i < len(work):  # work grows while it is walked
        spos, sneg, s = work[i]
        for gpos, gneg, g in moves[:i]:
            if spos & gneg or sneg & gpos:
                nodes += 1
                if nodes > limits.max_nodes:
                    raise ResourceLimitError("completion search states", limits.max_nodes)
                r = _reduce(tuple(map(add, s, g)), moves)
                if any(r) and r not in seen:
                    seen.add(r)
                    work.append((*_signs(r), r))
                    if len(work) - start > limits.max_basis:
                        raise ResourceLimitError("minimal solution count", limits.max_basis)
        i += 1
    return work[start:]


def graver_basis(a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> tuple[IntVector, ...]:
    """The conformally minimal nonzero x with a@x = 0, by Pottier's
    completion (Pottier 1996; Hemmecke 2003).  Its Lawrence lift, the
    (x^-, x^+) and the (e_j, e_j) of the nonzero columns, is the Hilbert
    basis of the kernel of [a | -a] (Sturmfels 1996, ch. 7).

    G starts as +-b for each vector b of a basis of the integer kernel,
    so every kernel vector is a sum of elements of G with nonnegative
    integer coefficients.  For each pair f, g of G with a coordinate of
    opposite signs, f + g is reduced by G (_reduce) and the remainder, if
    nonzero, joins G: this is _complete with G as its own moves.  Then
    f + g is a sum of elements of G that are all [= f + g.  Take any
    kernel vector v written as such a sum of elements of G; while two
    summands f, g have opposite signs somewhere, replace them by that sum
    for f + g, which lowers the sum of the summands' 1-norms, since
    |f + g|_1 < |f|_1 + |g|_1.  The sum ends with all summands [= v, so a
    minimal v is itself in G, and the minimal elements of G are the
    Graver basis.  The completion ends by Gordan-Dickson: no remainder is
    above an earlier element of G.  _complete counts the work against
    max_nodes and max_basis.
    """
    kernel, _ = integer_kernel(a)
    work = [(*_signs(g), g) for b in kernel for g in (b, tuple(-x for x in b))]
    work = _complete(work, work, 0, limits)
    # an element above another is longer, so it comes later in this order
    kept: list[tuple[int, int, IntVector]] = []
    for t in sorted(work, key=lambda t: sum(map(abs, t[2]))):
        if _reduce(t[2], kept) == t[2]:
            kept.append(t)
    return tuple(sorted(g for *_, g in kept))


def minimal_inhomogeneous_solutions(a: IntMatrix, f, limits: Limits = DEFAULT_LIMITS,
                                    graver=None) -> tuple[tuple[IntVector, IntVector], ...]:
    """All minimal (lam, mu) in Z^{2n}_+ with f + a@lam = a@mu, sorted: the
    (x^-, x^+) of the minimal x with a@x = f, by a walk over the fiber
    with graver = graver_basis(a), computed here when not given.

    A fiber point x is minimal exactly when no Graver element g [= x: if
    y [= x is another fiber point, x - y is a kernel vector conformal to
    x, and a conformal sum of Graver elements; and if g [= x, then
    x - g [= x is another fiber point.  So G-reduced (_reduce) means
    minimal.  An f off the lattice of a has an empty fiber, and no walk.

    The walk starts at the reduced integer solution of integer_kernel and
    closes the set M it has found under m -> reduced m + g, for every
    g in G with a coordinate of sign opposite to m's: _complete on
    [*G, x_0] with G as its moves.  This is the completion of graver_basis
    on L' = {(x, t) : a@x = t f}, started from G x {0} and (x_0, 1), and
    truncated to |t| <= 1 (Hemmecke 2003): the pairs of G reduce to 0,
    sums with t = 2 are cut, and (m, 1) + (m', -1) is a kernel vector,
    reduced to 0 by G.  Write (x, 1) as a sum of elements (g, 0), (m, 1)
    and (-m, -1).  While two summands have opposite signs somewhere,
    replace them: a summand with t = -1 has a partner with t = +1, which
    cancels on t; without one, every pair sums to |t| <= 1.  Each
    replacement lowers the sum of 1-norms, so the sum ends conformal, and
    its one summand (m, 1) has m [= x.  A minimal x is then in M.
    _complete counts the work against max_nodes and max_basis.
    """
    f = tuple(map(index, f))  # lossless: floats are rejected, not truncated
    if len(f) != a.rows:
        raise ValueError("inhomogeneous term has wrong dimension")
    _, x = integer_kernel(a, f)
    if x is None:
        return ()
    if graver is None:
        graver = graver_basis(a, limits)
    basis = [(*_signs(g), g) for g in graver]
    x = _reduce(x, basis)
    found = _complete([*basis, (*_signs(x), x)], basis, len(basis), limits)
    pairs = ((tuple(max(-v, 0) for v in s), tuple(max(v, 0) for v in s)) for *_, s in found)
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# integer feasibility of nonnegative systems

def _assign(col_lines, state, col: int, val: int) -> bool:
    """Set column col to val in state, False when a budget goes negative;
    a failed state is dropped, so the other lines of col may stay stale."""
    value, budget, pending = state
    value[col] = val
    for ln, w in col_lines[col]:
        budget[ln] -= w * val
        pending[ln] -= 1
        if budget[ln] < 0:
            return False
    return True


def _propagate(line_cols, col_lines, state) -> bool:
    # budgets are nonnegative here, so assigning 0 never fails, and a
    # forced value above the cap of its column fails in _assign
    value, budget, pending = state
    changed = True
    while changed:
        changed = False
        for ln, cols in enumerate(line_cols):
            pend = pending[ln]
            if pend == 0:
                if budget[ln] != 0:
                    return False
                continue
            if budget[ln] == 0:
                for c, _ in cols:
                    if value[c] is None:
                        _assign(col_lines, state, c, 0)
                changed = True
            elif pend == 1:
                for c, w in cols:
                    if value[c] is None:
                        break
                need, rest = divmod(budget[ln], w)
                if rest or not _assign(col_lines, state, c, need):
                    return False
                changed = True
    # capacity check: each line must be fillable by its free columns; no
    # budget changes here, so each column's cap is computed once, on first use
    caps = {}
    for ln, cols in enumerate(line_cols):
        if pending[ln] == 0:
            continue
        room = 0
        for c, w in cols:
            if value[c] is None:
                cap = caps.get(c)
                if cap is None:
                    cap = caps[c] = min([budget[k] // v for k, v in col_lines[c]])
                room += w * cap
                if room >= budget[ln]:
                    break
        if room < budget[ln]:
            return False
    return True


def nonnegative_solution(lines, budget, limits: Limits = DEFAULT_LIMITS) -> list[int] | None:
    """lam in Z^n_+ with A lam = budget for a nonnegative A, or None.

    A is given sparsely: lines[c] lists the (row, weight) pairs of the
    nonzero entries of column c, which lies on those lines (rows) with
    positive integer weights.  budget must be nonnegative.

    A state holds the value of each column, None while it is free, the
    budget left on each line and the count of free columns on each line.
    Propagation closes it under: a line with budget 0 forces its free
    columns to 0; a line with one free column of weight w forces it to
    budget / w, and fails when w does not divide the budget; and a line
    budget must be reachable, sum w * cap(c) over its free columns, where
    cap(c) is the least budget // w over the lines of c.  The search is
    depth first over a stack of frames, each holding a propagated state,
    its first free column and the values of that column still to try,
    from its cap down to 0.  A branch copies the state and gives the
    column one value, except the last, 0, which takes the frame's own
    state and ends the frame; a failed branch is dropped, not undone.  Nothing
    recurses, so the depth of a search is bounded by memory alone.

    The answer is the lexicographically largest solution: at a branch every
    earlier column is set, and the values are tried from a cap that no
    solution exceeds down to 0, so any sound propagation finds the same one.
    A column on a line with budget 0 is fixed at 0 and taken off its lines
    before the search: the weights are positive, so it is 0 in every
    solution.  The root's first propagation pass would set each of these
    columns to 0, or fail before it, and the forcing rules reach the same
    closure in any order, so the search tree and its node count are those of
    a search that carries the columns.

    No LP relaxation runs, so a system with no real solution is refuted
    by propagation and branching alone; callers reject the cheap cases
    first, a point outside the cone (membership) or off the span of A
    (margin triples).  Each state entered counts one search node; raises
    ResourceLimitError rather than guessing when more than max_nodes are
    needed.
    """
    # a column on no line, or on a line with budget 0, is fixed at 0 before
    # the search starts and is put on no line
    line_cols: list[list[tuple[int, int]]] = [[] for _ in budget]
    value: list[int | None] = []
    for c, pairs in enumerate(lines):
        for ln, _ in pairs:
            if not budget[ln]:
                value.append(0)
                break
        else:
            value.append(None if pairs else 0)
            for ln, w in pairs:
                line_cols[ln].append((c, w))
    state = (value, list(budget), [len(cols) for cols in line_cols])
    frames = []
    nodes = 0
    while True:
        nodes += 1
        if nodes > limits.max_nodes:
            raise ResourceLimitError("integer-feasibility search nodes", limits.max_nodes)
        if _propagate(line_cols, lines, state):
            value, left, _ = state
            col = next((c for c, v in enumerate(value) if v is None), None)
            if col is None:
                return value
            cap = min([left[ln] // w for ln, w in lines[col]])
            frames.append((state, col, iter(range(cap, -1, -1))))
        # back up to the deepest frame: each has a value left, as its values
        # run down to 0 (no budget is negative, so cap >= 0) and taking 0 pops it
        if not frames:
            return None
        val = next(frames[-1][2])
        if val:
            (value, left, pending), col, _ = frames[-1]
            state = (value[:], left[:], pending[:])
        else:  # 0 is the frame's last value: its state is handed down
            state, col, _ = frames.pop()
        _assign(lines, state, col, val)  # val <= cap, so no budget goes negative


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
