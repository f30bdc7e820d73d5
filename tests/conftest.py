"""Shared brute-force oracles, kept independent of the library internals;
verify_saturation, a desk-scale check built on its membership search; and
vlach_instance, the paper's 3x4x6 instance."""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import pytest

from monoid_holes import IntMatrix, MarginTriple, fundamental_holes, semigroup_contains
from monoid_holes.transport import (
    VLACH_DIMS,
    margins_to_vector,
    transportation_matrix,
    vlach_margins,
)


def gauss_determinant(rows):
    """Exact determinant via plain fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def gauss_rank(rows):
    """Rank of a list of integer rows via plain fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_rref(rows, width):
    """(pivot columns, rows) of the reduced row echelon form of a matrix
    by plain fraction Gauss-Jordan elimination, pivoting left to right in
    the first width columns on the first row at or below the pivot rows
    that is nonzero there; the rows past the pivot rows are what the
    elimination leaves of the others, in order."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m


def brute_max_subdet(rows):
    d = len(rows)
    n = len(rows[0])
    best = 0
    for cols in combinations(range(n), d):
        det = gauss_determinant([[row[j] for j in cols] for row in rows])
        best = max(best, abs(det))
    return best


def numerical_gaps(a, b):
    """Gaps of the numerical semigroup generated by coprime a < b."""
    limit = a * b
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for z in range(1, limit + 1):
        if (z >= a and reachable[z - a]) or (z >= b and reachable[z - b]):
            reachable[z] = True
    return [z for z in range(1, limit + 1) if not reachable[z]]


def numerical_member(a, b, z):
    if z < 0:
        return False
    for x in range(z // a + 1):
        if (z - a * x) % b == 0:
            return True
    return False


def minimalize_vectors(vectors):
    """Componentwise-minimal elements of a finite set of tuples."""
    vectors = sorted(set(vectors))
    out = []
    for v in vectors:
        if not any(all(x >= y for x, y in zip(v, w)) and v != w for w in vectors):
            out.append(v)
    return out


def brute_member(rows, b):
    """Whether b = A lam for some integer lam >= 0, for a nonnegative A or
    one whose cone is pointed.

    For a nonnegative A, enumerates the box 0 <= lam_j <= min b_r // A[r][j]
    over the rows with A[r][j] > 0 (lam_j = 0 for a zero column) column by
    column, skipping the rest of the box once a partial sum exceeds b.

    For a mixed-sign A, takes the grading g of brute_grading, at least 1 on
    every nonzero column, and bounds lam_j by g.r // g.a_j, where r is the
    part of b the columns from j on must still reach (at first, g.b //
    g.a_j).  The reachable residuals r are kept as a set, column by column.
    """
    if any(x < 0 for row in rows for x in row):
        g = brute_grading(rows)
        if g is None:
            raise ValueError("no grading within brute_grading's bound")
        residuals = {tuple(b)}
        for col in zip(*rows):
            step = sum(p * q for p, q in zip(g, col))
            if step:
                residuals = {tuple(x - k * y for x, y in zip(r, col))
                             for r in residuals
                             for k in range(sum(p * q for p, q in zip(g, r)) // step + 1)}
        return (0,) * len(rows) in residuals
    n = len(rows[0])

    def reach(j, resid):
        if j == n:
            return not any(resid)
        col = [row[j] for row in rows]
        top = min((r // x for r, x in zip(resid, col) if x), default=0)
        return any(reach(j + 1, [r - k * x for r, x in zip(resid, col)])
                   for k in range(top + 1))

    return all(x >= 0 for x in b) and reach(0, list(b))


def brute_lexmax_solution(lines, budget):
    """The lexicographically largest lam in Z^n_+ whose column c, on the
    (line, weight) pairs lines[c], fills every line to its budget, or None.

    Box enumeration: lam_c runs from the least budget // weight over its
    lines down to 0, and is 0 on no line.  The box is walked in descending
    lexicographic order, so the first solution met is the largest.
    """
    tops = [min((budget[ln] // w for ln, w in pairs), default=0) for pairs in lines]
    for lam in product(*(range(top, -1, -1) for top in tops)):
        filled = [0] * len(budget)
        for pairs, x in zip(lines, lam):
            for ln, w in pairs:
                filled[ln] += w * x
        if filled == list(budget):
            return list(lam)
    return None


def in_monomial_ideal(generators, m):
    """Whether some generator divides the monomial m."""
    return any(all(x <= y for x, y in zip(g, m)) for g in generators)


def in_standard_cell(root, free_vars, m):
    """Whether m lies in root + Z_+ moves on free_vars: equal to root off
    free_vars, at least root on them."""
    return all(x >= r if v in free_vars else x == r
               for v, (x, r) in enumerate(zip(m, root)))


def vector_to_margins(dims, f):
    """The margin triple whose margin vector, in the row order of
    transportation_matrix, is f."""
    u = [[f[dims.u_row(j, k)] for k in range(dims.t)] for j in range(dims.s)]
    v = [[f[dims.v_row(i, k)] for k in range(dims.t)] for i in range(dims.r)]
    w = [[f[dims.w_row(i, j)] for j in range(dims.s)] for i in range(dims.r)]
    return MarginTriple.from_lists(u, v, w)


def margin_lists(r, s, t, table):
    """The (u, v, w) margins of an r x s x t table: u sums out i, v sums
    out j and w sums out k."""
    u = [[sum(table[i][j][k] for i in range(r)) for k in range(t)] for j in range(s)]
    v = [[sum(table[i][j][k] for j in range(s)) for k in range(t)] for i in range(r)]
    w = [[sum(table[i][j][k] for k in range(t)) for j in range(s)] for i in range(r)]
    return u, v, w


def move_one_unit(solution):
    """solution with one unit moved from its first positive cell to the
    next one; two distinct cells differ in at least two margin lines, so
    the margins change."""
    moved = list(solution)
    p = next(c for c, x in enumerate(moved) if x > 0)
    moved[p] -= 1
    moved[(p + 1) % len(moved)] += 1
    return tuple(moved)


def cell_permutation(dims, pi, sigma, tau):
    """(cell images, row images) of the cell permutation (i, j, k) ->
    (pi i, sigma j, tau k): the column that each cell moves to, and the
    margin row that each u, v and w line moves to."""
    cells = tuple(dims.col(pi[i], sigma[j], tau[k]) for i, j, k in dims.triples())
    rows = [0] * dims.num_rows
    for i, j, k in dims.triples():
        rows[dims.u_row(j, k)] = dims.u_row(sigma[j], tau[k])
        rows[dims.v_row(i, k)] = dims.v_row(pi[i], tau[k])
        rows[dims.w_row(i, j)] = dims.w_row(pi[i], sigma[j])
    return cells, tuple(rows)


def permuted(vector, images):
    """The vector that holds vector[x] at images[x]."""
    out = [None] * len(vector)
    for image, x in zip(images, vector):
        out[image] = x
    return tuple(out)


def brute_margin_stabilizer(dims, f):
    """The cell images of every (pi, sigma, tau) in S_r x S_s x S_t whose
    move of the margin rows fixes f: u[sigma j][tau k] = u[j][k],
    v[pi i][tau k] = v[i][k] and w[pi i][sigma j] = w[i][j], tried one by
    one over every cell."""
    found = set()
    for pi, sigma, tau in product(permutations(range(dims.r)), permutations(range(dims.s)),
                                  permutations(range(dims.t))):
        if all(f[dims.u_row(sigma[j], tau[k])] == f[dims.u_row(j, k)]
               and f[dims.v_row(pi[i], tau[k])] == f[dims.v_row(i, k)]
               and f[dims.w_row(pi[i], sigma[j])] == f[dims.w_row(i, j)]
               for i, j, k in dims.triples()):
            found.add(cell_permutation(dims, pi, sigma, tau)[0])
    return found


def adjacent_transpositions(dims):
    """(pi, sigma, tau) for each swap of two adjacent indices on one axis,
    with the other two axes fixed; together they generate
    S_r x S_s x S_t."""
    def swaps(n):
        return [tuple(range(a)) + (a + 1, a) + tuple(range(a + 2, n)) for a in range(n - 1)]

    ids = tuple(range(dims.r)), tuple(range(dims.s)), tuple(range(dims.t))
    return ([(p, ids[1], ids[2]) for p in swaps(dims.r)]
            + [(ids[0], q, ids[2]) for q in swaps(dims.s)]
            + [(ids[0], ids[1], x) for x in swaps(dims.t)])


def brute_minimal_inhomogeneous(rows, f, box):
    """Box enumeration of minimal (lam, mu) with f + A lam = A mu."""
    n = len(rows[0])
    a = IntMatrix.from_rows(rows)
    sols = []
    for lam in product(range(box + 1), repeat=n):
        lhs = tuple(fi + x for fi, x in zip(f, a.mul_vector(lam)))
        for mu in product(range(box + 1), repeat=n):
            if a.mul_vector(mu) == lhs:
                sols.append(lam + mu)
    return [ (s[:n], s[n:]) for s in minimalize_vectors(sols) ]


def brute_kernel_hilbert(rows, box):
    """Box enumeration of minimal nonzero solutions of A x = 0, x >= 0."""
    n = len(rows[0])
    a = IntMatrix.from_rows(rows)
    zero = (0,) * len(rows)
    sols = [x for x in product(range(box + 1), repeat=n)
            if any(x) and a.mul_vector(x) == zero]
    return minimalize_vectors(sols)


def _bareiss(m):
    """Fraction-free forward elimination, in place, of an integer matrix m
    with at least as many columns as rows; every division is exact.
    Returns 0 when the leading square block is singular, and otherwise the
    sign of the row swaps: the block's determinant is then that sign times
    the last diagonal entry."""
    if not all(isinstance(x, int) for row in m for x in row):
        raise TypeError("fraction-free elimination needs integer entries")
    sign, prev = 1, 1
    for c in range(len(m)):
        pr = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        p = m[c][c]
        for i in range(c + 1, len(m)):
            q = m[i][c]
            m[i] = [0] * (c + 1) + [(p * x - q * y) // prev
                                    for x, y in zip(m[i][c + 1:], m[c][c + 1:])]
        prev = p
    return sign


def _int_determinant(rows):
    m = [list(row) for row in rows]
    sign = _bareiss(m)
    return sign * m[-1][-1] if m else 1


def _solve_square(rows, rhs):
    """The unique solution of a square integer system, or None when it is
    singular: _bareiss, then back substitution of the integers det * x
    (Cramer's rule), in which every division is exact too."""
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not _bareiss(m):
        return None
    det = m[-1][n - 1] if m else 1
    y = [0] * n
    for i in reversed(range(n)):
        y[i] = (det * m[i][n] - sum(m[i][j] * y[j] for j in range(i + 1, n))) // m[i][i]
    return tuple(Fraction(v, det) for v in y)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def brute_satisfies(rows, x):
    """Whether x satisfies every (coeffs, "eq" | "ge", rhs) row exactly."""
    for coeffs, sense, b in rows:
        v = _dot(coeffs, x)
        if v < b or (sense == "eq" and v != b):
            return False
    return True


def standard_form_rows(matrix_rows, rhs):
    """brute_lp rows of the system matrix x = rhs over x >= 0: the
    equations, then the sign rows x_j >= 0."""
    n = len(matrix_rows[0])
    rows = [(tuple(row), "eq", b) for row, b in zip(matrix_rows, rhs)]
    rows += [(tuple(int(k == j) for k in range(n)), "ge", 0) for j in range(n)]
    return rows


def brute_lp(rows, objective, sense):
    """(status, optimum) of optimizing over a pointed system of rows.

    Vertices come from every square subsystem; the region is empty exactly
    when none is feasible.  The LP is unbounded exactly when an extreme ray
    of the recession cone improves the objective; those rays solve n - 1
    homogenized rows, and the signed maximal minors give their direction.
    """
    n = len(objective)
    sign = 1 if sense == "min" else -1
    cost = [sign * c for c in objective]
    vertices = []
    for sub in combinations(rows, n):
        x = _solve_square([r[0] for r in sub], [r[2] for r in sub])
        if x is not None and brute_satisfies(rows, x):
            vertices.append(x)
    if not vertices:
        return "infeasible", None
    for sub in combinations(rows, n - 1):
        minors = [[[r[0][k] for k in range(n) if k != j] for r in sub] for j in range(n)]
        ray = tuple((-1) ** j * _int_determinant(m) for j, m in enumerate(minors))
        for r in (ray, tuple(-x for x in ray)):
            if not any(r) or _dot(cost, r) >= 0:
                continue
            if all(_dot(c, r) == 0 if s == "eq" else _dot(c, r) >= 0 for c, s, _ in rows):
                return "unbounded", None
    return "optimal", sign * min(_dot(cost, x) for x in vertices)


def _minor_gcd(rows, r):
    """gcd of the r x r minors of A.  For r = rank A it is the index of the
    lattice the columns generate in the integer points of their span, Z^d
    for a full-row-rank A."""
    g = 0
    for sub in combinations(rows, r):
        for cols in combinations(range(len(rows[0])), r):
            g = gcd(g, int(gauss_determinant([[row[j] for j in cols] for row in sub])))
    return g


def brute_saturation_hilbert(rows):
    """Hilbert basis of cone(A) intersect lattice(A) for a full-row-rank A
    whose cone is pointed, by box enumeration.

    Every basis element is sum lam_j a_j with 0 <= lam_j <= 1, so it lies in
    the box between the sums of the negative and of the positive entries of
    each row.  A point z is in the lattice when adding it as a column keeps
    the gcd of the maximal minors, and in the cone when it satisfies every
    row of brute_facets.  A saturation point x of the box is reducible when
    x - y is in the cone for a saturation point y of the box other than 0
    and x: some basis element is such a y.
    """
    index = _minor_gcd(rows, len(rows))
    lo = [sum(min(x, 0) for x in row) for row in rows]
    hi = [sum(max(x, 0) for x in row) for row in rows]
    facets = brute_facets(rows)

    def in_cone(z):
        return all(sum(p * q for p, q in zip(w, z)) >= 0 for w in facets)

    points = [z for z in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
              if any(z)
              and (index == 1
                   or _minor_gcd([list(row) + [x] for row, x in zip(rows, z)],
                                 len(rows)) == index)
              and in_cone(z)]
    return sorted(x for x in points
                  if not any(y != x and in_cone(tuple(p - q for p, q in zip(x, y)))
                             for y in points))


def brute_in_cone(rows, z):
    """Whether z is in the cone of the columns: by Farkas, min y.z over
    {y : y A >= 0} is 0 exactly then, and unbounded otherwise."""
    return brute_lp([(column, "ge", 0) for column in zip(*rows)], z, "min")[0] == "optimal"


def brute_in_lattice(rows, z):
    """Whether z is in the lattice of the columns of A.  Adding z as a
    column keeps the rank r of A exactly when z is in their rational span,
    and then the lattice grows by the ratio of the gcds of the r x r minors
    before and after; so z is in the lattice exactly when adding it keeps
    both."""
    extended = [list(row) + [x] for row, x in zip(rows, z)]
    r = gauss_rank(rows)
    return gauss_rank(extended) == r and _minor_gcd(extended, r) == _minor_gcd(rows, r)


def sieve_member(rows, b):
    """Whether b is in Q for a 2-row A whose first row is positive on every
    column, by a sieve over the layers of that grading.

    Layer k is a Python int whose bit y + off is set when (k, y) is in Q;
    it is the OR over columns (g, h) of layer k - g shifted by h.  The
    offset off keeps every point of the cone up to layer b_0 at a
    nonnegative bit.
    """
    top, y = b
    if top < 0:
        return False
    columns = list(zip(*rows))
    off = max([0] + [-((h * top) // g) for g, h in columns])
    layers = [1 << off]
    for k in range(1, top + 1):
        acc = 0
        for g, h in columns:
            if g <= k:
                acc |= layers[k - g] << h if h >= 0 else layers[k - g] >> -h
        layers.append(acc)
    return y + off >= 0 and bool(layers[top] >> (y + off) & 1)


def brute_grading(rows, bound=3):
    """An integral y with |y_i| <= bound and y.a >= 1 on every nonzero
    column a, smallest |y| first, or None."""
    columns = [c for c in zip(*rows) if any(c)]
    candidates = sorted(product(range(-bound, bound + 1), repeat=len(rows)),
                        key=lambda y: (sum(map(abs, y)), y))
    return next((y for y in candidates
                 if all(sum(p * q for p, q in zip(y, c)) >= 1 for c in columns)), None)


def brute_facets(rows):
    """The facet rows of the cone of a full-row-rank A, which is then
    full-dimensional: each facet is spanned by d - 1 independent columns,
    so its row is their normal, read off the signed minors, oriented to be
    nonnegative on every column.  A normal with columns on both sides is
    not a facet."""
    d = len(rows)
    columns = [c for c in zip(*rows) if any(c)]
    facets = set()
    for sub in combinations(columns, d - 1):
        normal = tuple((-1) ** j * int(gauss_determinant(
            [[c[k] for k in range(d) if k != j] for c in sub])) for j in range(d))
        if not any(normal):
            continue
        values = [sum(p * q for p, q in zip(normal, c)) for c in columns]
        if all(v >= 0 for v in values):
            facets.add(normal)
        elif all(v <= 0 for v in values):
            facets.add(tuple(-x for x in normal))
    return facets


def brute_semigroup(rows, grading, top):
    """The points of Q with grading.z <= top, where the grading is at least
    1 on every nonzero column, by a layer sieve: layer g holds the points
    of grading g, and is the union over columns a of layer g - grading.a
    shifted by a."""
    columns = {c for c in zip(*rows) if any(c)}
    grade = {c: sum(p * q for p, q in zip(grading, c)) for c in columns}
    layers = [{(0,) * len(rows)}]
    for g in range(1, top + 1):
        layers.append({tuple(x + y for x, y in zip(z, c))
                       for c in columns if grade[c] <= g for z in layers[g - grade[c]]})
    return set().union(*layers)


def brute_holes(rows, grading, top):
    """The holes z of a full-row-rank A with grading.z <= top, where the
    grading is at least 1 on every nonzero column.

    The points of Q come from brute_semigroup.  Every point of the cone
    with grading at most top is sum t_a a with sum t_a grading.a <= top,
    so it lies in the box spanned by 0 and the points top * a / grading.a.
    The cone is cut out by the rows of brute_facets, and the lattice test
    is brute_in_lattice's, with the index of A computed once.
    """
    columns = sorted({c for c in zip(*rows) if any(c)})
    grade = {c: sum(p * q for p, q in zip(grading, c)) for c in columns}
    semigroup = brute_semigroup(rows, grading, top)
    facets = brute_facets(rows)
    index = _minor_gcd(rows, len(rows))
    box = [range(min([0] + [top * c[r] // grade[c] for c in columns]),
                 max([0] + [top * c[r] // grade[c] for c in columns]) + 1)
           for r in range(len(rows))]
    return sorted(
        z for z in product(*box)
        if 0 <= sum(p * q for p, q in zip(grading, z)) <= top and z not in semigroup
        and all(sum(p * q for p, q in zip(w, z)) >= 0 for w in facets)
        and _minor_gcd([list(row) + [x] for row, x in zip(rows, z)], len(rows)) == index)


def in_half_open_zonotope(a, z):
    """Whether z = a @ lam for some 0 <= lam with every lam_i < 1.

    Decided by brute_lp minimizing the largest coefficient t subject to
    a @ lam = z, lam >= 0 and t - lam_j >= 0: the strict inequalities hold
    iff the min-max optimum is < 1.
    """
    if len(z) != a.rows:
        raise ValueError("vector dimension does not match matrix rows")
    for x in z:
        if not isinstance(x, int):
            raise TypeError("half-open zonotope membership is defined for integer points")
    n = a.cols
    rows = [(tuple(row) + (0,), "eq", b) for row, b in zip(a.entries, z)]
    rows += [(tuple(int(k == j) for k in range(n)) + (0,), "ge", 0) for j in range(n)]
    rows += [(tuple(-int(k == j) for k in range(n)) + (1,), "ge", 0) for j in range(n)]
    status, optimum = brute_lp(rows, (0,) * n + (1,), "min")
    return status == "optimal" and optimum < 1


def verify_saturation(problem, s, box_radius=0):
    """Desk-scale check that s + saturation stays inside the semigroup.

    Checks s itself, s plus every fundamental hole (sufficient in theory),
    and s plus every saturation point z with |z_i| <= box_radius.
    """
    s = tuple(int(x) for x in s)
    if semigroup_contains(problem, s) is None:
        return False
    for f in fundamental_holes(problem).holes:
        if semigroup_contains(problem, tuple(x + y for x, y in zip(s, f))) is None:
            return False
    for z in product(range(-box_radius, box_radius + 1), repeat=problem.matrix.rows):
        if problem.in_saturation(z) and \
                semigroup_contains(problem, tuple(x + y for x, y in zip(s, z))) is None:
            return False
    return True


@pytest.fixture
def example_matrix():
    """The 2x4 running example with one fundamental hole."""
    return IntMatrix.from_rows([[1, 1, 1, 1], [0, 2, 3, 4]])


def vlach_instance():
    """The 3x4x6 constraint matrix and the paper's margin vector f, which
    is real- but not integer-feasible."""
    return transportation_matrix(VLACH_DIMS), margins_to_vector(VLACH_DIMS, vlach_margins())
