"""Fundamental holes, hole ideals, and the explicit representation of all
holes of an affine semigroup.

A hole is a point of the saturation (cone intersect lattice) that is not a
nonnegative integer combination of the matrix columns.  Fundamental holes
are the holes from which no other hole can be subtracted inside the
semigroup; they are finitely many, every hole sits above one of them, and
the holes above a fundamental hole f are read off the standard pairs of
the hole ideal of f.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .dioph import (
    HilbertBasis,
    difference_kernel,
    hilbert_basis_cone_lattice,
    minimal_inhomogeneous_solutions,
    semigroup_contains,
)
from .intlinalg import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    lattice_basis,
    vec_add,
    vec_dot,
    vec_is_zero,
    vec_sub,
)
from .limits import DEFAULT_LIMITS, Limits, pool_map
from .monomials import MonomialIdeal, StandardPair, standard_pairs
from .polyhedra import InequalitySystem, cone_facets, positive_functional


@dataclass(frozen=True)
class SemigroupProblem:
    """A matrix together with its precomputed lattice and cone data.

    The stages derived from it later (the fundamental hole set, each hole
    ideal, the hole representation, the entry bound) are stored on it the
    first time they succeed.  Limits only decide whether a stage aborts,
    never what it answers, so a stored stage is valid under any limits.
    """

    matrix: IntMatrix
    lattice: LatticeBasis
    facets: InequalitySystem
    grading: IntVector  # at least 1 on every nonzero column
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> "SemigroupProblem":
        facets = cone_facets(a, limits)
        grading = positive_functional(a, facets)  # raises NotPointedError on lines
        return cls(a, lattice_basis(a), facets, grading)

    def in_cone(self, z) -> bool:
        return self.facets.satisfied_by(z)

    def in_saturation(self, z) -> bool:
        return self.in_cone(z) and self.lattice.contains(z) is not None

    def _derive(self, key, compute):
        """The stage stored under key, computed now if it is missing; a
        stage that raises stores nothing."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


@dataclass(frozen=True)
class FundamentalHoleSet:
    holes: tuple[IntVector, ...]
    hilbert_basis: HilbertBasis
    basis_holes: tuple[IntVector, ...]

    def __iter__(self):
        return iter(self.holes)

    def __len__(self):
        return len(self.holes)


@dataclass(frozen=True)
class HoleCell:
    """shift + monoid(generators), a batch of holes with its provenance."""

    shift: IntVector
    generators: tuple[IntVector, ...]
    fundamental_hole: IntVector
    pair: StandardPair


@dataclass(frozen=True)
class HoleRepresentation:
    cells: tuple[HoleCell, ...]
    fundamental_set: FundamentalHoleSet

    @property
    def is_finite(self) -> bool:
        return all(not cell.generators for cell in self.cells)


def is_hole(problem: SemigroupProblem, z, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Whether z is feasible over the reals and the lattice but not over Z_+."""
    z = tuple(int(x) for x in z)
    if not problem.in_cone(z):
        return False
    if problem.lattice.contains(z) is None:
        return False
    return semigroup_contains(problem, z, limits) is None


def _is_fundamental(problem: SemigroupProblem, z, limits: Limits) -> bool:
    # z (a hole) fails to be fundamental exactly when z minus some column
    # is again a hole: peeling one generator off a semigroup element of the
    # difference lands on a hole.
    seen = set()
    for column in problem.matrix.columns():
        if vec_is_zero(column) or column in seen:
            continue
        seen.add(column)
        v = vec_sub(z, column)
        if not problem.in_cone(v):
            continue
        if semigroup_contains(problem, v, limits) is None:
            return False
    return True


def fundamental_holes(problem: SemigroupProblem, limits: Limits = DEFAULT_LIMITS) -> FundamentalHoleSet:
    """The finite set of fundamental holes.

    Sped-up enumeration through the Hilbert basis B of the saturation:
    holes in B are fundamental, and every fundamental hole is a sum of
    them whose partial sums are themselves holes.  The layered sum search
    prunes non-holes and anything at or beyond the grading cap of the
    half-open zonotope, then keeps the sums passing the exact
    fundamentality test.
    """
    return problem._derive("fundamental", lambda: _search_fundamental(problem, limits))


def _search_fundamental(problem: SemigroupProblem, limits: Limits) -> FundamentalHoleSet:
    a = problem.matrix
    basis = hilbert_basis_cone_lattice(problem, limits)
    basis_holes = tuple(sorted(
        b for b in basis.elements if semigroup_contains(problem, b, limits) is None))
    if not basis_holes:
        return FundamentalHoleSet((), basis, ())
    grading = problem.grading
    cap = 0
    for column in a.columns():
        if not vec_is_zero(column):
            cap += vec_dot(grading, column)
    queue = deque(basis_holes)
    visited = set(basis_holes)
    holes_found = list(basis_holes)
    while queue:
        z = queue.popleft()
        for b in basis_holes:
            y = vec_add(z, b)
            if y in visited:
                continue
            visited.add(y)
            if vec_dot(grading, y) >= cap:
                continue
            if semigroup_contains(problem, y, limits) is None:
                holes_found.append(y)
                queue.append(y)
    fund = tuple(sorted(z for z in holes_found if _is_fundamental(problem, z, limits)))
    return FundamentalHoleSet(fund, basis, basis_holes)


def hole_ideal(problem: SemigroupProblem, f, limits: Limits = DEFAULT_LIMITS) -> MonomialIdeal:
    """The monomial ideal of exponents lam with f + A lam back in the
    semigroup; its standard monomials enumerate the holes above f."""
    f = tuple(int(x) for x in f)
    return problem._derive(("ideal", f),
                           lambda: _ideal_of(problem.matrix, f, _kernel(problem, limits), limits))


def _kernel(problem: SemigroupProblem, limits: Limits) -> tuple[IntVector, ...]:
    """The Hilbert basis of A lam = A mu, shared by every hole ideal's search."""
    return problem._derive("kernel", lambda: difference_kernel(problem.matrix, limits))


def _ideal_of(a: IntMatrix, f: IntVector, kernel, limits: Limits) -> MonomialIdeal:
    solutions = minimal_inhomogeneous_solutions(a, f, limits, kernel)
    return MonomialIdeal.from_generators(a.cols, solutions.lam_parts())


def _hole_ideals(problem: SemigroupProblem, holes, limits: Limits,
                 jobs: int) -> list[MonomialIdeal]:
    """The hole ideal of each hole; with jobs > 1 the ones not yet stored
    are computed in worker processes."""
    if jobs > 1:
        missing = [f for f in holes if ("ideal", f) not in problem._derived]
        tasks = [(problem.matrix, f, _kernel(problem, limits), limits) for f in missing]
        ideals = pool_map(_ideal_of, tasks, jobs)
        problem._derived.update(zip([("ideal", f) for f in missing], ideals))
    return [hole_ideal(problem, f, limits) for f in holes]


def holes_representation(problem: SemigroupProblem, limits: Limits = DEFAULT_LIMITS,
                         jobs: int = 1) -> HoleRepresentation:
    """Finite list of cells shift + monoid(gens) whose union is the hole set."""
    return problem._derive("representation", lambda: _cells(problem, limits, jobs))


def _cells(problem: SemigroupProblem, limits: Limits, jobs: int) -> HoleRepresentation:
    fund = fundamental_holes(problem, limits)
    a = problem.matrix
    cells = []
    for f, ideal in zip(fund.holes, _hole_ideals(problem, fund.holes, limits, jobs)):
        for pair in standard_pairs(ideal, limits):
            shift = vec_add(f, a.mul_vector(pair.root))
            gens = tuple(sorted({a.col(j) for j in pair.free_vars
                                 if not vec_is_zero(a.col(j))}))
            cells.append(HoleCell(shift, gens, f, pair))
    cells.sort(key=lambda c: (c.shift, c.generators, c.fundamental_hole, c.pair.root))
    return HoleRepresentation(tuple(cells), fund)
