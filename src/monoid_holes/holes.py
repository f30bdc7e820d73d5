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

from operator import index

from .dioph import (
    HilbertBasis,
    graver_basis,
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
    vec_sub,
)
from .limits import DEFAULT_LIMITS, Limits
from .monomials import MonomialIdeal, StandardPair, standard_pairs
from .polyhedra import Cone, cone_facets, cone_generators, positive_functional
from .records import Record


class SemigroupProblem(Record):
    """A matrix together with its lattice, its generators (the distinct
    nonzero columns) and its cone, each computed once.

    The stages derived from it later (the fundamental hole set, each hole
    ideal, the hole representation, the entry bound) are stored on it the
    first time they succeed.  Limits only decide whether a stage aborts,
    never what it answers, so a stored stage is valid under any limits.
    """

    matrix: IntMatrix
    lattice: LatticeBasis
    cone: Cone
    generators: tuple[IntVector, ...]  # the distinct nonzero columns
    _derived: dict  # the stored stages, outside ==, hash and repr

    def __post_init__(self):
        object.__setattr__(self, "_derived", {})

    @classmethod
    def build(cls, a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> "SemigroupProblem":
        generators = cone_generators(a)
        cone = cone_facets(generators, a.rows, limits)
        positive_functional(cone, generators)  # raises NotPointedError on lines
        return cls(a, lattice_basis(a), cone, generators)

    def in_cone(self, z) -> bool:
        return self.cone.contains(z)

    def in_saturation(self, z) -> bool:
        return self.in_cone(z) and self.lattice.contains(z) is not None

    def _derive(self, key, compute):
        """The stage stored under key, computed now if it is missing; a
        stage that raises stores nothing."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]


class FundamentalHoleSet(Record):
    holes: tuple[IntVector, ...]
    hilbert_basis: HilbertBasis
    basis_holes: tuple[IntVector, ...]


class HoleCell(Record):
    """shift + monoid(generators), a batch of holes with its provenance."""

    shift: IntVector
    generators: tuple[IntVector, ...]
    fundamental_hole: IntVector
    pair: StandardPair


class HoleRepresentation(Record):
    cells: tuple[HoleCell, ...]
    fundamental_set: FundamentalHoleSet

    @property
    def is_finite(self) -> bool:
        return all(not cell.generators for cell in self.cells)


def is_hole(problem: SemigroupProblem, z, limits: Limits = DEFAULT_LIMITS) -> bool:
    """Whether z is feasible over the reals and the lattice but not over Z_+."""
    z = tuple(map(index, z))  # lossless: floats are rejected, not truncated
    return problem.in_saturation(z) and semigroup_contains(problem, z, limits) is None


def fundamental_holes(problem: SemigroupProblem, limits: Limits = DEFAULT_LIMITS) -> FundamentalHoleSet:
    """The finite set of fundamental holes, from the cone, the lattice and
    the Hilbert basis B of the saturation alone.

    The basis holes are B minus the generators: a basis element in the
    semigroup is a single column, since b = a_j + (b - a_j) would split it.
    The fundamental holes are the nonzero saturation points z with z - g
    off the cone for every generator g: a nonzero point of the semigroup
    keeps z - a_j in it for a column of its support, and for a hole z with
    z - g in the cone, z - g is again a hole.  With 0 they are closed under
    divisors in the saturation, so a breadth-first search over sums of the
    fundamental basis holes that keeps only fundamental sums finds them all.
    """
    return problem._derive("fundamental", lambda: _search_fundamental(problem, limits))


def _search_fundamental(problem: SemigroupProblem, limits: Limits) -> FundamentalHoleSet:
    basis = hilbert_basis_cone_lattice(problem, limits)
    basis_holes = tuple(sorted(set(basis.elements) - set(problem.generators)))

    def fundamental(z):
        return not any(problem.in_cone(vec_sub(z, g)) for g in problem.generators)

    seeds = [b for b in basis_holes if fundamental(b)]
    found, seen = list(seeds), set(seeds)
    for z in found:  # breadth first: found grows while it is walked
        for b in seeds:
            y = vec_add(z, b)
            if y not in seen:
                seen.add(y)
                if fundamental(y):
                    found.append(y)
    return FundamentalHoleSet(tuple(sorted(found)), basis, basis_holes)


def hole_solutions(problem: SemigroupProblem, f,
                   limits: Limits = DEFAULT_LIMITS) -> tuple[tuple[IntVector, IntVector], ...]:
    """The sorted minimal (lam, mu) with f + A lam = A mu, searched once per hole."""
    f = tuple(map(index, f))
    return problem._derive(("solutions", f), lambda: minimal_inhomogeneous_solutions(
        problem.matrix, f, limits, _graver(problem, limits)))


def hole_ideal(problem: SemigroupProblem, f, limits: Limits = DEFAULT_LIMITS) -> MonomialIdeal:
    """The monomial ideal of exponents lam with f + A lam back in the
    semigroup, generated by the lam parts of hole_solutions; its standard
    monomials enumerate the holes above f."""
    f = tuple(map(index, f))
    return problem._derive(("ideal", f), lambda: MonomialIdeal.from_generators(
        problem.matrix.cols, [lam for lam, _ in hole_solutions(problem, f, limits)]))


def _graver(problem: SemigroupProblem, limits: Limits) -> tuple[IntVector, ...]:
    """The Graver basis of A, shared by every hole ideal's search."""
    return problem._derive("graver", lambda: graver_basis(problem.matrix, limits))


def holes_representation(problem: SemigroupProblem,
                         limits: Limits = DEFAULT_LIMITS) -> HoleRepresentation:
    """Finite list of cells shift + monoid(gens) whose union is the hole set."""
    return problem._derive("representation", lambda: _cells(problem, limits))


def _cells(problem: SemigroupProblem, limits: Limits) -> HoleRepresentation:
    fund = fundamental_holes(problem, limits)
    a = problem.matrix
    cells = []
    # all hole ideals before any standard pairs, so a search ceiling is met first
    ideals = [hole_ideal(problem, f, limits) for f in fund.holes]
    for f, ideal in zip(fund.holes, ideals):
        for pair in standard_pairs(ideal, limits):
            shift = vec_add(f, a.mul_vector(pair.root))
            free = {a.col(j) for j in pair.free_vars}
            gens = tuple(sorted(g for g in problem.generators if g in free))
            cells.append(HoleCell(shift, gens, f, pair))
    cells.sort(key=lambda c: (c.shift, c.generators, c.fundamental_hole, c.pair.root))
    return HoleRepresentation(tuple(cells), fund)
