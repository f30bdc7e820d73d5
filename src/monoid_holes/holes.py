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

from itertools import repeat
from operator import add, ge, index

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
    vec_dot,
)
from .limits import DEFAULT_LIMITS, Limits
from .monomials import MonomialIdeal, StandardPair, standard_pairs
from .polyhedra import Cone, cone_facets, cone_generators, positive_functional
from .records import Record


class SemigroupProblem(Record):
    """A matrix together with its lattice, its generators (the distinct
    nonzero columns) and its cone, each computed once.

    The stages derived from it later (the Graver basis, the fundamental
    hole set, the hole solutions and the hole ideal of each hole, the hole
    representation, the entry bound and the membership system) are stored
    on it the first time they succeed.  Limits only decide whether a stage
    aborts, never what it answers, so a stored stage is valid under any
    limits.
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
    """The search of fundamental_holes, on facet values.

    z - g lies in the cone exactly when F z >= F g, F the facet rows: the
    cone's equations E hold on z - g already, as z and g both lie in the
    cone (z is a sum of Hilbert basis elements), so E z = E g = 0.  So F g
    is taken once per generator, and F z is carried along the sums, as
    F (z + b) = F z + F b.
    """
    basis = hilbert_basis_cone_lattice(problem, limits)
    basis_holes = tuple(sorted(set(basis.elements) - set(problem.generators)))
    facets = problem.cone.facets
    floors = [tuple(vec_dot(w, g) for w in facets) for g in problem.generators]

    def fundamental(values):
        return not any(all(map(ge, values, floor)) for floor in floors)

    seeds = [(b, v) for b in basis_holes
             for v in [tuple(vec_dot(w, b) for w in facets)] if fundamental(v)]
    found, seen = list(seeds), {b for b, _ in seeds}
    for z, zv in found:  # breadth first: found grows while it is walked
        for b, bv in seeds:
            y = vec_add(z, b)
            if y not in seen:
                seen.add(y)
                yv = vec_add(zv, bv)
                if fundamental(yv):
                    found.append((y, yv))
    return FundamentalHoleSet(tuple(sorted(z for z, _ in found)), basis, basis_holes)


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
    # the generators of each set of free variables, built once per set
    monoids: dict = {}
    cells = []
    # all hole ideals before any standard pairs, so a search ceiling is met first
    ideals = [hole_ideal(problem, f, limits) for f in fund.holes]
    for f, ideal in zip(fund.holes, ideals):
        for pair in standard_pairs(ideal, limits):
            gens = monoids.get(pair.free_vars)
            if gens is None:
                free = {a.col(j) for j in pair.free_vars}
                gens = monoids[pair.free_vars] = tuple(sorted(g for g in problem.generators
                                                              if g in free))
            shift = tuple(map(add, f, map(vec_dot, a.entries, repeat(pair.root))))
            cells.append((shift, gens, f, pair.root, pair))
    # the roots of one ideal's pairs are distinct, so no two tuples tie
    # before their pairs, which are never compared
    cells.sort()
    return HoleRepresentation(tuple(HoleCell(shift, gens, f, pair)
                                    for shift, gens, f, _, pair in cells), fund)
