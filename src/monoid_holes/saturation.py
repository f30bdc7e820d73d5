"""Hole-entry bound, infiniteness certification, and the Q-minimal
saturation points (elements whose translate of the whole saturation stays
inside the semigroup)."""

from __future__ import annotations

from .dioph import semigroup_contains
from .errors import InternalInconsistencyError
from .holes import (
    SemigroupProblem,
    fundamental_holes,
    hole_ideal,
    holes_representation,
    is_hole,
)
from .intlinalg import (
    IntMatrix,
    IntVector,
    max_abs_subdeterminant,
    row_sum_bound,
    vec_add,
    vec_scale,
    vec_sub,
)
from .limits import DEFAULT_LIMITS, Limits
from .monomials import Monomial, MonomialIdeal, intersect
from .records import Record


class BoundReport(Record):
    """Ingredients and value of the finite-case hole-entry bound."""

    d_plus_1: int
    m_f: int
    d_a: int
    bound: int


class SaturationResult(Record):
    ideal: MonomialIdeal
    points: tuple[IntVector, ...]
    generator_map: tuple[tuple[Monomial, IntVector], ...]
    removed_by_filter: tuple[IntVector, ...]


def hole_bound(a: IntMatrix, limits: Limits = DEFAULT_LIMITS) -> BoundReport:
    """(d+1) * M^2 * D where M is the largest absolute row sum and D the
    largest maximal subdeterminant; every hole entry obeys it when the
    hole set is finite."""
    d_plus_1 = a.rows + 1
    m_f = row_sum_bound(a)
    d_a = max_abs_subdeterminant(a, limits)
    return BoundReport(d_plus_1, m_f, d_a, d_plus_1 * m_f * m_f * d_a)


def problem_bound(problem: SemigroupProblem, limits: Limits = DEFAULT_LIMITS) -> BoundReport:
    """hole_bound of the problem's matrix, computed once per problem."""
    return problem._derive("bound", lambda: hole_bound(problem.matrix, limits))


def certify_infinite(problem: SemigroupProblem,
                     limits: Limits = DEFAULT_LIMITS) -> IntVector | None:
    """A verified hole violating the finite-case bound, or None.

    Walks the first cell of the hole representation that has a monoid
    direction far enough that some coordinate exceeds the bound; such a
    point proves the hole set is infinite.
    """
    report = problem_bound(problem, limits)
    for cell in holes_representation(problem, limits).cells:
        if not cell.generators:
            continue
        g = cell.generators[0]
        i = next(k for k, x in enumerate(g) if x)
        steps = report.bound + abs(cell.shift[i]) + 1
        z = vec_add(cell.shift, vec_scale(steps, g))
        if max(abs(x) for x in z) <= report.bound:
            raise InternalInconsistencyError("constructed certificate does not exceed the bound")
        if not is_hole(problem, z, limits):
            raise InternalInconsistencyError("constructed certificate is not a hole")
        return z
    return None


def saturation_points(problem: SemigroupProblem,
                      limits: Limits = DEFAULT_LIMITS) -> SaturationResult:
    """Q-minimal saturation points via the intersection of all hole ideals.

    The minimal generators of the intersection map onto saturation points
    (possibly many-to-one), but their images need not be Q-minimal: on
    [[2,2,2,1],[-2,3,1,0]] the image (4,1) is (3,1) + (1,0).  A
    Q-minimality filter drops such points and records them in
    removed_by_filter.
    """
    a = problem.matrix
    fund = fundamental_holes(problem, limits)
    ideal = MonomialIdeal.unit(a.cols)
    for f in fund.holes:
        ideal = intersect(ideal, hole_ideal(problem, f, limits))
    generator_map = tuple(sorted((g, a.mul_vector(g)) for g in ideal.generators))
    points = sorted({point for _, point in generator_map})
    removed = []
    kept = []
    for s in points:
        reducible = any(
            s != t and semigroup_contains(problem, vec_sub(s, t), limits) is not None
            for t in points
        )
        if reducible:
            removed.append(s)
        else:
            kept.append(s)
    return SaturationResult(ideal, tuple(kept), generator_map, tuple(removed))

