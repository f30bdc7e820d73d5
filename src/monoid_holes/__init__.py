"""Holes of affine semigroups in exact arithmetic.

Given an integer matrix A whose columns generate a pointed cone, this
package computes the difference between the semigroup of nonnegative
integer column combinations and its saturation (cone intersect lattice):
the fundamental holes, a finite explicit representation of the possibly
infinite hole set, an entry bound certifying infiniteness, the Q-minimal
saturation points, and the transportation-problem instances where such
holes first appeared.
"""

from .dioph import (
    HilbertBasis,
    MinimalSolutionSet,
    hilbert_basis_cone_lattice,
    hilbert_basis_kernel,
    minimal_inhomogeneous_solutions,
    semigroup_contains,
)
from .errors import (
    InternalInconsistencyError,
    MatrixParseError,
    MonoidHolesError,
    NotPointedError,
    RankDeficientError,
    ResourceLimitError,
)
from .holes import (
    FundamentalHoleSet,
    HoleCell,
    HoleRepresentation,
    SemigroupProblem,
    fundamental_holes,
    hole_ideal,
    holes_representation,
    is_hole,
)
from .intlinalg import (
    IntMatrix,
    IntVector,
    LatticeBasis,
    RatVector,
    hermite_normal_form,
    lattice_basis,
    max_abs_subdeterminant,
    row_sum_bound,
    solve_rational_affine,
)
from .limits import DEFAULT_LIMITS, Limits, limits_from_env
from .monomials import (
    Monomial,
    MonomialIdeal,
    StandardPair,
    contains,
    intersect,
    standard_pairs,
)
from .polyhedra import (
    FeasibilitySystem,
    InequalitySystem,
    LPResult,
    cone_facets,
    feasibility_system,
    lp_exact,
)
from .saturation import (
    BoundReport,
    SaturationResult,
    certify_infinite,
    hole_bound,
    problem_bound,
    saturation_points,
    verify_saturation,
)
from .transport import (
    MarginTriple,
    TransportDims,
    VlachConclusions,
    VlachReport,
    table_feasible,
    table_margins,
    transportation_matrix,
    verify_vlach,
    vlach_instance,
    vlach_margins,
)

__version__ = "0.1.0"
