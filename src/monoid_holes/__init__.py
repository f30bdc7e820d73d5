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
    hilbert_basis_cone_lattice,
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
    hole_solutions,
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
from .limits import DEFAULT_LIMITS, Limits
from .monomials import (
    Monomial,
    MonomialIdeal,
    StandardPair,
    intersect,
    standard_pairs,
)
from .polyhedra import (
    FeasibilitySystem,
    Cone,
    LPResult,
    cone_facets,
    lp_exact,
)
from .saturation import (
    BoundReport,
    SaturationResult,
    certify_infinite,
    hole_bound,
    problem_bound,
    saturation_points,
)
from .transport import (
    MarginTriple,
    TransportDims,
    VlachReport,
    table_feasible,
    transportation_matrix,
    verify_vlach,
    vlach_instance,
    vlach_margins,
)

__version__ = "0.1.0"
