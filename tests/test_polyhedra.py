from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from monoid_holes import (
    FeasibilitySystem,
    InternalInconsistencyError,
    IntMatrix,
    NotPointedError,
    ResourceLimitError,
    SemigroupProblem,
    cone_facets,
    lp_exact,
)
from monoid_holes import polyhedra
from monoid_holes.polyhedra import (
    Simplex,
    cone_generators,
    maximize_each,
    parallelepiped_points,
    placing_triangulation,
    positive_functional,
)
from monoid_holes.intlinalg import unit_vector, vec_dot, vec_is_zero, vec_sub
from monoid_holes.limits import Limits
from monoid_holes.transport import TransportDims, transportation_matrix, vlach_instance

from conftest import (
    _int_determinant,
    _solve_square,
    brute_lp,
    brute_satisfies,
    gauss_determinant,
    gauss_rank,
    in_half_open_zonotope,
    standard_form_rows,
)

coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


def system_of(rows, rhs):
    return FeasibilitySystem(IntMatrix.from_rows(rows), tuple(rhs))


def cone_of(a):
    return cone_facets(cone_generators(a), a.rows)


@st.composite
def standard_systems(draw):
    """Rows of A x = b over at most 4 variables x >= 0, with small integers."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    rhs = tuple(draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)))
    return rows, rhs


def assert_matches_oracle(rows, rhs, result, objective, sense):
    oracle_rows = standard_form_rows(rows, rhs)
    assert (result.status, result.optimum) == brute_lp(oracle_rows, objective, sense)
    if result.witness is not None:
        assert brute_satisfies(oracle_rows, result.witness)
    assert (result.farkas is None) == (result.status != "infeasible")
    if result.farkas is not None:
        assert system_of(rows, rhs).refuted_by(result.farkas)


class TestConeFacets:
    def test_example_matrix(self, example_matrix):
        fc = cone_of(example_matrix)
        assert fc.equations == ()
        assert fc.facets == ((0, 1), (4, -1))

    def test_orthant(self):
        fc = cone_of(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert fc.equations == ()
        assert fc.facets == ((0, 1), (1, 0))

    def test_full_line_has_no_facets(self):
        fc = cone_of(IntMatrix.from_rows([[1, -1]]))
        assert fc.equations == fc.facets == ()

    def test_lower_dimensional_cone_gets_equalities(self):
        # single ray (1, 1): span is a line, one equality plus one facet
        fc = cone_of(IntMatrix.from_rows([[1], [1]]))
        assert len(fc.equations) == 1 and len(fc.facets) == 1
        assert fc.contains((2, 2))
        assert not fc.contains((2, 3))
        assert not fc.contains((-1, -1))
        with pytest.raises(ValueError):
            fc.contains((2, 2, 0))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                    min_size=1, max_size=5), st.data())
    def test_membership_duality(self, cols, data):
        a = IntMatrix.from_rows([list(x) for x in zip(*cols)])
        fc = cone_of(a)
        lam = data.draw(st.lists(st.integers(0, 4), min_size=a.cols, max_size=a.cols))
        point = a.mul_vector(lam)
        assert fc.contains(point)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                    min_size=1, max_size=4), st.data())
    def test_facet_violation_means_real_infeasible(self, cols, data):
        a = IntMatrix.from_rows([list(x) for x in zip(*cols)])
        fc = cone_of(a)
        z = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
        if fc.contains(z):
            return
        oracle_rows = standard_form_rows(a.entries, z)
        assert brute_lp(oracle_rows, (0,) * a.cols, "min")[0] == "infeasible"


class TestTransportationCones:
    """The cones of the 3-way transportation matrices, which the double
    description must reach."""

    @pytest.mark.parametrize("dims,equations,facets", [
        ((2, 2, 2), 5, 16), ((2, 2, 3), 6, 28), ((2, 3, 3), 7, 57),
        ((3, 3, 3), 8, 207), ((3, 3, 4), 9, 717)],
        ids=["2x2x2", "2x2x3", "2x3x3", "3x3x3", "3x3x4"])
    def test_rows_match_the_facet_oracle(self, dims, equations, facets):
        # a row w is a facet when w >= 0 on every column and the columns
        # where w vanishes have rank one less than A
        a = transportation_matrix(TransportDims(*dims))
        cone = cone_of(a)
        assert (len(cone.equations), len(cone.facets)) == (equations, facets)
        columns = a.columns()
        rank = gauss_rank(a.entries)
        assert len(cone.equations) == a.rows - rank
        assert all(vec_dot(e, c) == 0 for e in cone.equations for c in columns)
        for w in cone.facets:
            values = [vec_dot(w, c) for c in columns]
            assert min(values) == 0
            assert gauss_rank([c for c, v in zip(columns, values) if v == 0]) == rank - 1

    def test_ray_ceiling_is_exact(self):
        # 207 facets, and no step of the 3x3x3 double description holds more
        # intermediate rays than that
        a = transportation_matrix(TransportDims(3, 3, 3))
        generators = cone_generators(a)
        with pytest.raises(ResourceLimitError):
            cone_facets(generators, a.rows, Limits(max_rays=206))
        assert len(cone_facets(generators, a.rows, Limits(max_rays=207)).facets) == 207


@st.composite
def triangulated(draw):
    """A pointed cone of 1-3 rows and up to 6 columns with entries -3..3,
    in the coordinates of its lattice: the matrix, the problem, the
    generators' coordinates and their placing triangulation."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                         min_size=1, max_size=6).map(lambda cols: [list(r) for r in zip(*cols)]))
    try:
        problem = SemigroupProblem.build(IntMatrix.from_rows(rows))
    except NotPointedError:
        assume(False)
    vectors = [problem.lattice.contains(g) for g in problem.generators]
    return rows, problem, vectors, placing_triangulation(vectors, problem.lattice.rank)


def simplex_rows(vectors, simplex):
    """The matrix V whose columns are the simplex's vertices, by rows."""
    return [list(row) for row in zip(*(vectors[j] for j in simplex.vertices))]


class TestPlacingTriangulation:
    """Each simplex against exact rational arithmetic: its normals, its
    parallelepiped points and the points of the cone it covers."""

    @settings(max_examples=80, deadline=None)
    @given(triangulated())
    def test_parallelepiped_points(self, drawn):
        _, _, vectors, simplices = drawn
        for simplex in simplices:
            v = simplex_rows(vectors, simplex)
            assert simplex.det == abs(gauss_determinant(v))
            for k, normal in enumerate(simplex.normals):
                assert [vec_dot(normal, vectors[j]) for j in simplex.vertices] == \
                    [simplex.det if i == k else 0 for i in range(len(v))]
            points = parallelepiped_points(vectors, simplex)
            assert len(points) == len(set(points)) == simplex.det
            for p in points:
                q = _solve_square(v, p)
                assert all(isinstance(x, Fraction) and 0 <= x < 1 for x in q)

    @settings(max_examples=80, deadline=None)
    @given(triangulated(), st.data())
    def test_lattice_points_of_the_cone_lie_in_a_simplex(self, drawn, data):
        rows, problem, vectors, simplices = drawn
        for _ in range(5):
            lam = data.draw(st.lists(st.integers(0, 4), min_size=len(rows[0]),
                                     max_size=len(rows[0])))
            t = problem.lattice.contains(IntMatrix.from_rows(rows).mul_vector(lam))
            assert any(min(_solve_square(simplex_rows(vectors, s), t), default=0) >= 0
                       for s in simplices)

    def test_running_example(self):
        # (1,0), (1,2), (1,3), (1,4) placed in turn; only the first simplex
        # has a point besides the origin, (1, 1)
        vectors = [(1, 0), (1, 2), (1, 3), (1, 4)]
        simplices = placing_triangulation(vectors, 2)
        assert [(s.vertices, s.det) for s in simplices] == [((0, 1), 2), ((2, 1), 1), ((2, 3), 1)]
        assert sorted(parallelepiped_points(vectors, simplices[0])) == [(0, 0), (1, 1)]

    def test_simplex_ceiling(self):
        vectors = [(1, 0), (1, 2), (1, 3), (1, 4)]
        with pytest.raises(ResourceLimitError):
            placing_triangulation(vectors, 2, Limits(max_nodes=2))
        assert len(placing_triangulation(vectors, 2, Limits(max_nodes=3))) == 3


class TestFirstSimplex:
    def test_row_swap_and_negative_determinant(self):
        # the first pivot is 0, so the elimination swaps rows, and the
        # vectors span with det -6: the normals are minus the adjugate
        assert placing_triangulation([(0, 3), (2, 1)], 2) == [
            Simplex((0, 1), 6, ((-1, 2), (3, 0)))]


class TestIsPointed:
    """Pointedness is decided by positive_functional on the cone's facets:
    a functional that is at least 1 on every nonzero column, or
    NotPointedError."""

    @staticmethod
    def assert_pointed(a):
        phi = positive_functional(cone_of(a), cone_generators(a))
        assert all(vec_dot(phi, col) >= 1 for col in a.columns() if not vec_is_zero(col))

    def test_example_matrix(self, example_matrix):
        self.assert_pointed(example_matrix)

    def test_line(self):
        a = IntMatrix.from_rows([[1, -1]])
        with pytest.raises(NotPointedError):
            positive_functional(cone_of(a), cone_generators(a))

    def test_transportation_cone(self):
        self.assert_pointed(transportation_matrix(TransportDims(3, 3, 3)))

    def test_mixed_sign_pointed(self):
        self.assert_pointed(IntMatrix.from_rows([[2, 2, 2, 1], [-2, 3, 1, 0]]))

    def test_positive_functional_certifies(self):
        a = IntMatrix.from_rows([[2, -1], [0, 1]])
        phi = positive_functional(cone_of(a), cone_generators(a))
        for col in a.columns():
            assert vec_dot(phi, col) >= 1


class TestLpExact:
    def test_min_with_lower_bound(self):
        # min x subject to x - s = 3
        res = lp_exact(system_of([[1, -1]], (3,)), (1, 0), "min")
        assert res.status == "optimal"
        assert res.optimum == 3
        assert res.witness == (3, 0)

    def test_infeasible(self):
        # x - s = 1 and x + t = 0
        res = lp_exact(system_of([[1, -1, 0], [1, 0, 1]], (1, 0)), (1, 0, 0), "max")
        assert res.status == "infeasible"

    def test_unbounded(self):
        # max x subject to x - s = 0
        res = lp_exact(system_of([[1, -1]], (0,)), (1, 0), "max")
        assert res.status == "unbounded"

    def test_exact_rational_optimum(self):
        # min x + y subject to 3x + y - s = 1, x + 3y - t = 1
        system = system_of([[3, 1, -1, 0], [1, 3, 0, -1]], (1, 1))
        res = lp_exact(system, (1, 1, 0, 0), "min")
        assert res.status == "optimal"
        assert res.optimum == Fraction(1, 2)
        assert res.witness == (Fraction(1, 4), Fraction(1, 4), 0, 0)

    def test_equality_with_free_variable(self):
        # x + y = 5 with x and y free, split into nonnegative parts: min y
        system = system_of([[1, -1, 1, -1]], (5,))
        res = lp_exact(system, (0, 0, 1, -1), "min")
        assert res.status == "unbounded"

    def test_degenerate_terminates(self):
        # heavily degenerate feasibility at a single point
        res = lp_exact(system_of([[1, 1], [1, -1]], (0, 0)), (1, 0), "max")
        assert res.status == "optimal"
        assert res.optimum == 0

    def test_maximize_each_matches_single_calls(self):
        system = system_of([[1, 1, 1]], (4,))
        objectives = [unit_vector(3, j) for j in range(3)]
        batched = maximize_each(system, objectives)
        singles = [lp_exact(system, obj, "max") for obj in objectives]
        for b, s in zip(batched, singles):
            assert (b.status, b.optimum) == (s.status, s.optimum)
            assert b.optimum == 4

    @pytest.mark.parametrize("rhs", [(4,), (-4,)])
    def test_objective_length_is_checked(self, rhs):
        # on a feasible and on an infeasible system alike, both entry points
        # reject an objective of the wrong length
        system = system_of([[1, 1, 1]], rhs)
        with pytest.raises(ValueError, match="objective length"):
            maximize_each(system, [(1,)])
        with pytest.raises(ValueError, match="objective length"):
            lp_exact(system, (1,), "max")

    def test_maximize_each_pinned_optima(self):
        # each objective runs its own phase 2: the second ends at another
        # vertex than the first, and the third, equal to the first, at its
        system = system_of([[0, 1, 1], [2, 0, 1]], (4, 6))
        objectives = [(2, 2, 1), (2, 1, 3), (2, 2, 1)]
        results = maximize_each(system, objectives)
        assert [(r.optimum, r.witness) for r in results] == [
            (14, (3, 4, 0)), (14, (1, 0, 4)), (14, (3, 4, 0))]
        assert results == [lp_exact(system, o, "max") for o in objectives]


class TestPinnedAnswers:
    """Exact answers of the simplex, which pin its pivots: Bland's rule picks
    one vertex among several optimal ones, and one set of multipliers among
    many that refute a system."""

    def test_vlach_margin_witness(self):
        # the unique real point of the 3x4x6 margin polytope, half-integral
        a, f = vlach_instance()
        result = lp_exact(FeasibilitySystem(a, f), (0,) * a.cols, "min")
        support = [0, 2, 7, 8, 13, 15, 18, 21, 24, 28, 31, 35, 37, 40, 42, 47,
                   50, 52, 56, 59, 63, 64, 69, 71]
        assert (result.status, result.optimum) == ("optimal", 0)
        assert result.witness == tuple(Fraction(1, 2) if c in support else 0
                                       for c in range(a.cols))

    def test_vlach_fundamentality_farkas(self):
        # the margins minus the first column are not real feasible
        a, f = vlach_instance()
        system = FeasibilitySystem(a, vec_sub(f, a.col(0)))
        result = lp_exact(system, (0,) * a.cols, "min")
        assert result.status == "infeasible"
        assert result.farkas == (
            -4, -4, 2, -4, -4, -4, 2, 2, 2, -4, -4, 2, -4, -4, -4, -4, -4, -4,
            2, -4, -4, -4, -4, 2, -4, 2, 2, 2, 2, -4, 2, 2, -4, 2, 2, 2, -4, -4,
            -4, 2, 2, -4, -4, -4, 2, 2, 2, -4, 2, -4, 2, 2, 2, 2)
        assert system.refuted_by(result.farkas)

    def test_pivot_that_changes_the_denominator(self, monkeypatch):
        # max 3x + 4y subject to 2x + y <= 7 and x + 3y <= 9; its pivots
        # include some whose pivot entry differs from the denominator, so
        # every row is rescaled
        pivots = []
        pivot = polyhedra._pivot

        def logged(tab, zrow, basis, d, leave, enter):
            pivots.append((abs(tab[leave][enter]), d))
            return pivot(tab, zrow, basis, d, leave, enter)
        monkeypatch.setattr(polyhedra, "_pivot", logged)
        system = system_of([[2, 1, 1, 0], [1, 3, 0, 1]], (7, 9))
        result = lp_exact(system, (3, 4, 0, 0), "max")
        assert any(p != d for p, d in pivots)
        assert (result.status, result.optimum) == ("optimal", 16)
        assert result.witness == (Fraction(12, 5), Fraction(11, 5), 0, 0)


class TestLpOracle:
    @settings(max_examples=150, deadline=None)
    @given(standard_systems(), st.data())
    def test_lp_exact_matches_oracle(self, system, data):
        rows, rhs = system
        n = len(rows[0])
        objective = tuple(data.draw(st.lists(coefficients, min_size=n, max_size=n)))
        sense = data.draw(st.sampled_from(["min", "max"]))
        result = lp_exact(system_of(rows, rhs), objective, sense)
        assert_matches_oracle(rows, rhs, result, objective, sense)

    @settings(max_examples=60, deadline=None)
    @given(standard_systems(), st.data())
    def test_maximize_each_matches_oracle(self, system, data):
        rows, rhs = system
        n = len(rows[0])
        objectives = data.draw(st.lists(
            st.lists(coefficients, min_size=n, max_size=n).map(tuple), min_size=1, max_size=3))
        results = maximize_each(system_of(rows, rhs), objectives)
        for objective, result in zip(objectives, results):
            assert_matches_oracle(rows, rhs, result, objective, "max")

    def test_large_coefficients(self):
        # entries near 10^6 make the pivots' common denominators large; the
        # last two columns are the surplus of the first two rows
        rows = [[999_983, 1_000_000, 3, -1, 0],
                [-2, 999_979, 1_000_000, 0, -1],
                [1_000_000, -7, 999_961, 0, 0]]
        rhs = (999_999, 123_457, 654_321)
        objective = (1_000_000, 999_907, -3, 0, 0)
        results = {}
        for sense in ("min", "max"):
            results[sense] = lp_exact(system_of(rows, rhs), objective, sense)
            assert_matches_oracle(rows, rhs, results[sense], objective, sense)
        assert results["max"].status == "unbounded"
        assert results["min"].optimum.denominator > 10**6


@st.composite
def square_systems(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return rows, draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))


class TestEliminationOracle:
    # brute_lp's fraction-free elimination against plain fraction arithmetic

    @settings(max_examples=200, deadline=None)
    @given(square_systems())
    def test_determinant_matches_gauss(self, system):
        rows, _ = system
        assert _int_determinant(rows) == gauss_determinant(rows)

    @settings(max_examples=200, deadline=None)
    @given(square_systems())
    def test_solve_is_the_unique_solution(self, system):
        rows, rhs = system
        x = _solve_square(rows, rhs)
        if gauss_determinant(rows) == 0:
            assert x is None
        else:
            assert [sum(Fraction(a) * v for a, v in zip(row, x)) for row in rows] == rhs

    def test_fraction_entries_are_rejected(self):
        with pytest.raises(TypeError):
            _solve_square([[Fraction(1, 2)]], [1])


class TestCertificates:
    # x + y - s = 3 with x + t = 1 and y + u = 1: the multipliers
    # (1, -1, -1) give -s - t - u = 1
    BOX = FeasibilitySystem(IntMatrix.from_rows(
        [[1, 1, -1, 0, 0], [1, 0, 0, 1, 0], [0, 1, 0, 0, 1]]), (3, 1, 1))

    def test_infeasible_box_is_refuted(self):
        result = lp_exact(self.BOX, (0,) * 5, "min")
        assert result.status == "infeasible"
        assert self.BOX.refuted_by(result.farkas)
        assert self.BOX.refuted_by((1, -1, -1))

    @pytest.mark.parametrize("multipliers", [
        (1, -1, 0), (1, -1, -2), (-1, 1, 1), (0, 0, 0), (1, -1), (2, -1, -1)])
    def test_corrupted_multipliers_rejected(self, multipliers):
        assert not self.BOX.refuted_by(multipliers)

    def test_negative_rhs_and_sign_rows(self):
        # x + y = -1 over x, y >= 0: one multiplier, on the one equation
        system = system_of([[1, 1]], (-1,))
        result = lp_exact(system, (0, 0), "min")
        assert result.status == "infeasible"
        assert len(result.farkas) == 1
        assert result.farkas[0] < 0
        assert system.refuted_by(result.farkas)
        # the same row over split free variables is feasible, so it cannot be refuted
        free = system_of([[1, -1, 1, -1]], (-1,))
        assert not free.refuted_by((-1,))

    def test_maximize_each_shares_certificate(self):
        results = maximize_each(self.BOX, [unit_vector(5, 0), unit_vector(5, 1)])
        assert [r.status for r in results] == ["infeasible", "infeasible"]
        assert all(self.BOX.refuted_by(r.farkas) for r in results)

    def test_failed_certificate_check_raises(self, monkeypatch):
        monkeypatch.setattr(FeasibilitySystem, "refuted_by", lambda self, y: False)
        with pytest.raises(InternalInconsistencyError):
            lp_exact(self.BOX, (0,) * 5, "min")

    def test_failed_witness_check_raises(self, monkeypatch):
        system = system_of([[1, -1]], (3,))
        monkeypatch.setattr(FeasibilitySystem, "satisfied_by", lambda self, x: False)
        with pytest.raises(InternalInconsistencyError):
            lp_exact(system, (1, 0), "min")


class TestHalfOpenZonotope:
    def test_fundamental_hole_is_inside(self, example_matrix):
        assert in_half_open_zonotope(example_matrix, (1, 1))

    def test_origin(self, example_matrix):
        assert in_half_open_zonotope(example_matrix, (0, 0))

    def test_boundary_point_excluded(self, example_matrix):
        # (4, 0) forces the first coefficient to reach 4
        assert not in_half_open_zonotope(example_matrix, (4, 0))

    def test_interior_lattice_point(self, example_matrix):
        assert in_half_open_zonotope(example_matrix, (2, 4))

    def test_outside_cone(self, example_matrix):
        assert not in_half_open_zonotope(example_matrix, (-1, 0))

    def test_zonotope_points_lie_in_cone(self, example_matrix):
        fc = cone_of(example_matrix)
        for x in range(-1, 5):
            for y in range(-1, 10):
                if in_half_open_zonotope(example_matrix, (x, y)):
                    assert fc.contains((x, y))
