import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from monoid_holes import (
    IntMatrix,
    NotPointedError,
    ResourceLimitError,
    SemigroupProblem,
    fundamental_holes,
    hole_ideal,
    holes_representation,
    is_hole,
    minimal_inhomogeneous_solutions,
    row_sum_bound,
    semigroup_contains,
)
from monoid_holes.holes import hole_solutions
from monoid_holes.intlinalg import vec_add, vec_dot, vec_sub
from monoid_holes.limits import Limits
from monoid_holes.polyhedra import positive_functional

from conftest import (
    brute_facets,
    brute_grading,
    brute_holes,
    brute_in_cone,
    brute_lp,
    brute_max_subdet,
    brute_member,
    brute_saturation_hilbert,
    gauss_rank,
    in_half_open_zonotope,
    numerical_gaps,
    numerical_member,
    standard_form_rows,
)


def numerical_problem(a, b):
    return SemigroupProblem.build(IntMatrix.from_rows([[a, b]]))


@pytest.fixture
def example_problem(example_matrix):
    return SemigroupProblem.build(example_matrix)


@st.composite
def pointed_two_row(draw):
    """2x3 and 2x4 matrices, nonnegative with a positive first row or
    mixed-sign; the mixed-sign ones are pointed when brute_grading finds
    a grading."""
    n = draw(st.sampled_from([3, 4]))
    if draw(st.booleans()):
        return [draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
                draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))]
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=2, max_size=2))


@st.composite
def pointed_full_rank(draw, d):
    """d x (d + 1) to d x 4 matrices of full row rank, nonnegative with a
    positive first row or mixed-sign, some with a zero column or a repeated
    column; brute_grading shows the cone pointed.  The 3-row entries are
    kept small so that the box oracles stay fast."""
    size = 3 if d == 2 else 2
    n = draw(st.integers(d + 1, 4))
    if draw(st.booleans()):
        column = st.tuples(st.integers(1, size), *[st.integers(0, size)] * (d - 1))
    else:
        column = st.tuples(*[st.integers(1 - size, size - 1)] * d)
    columns = draw(st.lists(column, min_size=n, max_size=n))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, n)), (0,) * d)
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), draw(st.sampled_from(columns)))
    rows = [list(row) for row in zip(*columns)]
    assume(brute_grading(rows) is not None and brute_max_subdet(rows) != 0)
    return rows


@st.composite
def cones_with_lineality(draw):
    """3-row matrices of rank 2, whose dual cones keep a lineality, and
    mixed-sign 2-row matrices, whose cones may hold a line; none has a
    zero row, so some column is nonzero."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=2, max_size=2))
    if draw(st.booleans()):
        mix = draw(st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                            min_size=3, max_size=3))
        rows = [[vec_dot(m, column) for column in zip(*rows)] for m in mix]
        assume(gauss_rank(rows) == 2)
    else:
        assume(any(x < 0 for row in rows for x in row))
        assume(any(x > 0 for row in rows for x in row))
    assume(all(any(row) for row in rows))
    return IntMatrix.from_rows(rows)


class TestConeOracle:
    @settings(max_examples=40, deadline=None)
    @given(cones_with_lineality())
    def test_cone_and_grading_match_brute_lp(self, a):
        nonzero = [column for column in a.columns() if any(column)]
        # a line exists when lam >= 0 with sum 1 combines the columns to 0
        line_rows = [list(row) for row in zip(*nonzero)] + [[1] * len(nonzero)]
        has_line = brute_lp(standard_form_rows(line_rows, (0,) * a.rows + (1,)),
                            (0,) * len(nonzero), "min")[0] != "infeasible"
        try:
            problem = SemigroupProblem.build(a)
        except NotPointedError:
            assert has_line
            return
        assert not has_line
        grading = positive_functional(problem.cone, problem.generators)
        assert all(vec_dot(grading, column) >= 1 for column in nonzero)
        for z in product(range(-2, 3), repeat=a.rows):
            feasible = brute_lp(standard_form_rows(a.entries, z),
                                (0,) * a.cols, "min")[0] != "infeasible"
            assert problem.in_cone(z) == feasible

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_brute_facets_match_brute_in_cone(self, d, data):
        # the box oracles of the fundamental-hole test read the cone off
        # brute_facets; Farkas decides the same points
        rows = data.draw(pointed_full_rank(d))
        facets = brute_facets(rows)
        problem = SemigroupProblem.build(IntMatrix.from_rows(rows))
        for z in product(range(-2, 3), repeat=d):
            inside = all(vec_dot(w, z) >= 0 for w in facets)
            assert inside == brute_in_cone(rows, z) == problem.in_cone(z)


class TestIsHole:
    def test_fundamental_hole(self, example_problem):
        assert is_hole(example_problem, (1, 1))

    def test_far_translate(self, example_problem):
        assert is_hole(example_problem, (1000, 1))

    def test_origin_is_not(self, example_problem):
        assert not is_hole(example_problem, (0, 0))

    def test_semigroup_point_is_not(self, example_problem):
        assert not is_hole(example_problem, (2, 2))

    def test_outside_cone_is_not(self, example_problem):
        assert not is_hole(example_problem, (-1, 0))

    def test_wrong_length_rejected(self, example_problem):
        # a short vector is not cut down to the rows it happens to reach
        with pytest.raises(ValueError):
            example_problem.in_cone((5,))
        with pytest.raises(ValueError):
            is_hole(example_problem, (-1,))


class TestNonIntegerPoints:
    # a float, a Fraction or a string is rejected, not truncated: int()
    # reads (1.5, 1.9) as the hole (1, 1)
    ENTRY_POINTS = {
        "is_hole": is_hole,
        "semigroup_contains": semigroup_contains,
        "hole_solutions": hole_solutions,
        "hole_ideal": hole_ideal,
        "minimal_inhomogeneous_solutions":
            lambda problem, z: minimal_inhomogeneous_solutions(problem.matrix, z),
    }

    @pytest.mark.parametrize("x", [1.5, Fraction(3, 2), "2"], ids=["float", "fraction", "str"])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_rejected(self, example_problem, entry, x):
        with pytest.raises(TypeError):
            self.ENTRY_POINTS[entry](example_problem, (x, 1))


class TestFundamentalHoles:
    def test_example_matrix(self, example_problem):
        fund = fundamental_holes(example_problem)
        assert fund.holes == ((1, 1),)
        assert fund.basis_holes == ((1, 1),)

    def test_identity_is_normal(self):
        problem = SemigroupProblem.build(IntMatrix.from_rows([[1, 0], [0, 1]]))
        fund = fundamental_holes(problem)
        assert fund.holes == ()
        assert fund.basis_holes == ()

    def test_three_five(self):
        fund = fundamental_holes(numerical_problem(3, 5))
        assert fund.holes == ((1,), (2,))

    def test_non_pointed_rejected(self):
        with pytest.raises(NotPointedError):
            SemigroupProblem.build(IntMatrix.from_rows([[1, -1]]))

    def test_zero_row_is_an_equation(self):
        # a zero row constrains: its coordinate must be 0 in the cone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            problem = SemigroupProblem.build(IntMatrix.from_rows([[1, 2], [0, 0]]))
        assert not problem.in_cone((3, 1))
        assert semigroup_contains(problem, (3, 1)) is None
        assert semigroup_contains(problem, (3, 0)) == (3, 0)
        problem = SemigroupProblem.build(IntMatrix.from_rows([[2, 3], [0, 0]]))
        assert fundamental_holes(problem).holes == ((1, 0),)

    def test_fundamental_holes_lie_in_zonotope(self, example_problem):
        for h in fundamental_holes(example_problem).holes:
            assert in_half_open_zonotope(example_problem.matrix, h)

    @pytest.mark.parametrize("d", [2, 3])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_match_definition_on_box_oracle(self, d, data):
        rows = data.draw(pointed_full_rank(d))
        # fundamental: a hole h with no hole h - a for a nonzero column a.
        # Such an h lies in the half-open zonotope of the distinct columns,
        # so its grading is below top, and every h - a has a smaller one.
        grading = brute_grading(rows)
        columns = {c for c in zip(*rows) if any(c)}
        top = sum(vec_dot(grading, c) for c in columns)
        try:
            fund = fundamental_holes(SemigroupProblem.build(IntMatrix.from_rows(rows)),
                                     Limits(max_nodes=20000))
        except ResourceLimitError:
            assume(False)
        holes = set(brute_holes(rows, grading, top))
        assert list(fund.holes) == sorted(
            h for h in holes if not any(vec_sub(h, a) in holes for a in columns))
        assert list(fund.basis_holes) == [
            b for b in brute_saturation_hilbert(rows) if not brute_member(rows, b)]

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 4), (3, 5), (4, 7), (5, 6)])
    def test_against_gap_oracle(self, a, b):
        gaps = numerical_gaps(a, b)
        expected = tuple(
            (g,) for g in gaps
            if not any(g2 != g and numerical_member(a, b, g - g2) for g2 in gaps))
        fund = fundamental_holes(numerical_problem(a, b))
        assert fund.holes == expected


class TestHoleIdeal:
    def test_example_matrix(self, example_problem):
        ideal = hole_ideal(example_problem, (1, 1))
        assert ideal.generators == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))

    def test_three_five_hole_two(self):
        ideal = hole_ideal(numerical_problem(3, 5), (2,))
        assert set(ideal.generators) == {(1, 0), (0, 2)}

    def test_three_five_hole_one(self):
        ideal = hole_ideal(numerical_problem(3, 5), (1,))
        assert set(ideal.generators) == {(3, 0), (0, 1)}


class TestHolesRepresentation:
    def test_example_matrix_single_cell(self, example_problem):
        rep = holes_representation(example_problem)
        assert len(rep.cells) == 1
        cell = rep.cells[0]
        assert cell.shift == (1, 1)
        assert cell.generators == ((1, 0),)
        assert not rep.is_finite

    def test_identity_empty(self):
        problem = SemigroupProblem.build(IntMatrix.from_rows([[1, 0], [0, 1]]))
        rep = holes_representation(problem)
        assert rep.cells == ()
        assert rep.is_finite

    def test_three_five_covers_gaps(self):
        problem = numerical_problem(3, 5)
        rep = holes_representation(problem)
        assert rep.is_finite
        points = sorted({cell.shift for cell in rep.cells})
        assert points == [(1,), (2,), (4,), (7,)]
        # overlap across different fundamental holes is allowed: 7 is shared
        sources = {cell.shift: [] for cell in rep.cells}
        for cell in rep.cells:
            sources[cell.shift].append(cell.fundamental_hole)
        assert sorted(sources[(7,)]) == [(1,), (2,)]

    def test_cells_contain_only_holes(self, example_problem):
        rep = holes_representation(example_problem)
        for cell in rep.cells:
            point = cell.shift
            for step in range(4):
                assert is_hole(example_problem, point)
                if cell.generators:
                    point = tuple(x + g for x, g in zip(point, cell.generators[0]))

    def test_desk_scale_completeness(self, example_problem):
        # every hole with entries up to three row sums appears in some cell
        rep = holes_representation(example_problem)
        radius = 3 * row_sum_bound(example_problem.matrix)
        grading = positive_functional(example_problem.cone, example_problem.generators)
        cap = 1 + max(vec_dot(grading, corner)
                      for corner in [(0, 0), (radius, 0), (0, radius), (radius, radius)])
        # every point of every cell with grading value below cap
        points = set()
        for cell in rep.cells:
            stack = [cell.shift]
            seen = {cell.shift}
            while stack:
                z = stack.pop()
                if vec_dot(grading, z) >= cap:
                    continue
                points.add(z)
                for g in cell.generators:
                    nxt = vec_add(z, g)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        for x in range(0, radius + 1):
            for y in range(0, radius + 1):
                z = (x, y)
                if is_hole(example_problem, z):
                    assert z in points

    @settings(max_examples=40, deadline=None)
    @given(pointed_two_row())
    def test_union_matches_box_oracle(self, rows):
        self._check_union(rows)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([4, 5]).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 2), min_size=n, max_size=n),
        *[st.lists(st.integers(-1, 2), min_size=n, max_size=n)] * 2)))
    def test_three_rows_union_matches_box_oracle(self, rows):
        self._check_union([list(row) for row in rows])

    @staticmethod
    def _check_union(rows):
        # every hole up to the grading of the sum of the distinct columns,
        # which covers the half-open zonotope and so every fundamental hole
        grading = brute_grading(rows)
        assume(grading is not None and brute_max_subdet(rows) != 0)
        top = sum(vec_dot(grading, c) for c in set(zip(*rows)) if any(c))
        try:
            rep = holes_representation(SemigroupProblem.build(IntMatrix.from_rows(rows)),
                                       Limits(max_nodes=20000))
        except ResourceLimitError:
            assume(False)
        points = set()
        for cell in rep.cells:
            stack = [cell.shift]
            while stack:
                z = stack.pop()
                if vec_dot(grading, z) <= top and z not in points:
                    points.add(z)
                    stack += [vec_add(z, g) for g in cell.generators]
        assert sorted(points) == brute_holes(rows, grading, top)

    @pytest.mark.parametrize("a,b", [(2, 5), (3, 7), (4, 5)])
    def test_union_matches_gap_oracle(self, a, b):
        problem = numerical_problem(a, b)
        rep = holes_representation(problem)
        assert rep.is_finite
        covered = set()
        for cell in rep.cells:
            assert not cell.generators
            covered.add(cell.shift[0])
        assert sorted(covered) == numerical_gaps(a, b)
