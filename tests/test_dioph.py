import pytest
from hypothesis import assume, given, settings, strategies as st

from monoid_holes import (
    IntMatrix,
    Limits,
    NotPointedError,
    ResourceLimitError,
    SemigroupProblem,
    hilbert_basis_cone_lattice,
    minimal_inhomogeneous_solutions,
    semigroup_contains,
)
from monoid_holes import dioph
from monoid_holes.dioph import graver_basis

from conftest import (
    brute_grading,
    brute_kernel_hilbert,
    brute_lexmax_solution,
    brute_max_subdet,
    brute_member,
    brute_minimal_inhomogeneous,
    brute_saturation_hilbert,
    sieve_member,
)


def saturation_basis(rows):
    return hilbert_basis_cone_lattice(SemigroupProblem.build(IntMatrix.from_rows(rows)))


def contains(a, b):
    return semigroup_contains(SemigroupProblem.build(a), b)


def kernel_basis(rows):
    """Minimal Hilbert basis of {x in Z^n_+ : A x = 0}: a nonnegative x is
    conformally minimal in the kernel exactly when it is componentwise
    minimal among its nonnegative vectors."""
    return tuple(g for g in graver_basis(IntMatrix.from_rows(rows)) if min(g) >= 0)


class TestHilbertBasisKernel:
    def test_matching(self):
        assert kernel_basis([[1, -1]]) == ((1, 1),)

    def test_two_three(self):
        basis = kernel_basis([[2, -3]])
        assert basis == ((3, 2),)
        assert basis == tuple(brute_kernel_hilbert([[2, -3]], 5))

    def test_trivial_kernel(self):
        assert kernel_basis([[1, 1]]) == ()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                    min_size=1, max_size=2))
    def test_matches_box_enumeration(self, rows):
        basis = kernel_basis(rows)
        # inside the box, minimality is absolute: the slices must agree exactly
        box = 6
        brute = set(brute_kernel_hilbert(rows, box))
        assert {e for e in basis if max(e) <= box} == brute
        # basis elements are pairwise incomparable and actual solutions
        a = IntMatrix.from_rows(rows)
        for e in basis:
            assert all(x == 0 for x in a.mul_vector(e))
            for other in basis:
                if other != e:
                    assert not all(x >= y for x, y in zip(e, other))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=2, max_size=2))
    def test_two_rows_match_box_enumeration(self, rows):
        box = 5
        assert {e for e in kernel_basis(rows) if max(e) <= box} == set(brute_kernel_hilbert(rows, box))


@st.composite
def graver_matrices(draw):
    """1-3 rows, 2-3 columns with entries -3..3; one column may be
    replaced by zero or by a copy of another."""
    d = draw(st.integers(1, 3))
    cols = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=2, max_size=3))
    j = draw(st.integers(0, len(cols) - 1))
    cols[j] = draw(st.sampled_from([cols[j], (0,) * d, cols[j - 1]]))
    return [list(row) for row in zip(*cols)]


class TestGraverBasis:
    def test_running_example(self, example_matrix):
        # 10 elements where the kernel of [A | -A] has 14: the 4 (e_j, e_j)
        basis = graver_basis(example_matrix)
        assert len(basis) == 10
        assert {tuple(-x for x in g) for g in basis} == set(basis)
        assert (1, -2, 0, 1) in basis

    def test_zero_column(self):
        assert graver_basis(IntMatrix.from_rows([[0, 2, -3]])) == \
            ((-1, 0, 0), (0, -3, -2), (0, 3, 2), (1, 0, 0))

    @settings(max_examples=60, deadline=None)
    @given(graver_matrices())
    def test_lawrence_lift_matches_box_enumeration(self, rows):
        # the kernel of [A | -A] is the Lawrence lift of A's Graver basis:
        # the (x^-, x^+) of its elements and the (e_j, e_j) of the nonzero
        # columns
        n, box = len(rows[0]), 4
        a = IntMatrix.from_rows(rows)
        lift = {tuple(max(-x, 0) for x in g) + tuple(max(x, 0) for x in g)
                for g in graver_basis(a)}
        lift |= {tuple(int(k in (j, n + j)) for k in range(2 * n))
                 for j, column in enumerate(a.columns()) if any(column)}
        doubled = [row + [-x for x in row] for row in rows]
        assert {e for e in lift if max(e) <= box} == set(brute_kernel_hilbert(doubled, box))


class TestHilbertBasisConeLattice:
    def test_example_matrix(self, example_matrix):
        basis = hilbert_basis_cone_lattice(SemigroupProblem.build(example_matrix))
        assert basis.elements == ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4))

    def test_identity(self):
        basis = saturation_basis([[1, 0], [0, 1]])
        assert basis.elements == ((0, 1), (1, 0))

    def test_coprime_row(self):
        basis = saturation_basis([[2, 3]])
        assert basis.elements == ((1,),)

    def test_numerical_semigroup(self):
        basis = saturation_basis([[3, 5]])
        assert basis.elements == ((1,),)

    def test_sublattice(self):
        basis = saturation_basis([[2, 0], [0, 2]])
        assert basis.elements == ((0, 2), (2, 0))

    def test_non_pointed_rejected(self):
        with pytest.raises(NotPointedError):
            saturation_basis([[1, -1]])

    def test_even_sublattice_drops_middle(self):
        # lattice of [[1,1],[0,2]] has even second coordinates, so the
        # midpoint (1,1) of the cone is not a saturation point at all
        basis = saturation_basis([[1, 1], [0, 2]])
        assert basis.elements == ((1, 0), (1, 2))

    def test_skew_cone(self):
        # cone spanned by (1,0) and (1,2) over the full lattice needs (1,1)
        basis = saturation_basis([[1, 1, 1], [0, 1, 2]])
        assert basis.elements == ((1, 0), (1, 1), (1, 2))

    @pytest.mark.parametrize("rows", [
        [[1, 1, 1, 1], [0, 2, 3, 4]],
        [[1, 1, 1], [0, 1, 3]],
        [[2, 0, 1], [0, 2, 1]],
    ])
    def test_no_element_is_a_combination_of_the_others(self, rows):
        basis = saturation_basis(rows)
        for e in basis.elements:
            others = [h for h in basis.elements if h != e]
            if not others:
                continue
            matrix = IntMatrix.from_rows([list(r) for r in zip(*others)])
            assert contains(matrix, e) is None


def matrices(rows, columns, entries):
    return columns.flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=rows, max_size=rows))


# 2-3 rows with entries -3..3, some negative; the third row of a
# rank-deficient draw is the sum of the first two, so its cone has an equation
mixed_sign = st.one_of(
    matrices(2, st.integers(2, 5), st.integers(-3, 3)),
    matrices(3, st.integers(2, 5), st.integers(-3, 3)),
    matrices(2, st.integers(2, 5), st.integers(-3, 3)).map(
        lambda rows: rows + [[x + y for x, y in zip(*rows)]]),
).filter(lambda rows: any(x < 0 for row in rows for x in row))
two_row = st.sampled_from([0, -2]).flatmap(
    lambda lo: matrices(2, st.integers(2, 4), st.integers(lo, 3)))
three_row_nonnegative = matrices(3, st.integers(3, 4), st.integers(0, 2))


class TestSaturationBasisOracle:
    """The saturation's Hilbert basis against box enumeration."""

    @staticmethod
    def assert_matches_oracle(rows):
        # the oracle needs full row rank; when the third row is the sum of
        # the first two, the basis is the oracle's for the first two rows,
        # each element with its sum added
        lifted = len(rows) == 3 and rows[2] == [x + y for x, y in zip(*rows[:2])]
        oracle_rows = rows[:2] if lifted else rows
        assume(brute_max_subdet(oracle_rows) != 0)
        try:
            problem = SemigroupProblem.build(IntMatrix.from_rows(rows))
        except NotPointedError:
            assume(False)
        expected = brute_saturation_hilbert(oracle_rows)
        if lifted:
            expected = [(x, y, x + y) for x, y in expected]
        assert list(hilbert_basis_cone_lattice(problem).elements) == expected

    @settings(max_examples=60, deadline=None)
    @given(two_row)
    def test_two_rows(self, rows):
        self.assert_matches_oracle(rows)

    @settings(max_examples=15, deadline=None)
    @given(three_row_nonnegative)
    def test_three_nonnegative_rows(self, rows):
        self.assert_matches_oracle(rows)

    @settings(max_examples=30, deadline=None)
    @given(mixed_sign)
    def test_mixed_sign(self, rows):
        self.assert_matches_oracle(rows)


class TestMinimalInhomogeneousSolutions:
    def test_example_matrix_hole(self, example_matrix):
        sols = minimal_inhomogeneous_solutions(example_matrix, (1, 1))
        expected = {
            ((0, 0, 0, 2), (0, 0, 3, 0)),
            ((0, 1, 0, 0), (1, 0, 1, 0)),
            ((0, 0, 1, 0), (1, 0, 0, 1)),
            ((0, 0, 1, 0), (0, 2, 0, 0)),
            ((0, 0, 0, 1), (0, 1, 1, 0)),
        }
        assert set(sols) == expected

    def test_zero_rhs(self, example_matrix):
        sols = minimal_inhomogeneous_solutions(example_matrix, (0, 0))
        assert sols == (((0, 0, 0, 0), (0, 0, 0, 0)),)

    def test_two_three_rhs_one(self):
        a = IntMatrix.from_rows([[2, 3]])
        sols = minimal_inhomogeneous_solutions(a, (1,))
        assert set(sols) == set(brute_minimal_inhomogeneous([[2, 3]], (1,), 4))
        assert set(sols) == {((1, 0), (0, 1)), ((0, 1), (2, 0))}

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=2),
           st.integers(0, 4))
    def test_matches_box_enumeration(self, cols, f):
        rows = [cols]
        sols = minimal_inhomogeneous_solutions(IntMatrix.from_rows(rows), (f,))
        box = 6
        brute = set(brute_minimal_inhomogeneous(rows, (f,), box))
        ours = {s for s in sols if max(max(s[0]), max(s[1]), 0) <= box}
        assert ours == brute
        a = IntMatrix.from_rows(rows)
        for lam, mu in sols:
            lhs = tuple(x + y for x, y in zip((f,), a.mul_vector(lam)))
            assert lhs == a.mul_vector(mu)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                    min_size=2, max_size=2),
           st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    def test_mixed_sign_two_rows_match_box_enumeration(self, rows, f):
        a = IntMatrix.from_rows(rows)
        sols = minimal_inhomogeneous_solutions(a, f)
        box = 4
        ours = {s for s in sols if max(s[0] + s[1]) <= box}
        assert ours == set(brute_minimal_inhomogeneous(rows, f, box))
        for lam, mu in sols:
            lhs = tuple(x + y for x, y in zip(f, a.mul_vector(lam)))
            assert lhs == a.mul_vector(mu)
        for s in sols:
            for other in sols:
                if other != s:
                    assert not all(x >= y for x, y in zip(s[0] + s[1], other[0] + other[1]))


    @settings(max_examples=60, deadline=None)
    @given(graver_matrices(), st.data())
    def test_zero_and_repeated_columns_match_box_enumeration(self, rows, data):
        f = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        sols = minimal_inhomogeneous_solutions(IntMatrix.from_rows(rows), f)
        box = 4
        ours = {s for s in sols if max(s[0] + s[1]) <= box}
        assert ours == set(brute_minimal_inhomogeneous(rows, f, box))

    @pytest.mark.parametrize("rows, f, nodes, size", [
        ([[1, 1, 1, 1], [0, 2, 3, 4]], (1, 1), 32, 5),
        ([[2, 2, 2, 1], [-2, 3, 1, 0]], (1, -1), 80, 8),
    ])
    def test_fiber_ceilings_are_exact(self, rows, f, nodes, size):
        # with the Graver basis passed in, only the walk counts: its start
        # and 31 (79) reduced sums against max_nodes, and its 5 (8) points,
        # all of them minimal, against max_basis; one unit fewer is a
        # resource limit, never a shorter answer
        a = IntMatrix.from_rows(rows)
        graver = graver_basis(a)
        for limits, what in ((Limits(max_nodes=nodes - 1), "completion search states"),
                             (Limits(max_basis=size - 1), "minimal solution count")):
            with pytest.raises(ResourceLimitError) as raised:
                minimal_inhomogeneous_solutions(a, f, limits, graver)
            assert raised.value.what == what
        expected = minimal_inhomogeneous_solutions(a, f, graver=graver)
        assert len(expected) == size
        for limits in (Limits(max_nodes=nodes), Limits(max_basis=size)):
            assert minimal_inhomogeneous_solutions(a, f, limits, graver) == expected

    def test_off_lattice_needs_no_graver_basis(self, monkeypatch):
        def no_graver(*args):
            raise AssertionError("Graver basis computed")
        monkeypatch.setattr(dioph, "graver_basis", no_graver)
        a = IntMatrix.from_rows([[2, 4], [0, 2]])
        assert minimal_inhomogeneous_solutions(a, (1, 0), Limits(max_nodes=1)) == ()
        assert minimal_inhomogeneous_solutions(a, (2, 1), Limits(max_nodes=1)) == ()


class TestHomogenizationCrossCheck:
    def test_u_one_kernel_elements_match(self):
        # minimal inhomogeneous pairs are the u = 1 slice of the kernel
        # Hilbert basis of the homogenized matrix
        a = IntMatrix.from_rows([[2, 3]])
        f = (1,)
        sols = minimal_inhomogeneous_solutions(a, f)
        kernel = kernel_basis([[1, 2, 3, -2, -3]])
        from_kernel = {(s[1:3], s[3:5]) for s in kernel if s[0] == 1}
        assert set(sols) == from_kernel


@st.composite
def weighted_systems(draw):
    """(lines, budget) of a nonnegative system: 1-3 lines with budgets 0-6,
    more than half of them 0, and 1-5 columns, each on no line, a copy of
    an earlier column, or on distinct lines with weights 1-3."""
    d = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["lines", "lines", "lines", "none", "copy"]))
        if kind == "copy" and lines:
            lines.append(draw(st.sampled_from(lines)))
        elif kind == "none":
            lines.append(())
        else:
            rows = draw(st.sets(st.integers(0, d - 1), min_size=1))
            lines.append(tuple((r, draw(st.integers(1, 3))) for r in sorted(rows)))
    budget = draw(st.lists(st.one_of(st.just(0), st.integers(0, 6)), min_size=d, max_size=d))
    return lines, budget


class TestNonnegativeSolution:
    @settings(max_examples=300, deadline=None)
    @given(weighted_systems())
    def test_is_the_lexicographically_largest_solution(self, system):
        # values are tried from a cap that no solution exceeds down to 0,
        # column by column, so the search returns the same solution as the
        # box enumeration whatever its propagation fixes first; zero budgets
        # fix columns before the search
        lines, budget = system
        assert dioph.nonnegative_solution(lines, budget) == brute_lexmax_solution(lines, budget)


class TestSemigroupContains:
    def test_member_with_witness(self, example_matrix):
        witness = contains(example_matrix, (2, 2))
        assert witness is not None
        assert example_matrix.mul_vector(witness) == (2, 2)

    def test_zero(self, example_matrix):
        assert contains(example_matrix, (0, 0)) == (0, 0, 0, 0)

    def test_hole_rejected(self, example_matrix):
        assert contains(example_matrix, (1, 1)) is None

    def test_far_hole_rejected(self, example_matrix):
        assert contains(example_matrix, (1000, 1)) is None

    def test_mixed_sign_matrix(self):
        a = IntMatrix.from_rows([[2, -1], [0, 1]])
        witness = contains(a, (1, 1))
        assert witness == (1, 1)
        assert contains(a, (1, 0)) is None

    def test_non_pointed_rejected(self):
        # membership needs the problem, and a cone with a line has none
        with pytest.raises(NotPointedError):
            SemigroupProblem.build(IntMatrix.from_rows([[1, -1]]))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                    min_size=1, max_size=3), st.data())
    def test_roundtrip_nonnegative(self, rows, data):
        a = IntMatrix.from_rows(rows)
        lam = data.draw(st.lists(st.integers(0, 4), min_size=3, max_size=3))
        b = a.mul_vector(lam)
        witness = contains(a, b)
        assert witness is not None
        assert a.mul_vector(witness) == b

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 5), st.data())
    def test_nonnegative_matches_box_oracle(self, d, n, data):
        # zero rows and zero columns are drawn too
        rows = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                                  min_size=d, max_size=d))
        b = tuple(data.draw(st.lists(st.integers(0, 12), min_size=d, max_size=d)))
        witness = contains(IntMatrix.from_rows(rows), b)
        assert (witness is not None) == brute_member(rows, b)
        if witness is not None:
            assert min(witness) >= 0
            assert tuple(sum(x * y for x, y in zip(row, witness)) for row in rows) == b

    @settings(max_examples=100, deadline=None)
    @given(mixed_sign, st.data())
    def test_mixed_sign_matches_box_oracle(self, rows, data):
        # a grading exists exactly when the cone is pointed
        assume(brute_grading(rows) is not None)
        problem = SemigroupProblem.build(IntMatrix.from_rows(rows))
        # A lam moved by up to one in each coordinate: members, holes,
        # points outside the cone and, for the rank-deficient draws,
        # points off the span that only the cone's equations reject
        lam = data.draw(st.lists(st.integers(0, 2), min_size=len(rows[0]),
                                 max_size=len(rows[0])))
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=len(rows), max_size=len(rows)))
        b = tuple(sum(x * y for x, y in zip(row, lam)) + s for row, s in zip(rows, shift))
        witness = semigroup_contains(problem, b)
        assert (witness is not None) == brute_member(rows, b)
        if witness is not None:
            assert min(witness) >= 0
            assert tuple(sum(x * y for x, y in zip(row, witness)) for row in rows) == b

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_far_points_near_a_ray_match_sieve(self, n, data):
        # where the column lam leans on spans an extreme ray, the facet
        # through it leaves b a budget of a few units, which caps every
        # column off that ray; the rows of A alone leave budgets in the
        # hundreds, and the search on them ran past 10**4 nodes here
        top = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        rows = [top, data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))]
        lam = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        lam[data.draw(st.integers(0, n - 1))] += data.draw(st.integers(20, 60))
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=2, max_size=2))
        b = tuple(sum(x * y for x, y in zip(row, lam)) + s for row, s in zip(rows, shift))
        problem = SemigroupProblem.build(IntMatrix.from_rows(rows))
        witness = semigroup_contains(problem, b, Limits(max_nodes=10**4))
        assert (witness is not None) == sieve_member(rows, b)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(-3, 4), min_size=2, max_size=2),
                    min_size=2, max_size=2), st.data())
    def test_roundtrip_mixed_sign(self, rows, data):
        a = IntMatrix.from_rows(rows)
        try:
            problem = SemigroupProblem.build(a)
        except NotPointedError:
            assume(False)
        lam = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
        b = a.mul_vector(lam)
        witness = semigroup_contains(problem, b)
        assert witness is not None
        assert a.mul_vector(witness) == b
