from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monoid_holes import (
    IntMatrix,
    RankDeficientError,
    ResourceLimitError,
    hermite_normal_form,
    lattice_basis,
    max_abs_subdeterminant,
    row_sum_bound,
    solve_rational_affine,
)
from monoid_holes.intlinalg import adjugate, gauss_jordan, integer_determinant
from monoid_holes.limits import Limits

from conftest import (
    brute_in_lattice,
    brute_max_subdet,
    fraction_rref,
    gauss_determinant,
    gauss_rank,
)


small_matrices = st.integers(1, 4).flatmap(
    lambda d: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=d, max_size=d)))

# tall and rank deficient: two to five rows, then the sum of the first two
tall_matrices = st.integers(2, 5).flatmap(
    lambda d: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=d, max_size=d))).map(
    lambda rows: rows + [[x + y for x, y in zip(rows[0], rows[1])]])


class TestHermiteNormalForm:
    @staticmethod
    def assert_same_lattice(m, h):
        # every column of each lies in the lattice of the other
        assert all(brute_in_lattice(m.entries, column) for column in h.columns())
        assert all(brute_in_lattice(h.entries, column) for column in m.columns())

    def test_identity(self):
        eye = IntMatrix.from_rows([[1, 0], [0, 1]])
        assert hermite_normal_form(eye) == eye

    def test_example_matrix_spans_z2(self, example_matrix):
        h = hermite_normal_form(example_matrix)
        assert h.entries == ((1, 0, 0, 0), (0, 1, 0, 0))
        self.assert_same_lattice(example_matrix, h)

    def test_coprime_row(self):
        m = IntMatrix.from_rows([[2, 3]])
        h = hermite_normal_form(m)
        assert h.entries == ((1, 0),)
        self.assert_same_lattice(m, h)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_same_lattice_idempotent(self, rows):
        m = IntMatrix.from_rows(rows)
        h = hermite_normal_form(m)
        self.assert_same_lattice(m, h)
        assert hermite_normal_form(h) == h
        # shape: pivot rows strictly increase, pivots positive, reduced left
        pivots = []
        for j in range(h.cols):
            col = h.col(j)
            if all(x == 0 for x in col):
                assert all(all(y == 0 for y in h.col(j2)) for j2 in range(j, h.cols))
                break
            p = next(i for i, x in enumerate(col) if x)
            assert col[p] > 0
            if pivots:
                assert p > pivots[-1][0]
            for jj in range(len(pivots)):
                assert 0 <= h.entries[p][jj] < col[p]
            pivots.append((p, j))


class TestLatticeBasis:
    def test_example_matrix_full_lattice(self, example_matrix):
        basis = lattice_basis(example_matrix)
        assert basis.rank == 2
        assert basis.columns == ((1, 0), (0, 1))

    def test_diagonal(self):
        basis = lattice_basis(IntMatrix.from_rows([[2, 0], [0, 2]]))
        assert basis.columns == ((2, 0), (0, 2))

    def test_gcd_row(self):
        basis = lattice_basis(IntMatrix.from_rows([[2, 3]]))
        assert basis.columns == ((1,),)

    def test_contains_full_lattice(self):
        basis = lattice_basis(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert basis.contains((1, 1)) == (1, 1)

    def test_contains_parity_obstruction(self):
        basis = lattice_basis(IntMatrix.from_rows([[2, 0], [0, 2]]))
        assert basis.contains((1, 0)) is None

    def test_contains_gcd(self):
        basis = lattice_basis(IntMatrix.from_rows([[2, 4]]))
        assert basis.columns == ((2,),)
        assert basis.contains((3,)) is None

    @settings(max_examples=60, deadline=None)
    @given(small_matrices, st.data())
    def test_integer_combinations_are_members(self, rows, data):
        m = IntMatrix.from_rows(rows)
        lam = data.draw(st.lists(st.integers(-4, 4), min_size=m.cols, max_size=m.cols))
        z = m.mul_vector(lam)
        basis = lattice_basis(m)
        coeffs = basis.contains(z)
        assert coeffs is not None
        assert basis.from_coordinates(coeffs) == z


class TestSolveRationalAffine:
    def test_identity(self):
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        particular, kernel = solve_rational_affine(a, (7, -3))
        assert particular == (7, -3)
        assert kernel == ()

    def test_one_equation(self):
        particular, kernel = solve_rational_affine(IntMatrix.from_rows([[1, 1]]), (1,))
        assert particular == (1, 0)
        assert len(kernel) == 1
        assert kernel[0][0] + kernel[0][1] == 0

    def test_inconsistent(self):
        a = IntMatrix.from_rows([[1, 1], [1, 1]])
        assert solve_rational_affine(a, (0, 1)) is None

    def test_rank_deficient_tall(self):
        # the third row is the sum of the first two, so column 2 is free
        a = IntMatrix.from_rows([[1, 0, 2], [0, 2, 2], [1, 2, 4]])
        particular, kernel = solve_rational_affine(a, (1, 1, 2))
        assert particular == (1, Fraction(1, 2), 0)
        assert kernel == ((-2, -1, 1),)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_matrices, tall_matrices), st.data())
    def test_solution_and_kernel_are_exact(self, rows, data):
        m = IntMatrix.from_rows(rows)
        b = data.draw(st.lists(st.integers(-9, 9), min_size=m.rows, max_size=m.rows))
        solved = solve_rational_affine(m, tuple(b))
        if solved is None:
            assert gauss_rank(m.entries) < gauss_rank(
                [list(row) + [bi] for row, bi in zip(m.entries, b)])
            return
        particular, kernel = solved
        assert list(m.mul_vector(particular)) == [Fraction(x) for x in b]
        for vec in kernel:
            assert all(x == 0 for x in m.mul_vector(vec))
        # the documented convention: the free columns are those that are
        # not pivots of the reduced row echelon form
        pivots, _ = fraction_rref(rows, m.cols)
        free = [c for c in range(m.cols) if c not in pivots]
        assert len(kernel) == m.cols - gauss_rank(rows) == len(free)
        assert all(particular[c] == 0 for c in free)
        for k, vec in zip(free, kernel):
            assert [vec[c] for c in free] == [int(c == k) for c in free]


class TestGaussJordan:
    def test_swap_and_sign(self):
        pivots, reduced, d, sign = gauss_jordan([[0, 2], [3, 1]], 2)
        assert (pivots, reduced, d, sign) == ([0, 1], [[6, 0], [0, 6]], 6, -1)

    def test_zero_matrix(self):
        assert gauss_jordan([[0, 0], [0, 0]], 2) == ([], [[0, 0], [0, 0]], 1, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_matrices, tall_matrices), st.integers(0, 2), st.data())
    def test_matches_fraction_rref(self, rows, extra, data):
        # extra columns past width are carried along but never pivoted on
        rows = [row + data.draw(st.lists(st.integers(-9, 9), min_size=extra, max_size=extra))
                for row in rows]
        width = len(rows[0]) - extra
        pivots, reduced, d, sign = gauss_jordan(rows, width)
        want_pivots, rref = fraction_rref(rows, width)
        assert pivots == want_pivots
        # the pivot columns are the greedily independent ones
        for c in range(width):
            before = [[row[j] for j in range(c + 1)] for row in rows]
            grows = gauss_rank(before) > gauss_rank([row[:c] for row in before])
            assert grows == (c in pivots)
        assert d != 0
        assert reduced == [[d * x for x in row] for row in rref]
        assert all(x == 0 for row in reduced[len(pivots):] for x in row[:width])
        if extra == 0 and len(rows) == width:
            det = gauss_determinant(rows)
            assert (sign * d if len(pivots) == width else 0) == det


class TestSubdeterminants:
    def test_example_matrix(self, example_matrix):
        assert max_abs_subdeterminant(example_matrix) == 4

    def test_identity(self):
        assert max_abs_subdeterminant(IntMatrix.from_rows([[1, 0], [0, 1]])) == 1

    def test_single_row(self):
        assert max_abs_subdeterminant(IntMatrix.from_rows([[2, 3]])) == 3

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            max_abs_subdeterminant(IntMatrix.from_rows([[1, 1], [2, 2]]))

    def test_subset_ceiling(self):
        a = IntMatrix.from_rows([[1] * 30, list(range(1, 31))])
        with pytest.raises(ResourceLimitError):
            max_abs_subdeterminant(a, Limits(max_subsets=10))

    @settings(max_examples=40, deadline=None)
    @given(small_matrices)
    def test_matches_brute_force(self, rows):
        m = IntMatrix.from_rows(rows)
        if m.rows > m.cols or gauss_rank(rows) < m.rows:
            with pytest.raises(RankDeficientError):
                max_abs_subdeterminant(m)
            return
        assert max_abs_subdeterminant(m) == brute_max_subdet(rows)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_bareiss_matches_gauss(self, rows):
        assert integer_determinant(rows) == gauss_determinant(rows)


class TestAdjugate:
    def test_swap_needed(self):
        # the first pivot is 0, so the elimination swaps rows
        assert adjugate([[0, 2], [3, 1]]) == (-6, ((1, -2), (-3, 0)))

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            adjugate([[1, 2], [2, 4]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_matches_gauss(self, rows):
        det = gauss_determinant(rows)
        if det == 0:
            with pytest.raises(ValueError):
                adjugate(rows)
            return
        d, adj = adjugate(rows)
        assert d == det
        n = len(rows)
        assert [[sum(adj[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[d if i == j else 0 for j in range(n)] for i in range(n)]


class TestRowSumBound:
    def test_example_matrix(self, example_matrix):
        # the worked-example value: the larger absolute row sum
        assert row_sum_bound(example_matrix) == 9

    def test_identity(self):
        assert row_sum_bound(IntMatrix.from_rows([[1, 0], [0, 1]])) == 1

    def test_single_row(self):
        assert row_sum_bound(IntMatrix.from_rows([[2, 3]])) == 5

    def test_signs_ignored(self):
        assert row_sum_bound(IntMatrix.from_rows([[-2, 3], [1, -1]])) == 5
