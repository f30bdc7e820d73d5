import pickle
from fractions import Fraction

import numpy as np
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
from monoid_holes import intlinalg
from monoid_holes.intlinalg import (
    LatticeBasis,
    gauss_jordan,
    integer_determinant,
    integer_kernel,
    vec_is_zero,
)
from monoid_holes.limits import Limits

from conftest import (
    _minor_gcd,
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


# entries for IntMatrix: zeros, small and large of either sign
matrix_entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2**70, 2**70))


@st.composite
def sparse_matrices(draw):
    """Rows of a d x n matrix, some of its rows and columns all zero."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(matrix_entries, min_size=n, max_size=n),
                         min_size=d, max_size=d))
    zero_rows = draw(st.sets(st.integers(0, d - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    return [[0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)]


def hnf_lattice_basis(a):
    """The lattice basis read off hermite_normal_form(a) alone: its nonzero
    columns, which come first, with the row of each one's first nonzero."""
    h = hermite_normal_form(a)
    columns = []
    pivots = []
    for j in range(h.cols):
        column = h.col(j)
        if vec_is_zero(column):
            break
        columns.append(column)
        pivots.append(next(i for i, x in enumerate(column) if x))
    return LatticeBasis(a.rows, len(columns), tuple(columns), tuple(pivots))


def dense_columns(rows):
    return [tuple(row[j] for row in rows) for j in range(len(rows[0]))]


def dense_product(rows, x):
    return tuple(sum(e * y for e, y in zip(row, x)) for row in rows)


class TestIntMatrix:
    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices(), st.data())
    def test_columns_and_product_match_dense(self, rows, data):
        m = IntMatrix.from_rows(rows)
        x = data.draw(st.lists(matrix_entries, min_size=m.cols, max_size=m.cols))
        assert m.mul_vector(x) == dense_product(rows, x)
        assert m.mul_vector(tuple(x)) == dense_product(rows, x)
        assert m.columns() == dense_columns(rows)
        assert [m.col(j) for j in range(m.cols)] == dense_columns(rows)

    @settings(max_examples=50, deadline=None)
    @given(sparse_matrices(), st.sampled_from([-1, 1]))
    def test_wrong_length_raises(self, rows, delta):
        m = IntMatrix.from_rows(rows)
        m.mul_vector([0] * m.cols)
        with pytest.raises(ValueError, match="vector length"):
            m.mul_vector([1] * (m.cols + delta))

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_kept_data_is_not_part_of_the_value(self, rows):
        used = IntMatrix.from_rows(rows)
        used.columns()
        used.mul_vector([1] * used.cols)
        fresh = IntMatrix.from_rows(rows)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) and str(used) == str(fresh)
        copy = pickle.loads(pickle.dumps(used))
        assert copy == fresh and hash(copy) == hash(fresh)
        assert copy.columns() == dense_columns(rows)
        assert copy.mul_vector([1] * copy.cols) == dense_product(rows, [1] * copy.cols)

    @pytest.mark.parametrize("build, entry", [
        pytest.param(build, entry, id=prefix + name)
        for prefix, build in [("", IntMatrix.from_rows),
                              ("entries-", lambda rows: IntMatrix(tuple(map(tuple, rows))))]
        for name, entry in [("float", 1.5), ("integral-float", 2.0), ("str", "1"),
                            ("fraction", Fraction(2))]])
    def test_from_rows_rejects_non_integers(self, build, entry):
        # read losslessly by either constructor: a float is rejected, not truncated
        with pytest.raises(TypeError):
            build([[1, 0], [entry, 1]])

    def test_entries_are_read_as_int(self):
        m = IntMatrix(((True, 0), (False, np.int64(2))))
        assert m == IntMatrix.from_rows([[1, 0], [0, 2]])
        assert all(type(x) is int for row in m.entries for x in row)

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices())
    def test_returned_column_list_is_a_copy(self, rows):
        m = IntMatrix.from_rows(rows)
        columns = m.columns()
        columns[0] = (7,) * m.rows
        columns.append((1,) * m.rows)
        columns.reverse()
        assert m.columns() == dense_columns(rows)
        assert m.col(0) == dense_columns(rows)[0]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(small_matrices, tall_matrices),
           st.lists(st.lists(st.integers(-12, 12), min_size=6, max_size=6),
                    min_size=20, max_size=20))
    def test_kernel_on_a_used_matrix_matches_a_fresh_one(self, rows, rhs):
        # the stored HNF answers every f as a fresh computation does
        used = IntMatrix.from_rows(rows)
        integer_kernel(used)
        pickled = pickle.loads(pickle.dumps(used))
        for f in rhs:
            f = f[:used.rows]
            answer = integer_kernel(IntMatrix.from_rows(rows), f)
            assert integer_kernel(used, f) == answer
            assert integer_kernel(pickled, f) == answer

    def test_hermite_normal_form_runs_once_per_matrix(self, monkeypatch):
        calls = []
        inner = intlinalg.hermite_normal_form
        monkeypatch.setattr(intlinalg, "hermite_normal_form",
                            lambda m: calls.append(m) or inner(m))
        a = IntMatrix.from_rows([[1, 1, 1, 1], [0, 2, 3, 4]])
        basis = lattice_basis(a)
        for f in [(0, 0), (1, 1), (5, 3), None]:
            integer_kernel(a, f)
        assert lattice_basis(a) == basis
        assert len(calls) == 1
        integer_kernel(pickle.loads(pickle.dumps(a)), (2, 2))
        assert len(calls) == 1


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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(small_matrices, tall_matrices, sparse_matrices(),
                     sparse_matrices().map(lambda rows: [row + row[-1:] for row in rows])))
    def test_matches_the_hnf_of_the_matrix_alone(self, rows):
        # mixed signs, rank deficient, zero and repeated columns
        m = IntMatrix.from_rows(rows)
        assert lattice_basis(m) == hnf_lattice_basis(m)


class TestIntegerKernel:
    def test_running_example(self, example_matrix):
        kernel, x = integer_kernel(example_matrix, (1, 1))
        assert len(kernel) == 2
        assert example_matrix.mul_vector(x) == (1, 1)

    def test_off_lattice(self):
        a = IntMatrix.from_rows([[2, 4]])
        kernel, x = integer_kernel(a, (3,))
        assert kernel == ((2, -1),) and x is None
        assert a.mul_vector(integer_kernel(a, (6,))[1]) == (6,)

    def test_zero_right_hand_side_by_default(self):
        assert integer_kernel(IntMatrix.from_rows([[0, 3, 5]]))[1] == (0, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(small_matrices, tall_matrices), st.data())
    def test_basis_and_solution(self, rows, data):
        m = IntMatrix.from_rows(rows)
        lam = data.draw(st.lists(st.integers(-4, 4), min_size=m.cols, max_size=m.cols))
        b = data.draw(st.lists(st.integers(-9, 9), min_size=m.rows, max_size=m.rows))
        kernel, x = integer_kernel(m, m.mul_vector(lam))
        assert m.mul_vector(x) == m.mul_vector(lam)
        for k in kernel:
            assert not any(m.mul_vector(k))
        assert len(kernel) == m.cols - gauss_rank(rows)
        # a basis of the integer kernel, not of a sublattice of it
        if kernel:
            assert _minor_gcd(kernel, len(kernel)) == 1
        _, y = integer_kernel(m, b)
        if y is None:
            assert not brute_in_lattice(rows, b)
        else:
            assert m.mul_vector(y) == tuple(b)


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
