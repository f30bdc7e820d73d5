import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monoid_holes import (
    IntMatrix,
    MarginTriple,
    ResourceLimitError,
    TransportDims,
    table_feasible,
    transportation_matrix,
    verify_vlach,
    vlach_instance,
    vlach_margins,
)
from monoid_holes.intlinalg import solve_rational_affine, vec_add
from monoid_holes.limits import Limits
from monoid_holes.transport import (
    VLACH_DIMS,
    margins_to_vector,
    vector_to_margins,
)
from monoid_holes.polyhedra import FeasibilitySystem, lp_exact

from conftest import margin_lists


def table_margins(dims, table):
    return MarginTriple.from_lists(*margin_lists(dims.r, dims.s, dims.t, table))


# the unique real point of the 3x4x6 margin polytope, entered as twice its
# value: blocks are indexed by k, rows by j, columns by i
_DOUBLED_POINT_BLOCKS = [
    [[1, 1, 0], [0, 0, 0], [0, 0, 0], [1, 1, 0]],
    [[0, 0, 0], [1, 1, 0], [1, 1, 0], [0, 0, 0]],
    [[1, 0, 1], [1, 0, 1], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [1, 0, 1], [1, 0, 1]],
    [[0, 1, 1], [0, 0, 0], [0, 1, 1], [0, 0, 0]],
    [[0, 0, 0], [0, 1, 1], [0, 0, 0], [0, 1, 1]],
]


def known_half_integral_point():
    dims = VLACH_DIMS
    z = [Fraction(0)] * dims.num_cols
    for k, block in enumerate(_DOUBLED_POINT_BLOCKS):
        for j, row in enumerate(block):
            for i, doubled in enumerate(row):
                z[dims.col(i, j, k)] = Fraction(doubled, 2)
    return tuple(z)


class TestTransportationMatrix:
    def test_smallest(self):
        a = transportation_matrix(TransportDims(1, 1, 1))
        assert a.entries == ((1,), (1,), (1,))

    def test_346_shape(self):
        dims = TransportDims(3, 4, 6)
        a = transportation_matrix(dims)
        assert (a.rows, a.cols) == (54, 72)
        assert all(sum(a.col(j)) == 3 for j in range(a.cols))
        # each row's support size is the summed-out dimension
        for j in range(dims.s):
            for k in range(dims.t):
                assert sum(a.entries[dims.u_row(j, k)]) == dims.r
        for i in range(dims.r):
            for k in range(dims.t):
                assert sum(a.entries[dims.v_row(i, k)]) == dims.s
        for i in range(dims.r):
            for j in range(dims.s):
                assert sum(a.entries[dims.w_row(i, j)]) == dims.t

    def test_222_shape(self):
        a = transportation_matrix(TransportDims(2, 2, 2))
        assert (a.rows, a.cols) == (12, 8)

    def test_margin_vector_roundtrip(self):
        dims = TransportDims(2, 3, 2)
        rng = random.Random(7)
        table = [[[rng.randrange(4) for _ in range(dims.t)]
                  for _ in range(dims.s)] for _ in range(dims.r)]
        margins = table_margins(dims, table)
        f = margins_to_vector(dims, margins)
        assert vector_to_margins(dims, f) == margins
        flat = tuple(table[i][j][k] for (i, j, k) in dims.triples())
        assert transportation_matrix(dims).mul_vector(flat) == f


class TestVlachInstance:
    def test_grand_totals(self):
        m = vlach_margins()
        assert [sum(map(sum, block)) for block in (m.u, m.v, m.w)] == [12, 12, 12]

    def test_real_feasible_at_the_known_point(self):
        a, f = vlach_instance()
        z = known_half_integral_point()
        assert a.mul_vector(z) == f

    def test_lp_reproduces_the_point(self):
        a, f = vlach_instance()
        res = lp_exact(FeasibilitySystem(a, f), (0,) * a.cols, "min")
        assert res.status == "optimal"
        assert res.witness == known_half_integral_point()

    def test_support_structure(self):
        z = known_half_integral_point()
        assert sum(1 for x in z if x != 0) == 24
        assert sum(1 for x in z if x == 0) == 48
        assert all(x in (0, Fraction(1, 2)) for x in z)

    def test_margins_are_integer_infeasible(self):
        assert table_feasible(VLACH_DIMS, vlach_margins()) is None

    def test_support_restriction_solves_uniquely(self):
        a, f = vlach_instance()
        z = known_half_integral_point()
        support = [c for c, x in enumerate(z) if x != 0]
        a_prime = IntMatrix.from_rows(
            [[a.entries[i][c] for c in support] for i in range(a.rows)])
        solved = solve_rational_affine(a_prime, f)
        assert solved is not None
        particular, kernel = solved
        assert kernel == ()  # support columns have full rank 24
        assert particular == tuple(Fraction(1, 2) for _ in range(24))


class TestMarginConsistency:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
    def test_consistent_exactly_on_the_span(self, r, s, t, data):
        # margins of an integer table with negative cells lie in the span;
        # moving one unit between two entries of one block keeps the grand
        # totals equal, and leaves the span unless the entries coincide
        dims = TransportDims(r, s, t)
        cells = data.draw(st.lists(st.integers(-3, 3), min_size=dims.num_cols,
                                   max_size=dims.num_cols))
        table = [[[cells[dims.col(i, j, k)] for k in range(t)] for j in range(s)]
                 for i in range(r)]
        f = list(margins_to_vector(dims, table_margins(dims, table)))
        block = data.draw(st.sampled_from([range(0, s * t), range(s * t, (s + r) * t),
                                           range((s + r) * t, dims.num_rows)]))
        f[data.draw(st.sampled_from(block))] += 1
        f[data.draw(st.sampled_from(block))] -= 1
        in_span = solve_rational_affine(transportation_matrix(dims), f) is not None
        assert vector_to_margins(dims, f).is_consistent() == in_span


class TestTableFeasible:
    def test_smallest(self):
        dims = TransportDims(1, 1, 1)
        margins = MarginTriple.from_lists([[5]], [[5]], [[5]])
        assert table_feasible(dims, margins) == (((5,),),)

    def test_inconsistent_totals(self):
        dims = TransportDims(1, 1, 1)
        margins = MarginTriple.from_lists([[5]], [[4]], [[5]])
        assert table_feasible(dims, margins) is None

    def test_negative_margin(self):
        dims = TransportDims(1, 1, 1)
        margins = MarginTriple.from_lists([[-1]], [[-1]], [[-1]])
        assert table_feasible(dims, margins) is None

    def test_incremented_vlach_margin_is_feasible(self):
        a, f = vlach_instance()
        dims = VLACH_DIMS
        # first column whose cell meets a zero margin (off the support)
        col = next(j for j in range(a.cols)
                   if any(a.entries[i][j] and f[i] == 0 for i in range(a.rows)))
        incremented = vec_add(f, a.col(col))
        table = table_feasible(dims, vector_to_margins(dims, incremented))
        assert table is not None
        flat = tuple(table[i][j][k] for (i, j, k) in dims.triples())
        assert a.mul_vector(flat) == incremented

    @pytest.mark.parametrize("dims", [TransportDims(2, 2, 2), TransportDims(2, 3, 2)])
    def test_roundtrip_random_tables(self, dims):
        rng = random.Random(20240 + dims.s)
        for _ in range(25):
            table = [[[rng.randrange(3) for _ in range(dims.t)]
                      for _ in range(dims.s)] for _ in range(dims.r)]
            margins = table_margins(dims, table)
            found = table_feasible(dims, margins)
            assert found is not None
            assert table_margins(dims, found) == margins

    def test_222_matches_real_feasibility(self):
        # small three-way margins decided the same way by LP and search
        dims = TransportDims(2, 2, 2)
        a = transportation_matrix(dims)
        rng = random.Random(99)
        for _ in range(40):
            f = tuple(rng.randrange(3) for _ in range(dims.num_rows))
            margins = vector_to_margins(dims, f)
            if not margins.is_consistent():
                assert table_feasible(dims, margins) is None
                continue
            real = lp_exact(FeasibilitySystem(a, f), (0,) * a.cols, "min")
            table = table_feasible(dims, margins)
            if table is not None:
                assert real.status == "optimal"
                flat = tuple(table[i][j][k] for (i, j, k) in dims.triples())
                assert a.mul_vector(flat) == f
            else:
                # 2x2x2 semigroup is normal: real feasible implies integer
                assert real.status != "optimal"

    def test_node_ceiling(self):
        dims = TransportDims(2, 2, 2)
        margins = MarginTriple.from_lists([[2, 2], [2, 2]], [[2, 2], [2, 2]],
                                          [[2, 2], [2, 2]])
        with pytest.raises(ResourceLimitError):
            table_feasible(dims, margins, Limits(max_nodes=1))


class TestVerifyVlach:
    def test_parallel_matches_sequential(self):
        # the 48 witness searches are the pool's tasks
        assert verify_vlach(jobs=2) == verify_vlach()
