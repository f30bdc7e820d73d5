import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monoid_holes import (
    IntMatrix,
    InternalInconsistencyError,
    MarginTriple,
    ResourceLimitError,
    SemigroupProblem,
    TransportDims,
    VlachReport,
    fundamental_holes,
    table_feasible,
    transportation_matrix,
    verify_vlach,
    vlach_instance,
    vlach_margins,
)
from monoid_holes import polyhedra, transport
from monoid_holes.intlinalg import solve_rational_affine, vec_add, vec_sub
from monoid_holes.limits import Limits
from monoid_holes.transport import VLACH_DIMS, margins_to_vector
from monoid_holes.polyhedra import FeasibilitySystem, lp_exact

from conftest import margin_lists, move_one_unit, vector_to_margins


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

    @pytest.mark.parametrize("dims", [(2.0, 2, 2), (2, 2, 2.5), (2, "2", 2)])
    def test_dims_reject_non_integers(self, dims):
        # rejected when built, not as a float column count or inside range
        with pytest.raises(TypeError):
            TransportDims(*dims)

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


class TestTransportationSemigroups:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (2, 3, 3)],
                             ids=["2x2x2", "2x2x3", "2x3x3"])
    def test_two_slice_tables_are_normal(self, dims):
        # up to row order, the 2xsxt matrix is the Lawrence lifting
        # [[B, 0], [0, B], [I, I]] of the totally unimodular margin matrix
        # B of sxt tables, so it is unimodular: its saturation's Hilbert
        # basis is the columns and it has no holes
        a = transportation_matrix(TransportDims(*dims))
        found = fundamental_holes(SemigroupProblem.build(a))
        assert found.hilbert_basis.elements == tuple(sorted(a.columns()))
        assert found.holes == found.basis_holes == ()


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

    def test_infeasibility_node_ceiling(self):
        # 18 zero margins fix 48 of the 72 cells before the search, and the
        # refutation takes 3 nodes: one fewer is a resource limit
        with pytest.raises(ResourceLimitError):
            table_feasible(VLACH_DIMS, vlach_margins(), Limits(max_nodes=2))
        assert table_feasible(VLACH_DIMS, vlach_margins(), Limits(max_nodes=3)) is None

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

    @pytest.mark.parametrize("wrong", [
        move_one_unit,
        # three times the 2x2x2 move of signs (-1)^(i+j+k) keeps every
        # margin, and leaves a negative cell, since no cell exceeds 2
        lambda flat: tuple(x + 3 * (-1) ** sum(t)
                           for x, t in zip(flat, TransportDims(2, 2, 2).triples())),
    ], ids=["moved", "negative"])
    def test_a_wrong_table_is_an_internal_error(self, monkeypatch, wrong):
        search = transport.nonnegative_solution
        monkeypatch.setattr(transport, "nonnegative_solution",
                            lambda *args: wrong(search(*args)))
        dims = TransportDims(2, 2, 2)
        margins = MarginTriple.from_lists(*margin_lists(2, 2, 2, [[[1, 1], [1, 1]]] * 2))
        with pytest.raises(InternalInconsistencyError, match="given margins"):
            table_feasible(dims, margins)

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

    @pytest.mark.parametrize("dims", [TransportDims(2, 2, 2), TransportDims(2, 3, 3),
                                      TransportDims(2, 3, 4)], ids=["2x2x2", "2x3x3", "2x3x4"])
    def test_222_matches_real_feasibility(self, dims):
        # a 2 x s x t matrix is the Lawrence lifting of a totally unimodular
        # matrix, so its semigroup is normal: a real table implies an integer
        # one, and the search's verdict must be the LP's.  Lowering cells of
        # a random table by 2 gives margins in the span that may have no
        # nonnegative table
        a = transportation_matrix(dims)
        rng = random.Random(dims.num_cols)
        cells = dims.triples()
        verdicts = []
        for _ in range(150):
            table = [[[rng.randrange(3) for _ in range(dims.t)]
                      for _ in range(dims.s)] for _ in range(dims.r)]
            for _ in range(rng.randrange(3)):
                i, j, k = rng.choice(cells)
                table[i][j][k] -= 2
            margins = table_margins(dims, table)
            if not margins.is_nonnegative():
                continue
            f = margins_to_vector(dims, margins)
            real = lp_exact(FeasibilitySystem(a, f), (0,) * a.cols, "min")
            found = table_feasible(dims, margins)
            assert (found is not None) == (real.status == "optimal")
            if found is not None:
                assert table_margins(dims, found) == margins
            verdicts.append(found is not None)
        # 4 of the 80 to 96 cases of each shape have no table
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("ragged", ["u", "v", "w"])
    def test_ragged_block_rejected(self, ragged):
        # a short later row is caught, not only a short first row
        blocks = {name: [[1, 1], [1, 1]] for name in "uvw"}
        blocks[ragged] = [[1, 1], [1]]
        margins = MarginTriple.from_lists(blocks["u"], blocks["v"], blocks["w"])
        with pytest.raises(ValueError, match="inconsistent shapes"):
            margins.dims()
        with pytest.raises(ValueError, match="inconsistent shapes"):
            table_feasible(TransportDims(2, 2, 2), margins)

    def test_empty_block_rejected(self):
        # an empty u block reads as s = t = 0, which TransportDims rejects
        margins = MarginTriple.from_lists([], [[1]], [[]])
        with pytest.raises(ValueError, match="dimensions must be positive"):
            margins.dims()
        with pytest.raises(ValueError, match="dimensions must be positive"):
            table_feasible(TransportDims(1, 1, 1), margins)

    @pytest.mark.parametrize("x", [1.5, Fraction(3, 2), "2"], ids=["float", "fraction", "str"])
    def test_non_integer_margin_rejected(self, x):
        with pytest.raises(TypeError):
            MarginTriple.from_lists([[x]], [[1]], [[1]])

    def test_node_ceiling(self):
        dims = TransportDims(2, 2, 2)
        margins = MarginTriple.from_lists([[2, 2], [2, 2]], [[2, 2], [2, 2]],
                                          [[2, 2], [2, 2]])
        with pytest.raises(ResourceLimitError):
            table_feasible(dims, margins, Limits(max_nodes=1))

    def test_node_ceiling_is_exact(self):
        # the second random 4x5x6 table of Random(1) takes 54 search nodes:
        # one fewer is a resource limit, not a wrong verdict
        dims = TransportDims(4, 5, 6)
        rng = random.Random(1)
        for _ in range(2):
            table = [[[rng.randrange(3) for _ in range(dims.t)]
                      for _ in range(dims.s)] for _ in range(dims.r)]
        margins = table_margins(dims, table)
        with pytest.raises(ResourceLimitError):
            table_feasible(dims, margins, Limits(max_nodes=53))
        found = table_feasible(dims, margins, Limits(max_nodes=54))
        assert table_margins(dims, found) == margins


def flags(report):
    """The four claims of a VlachReport, in field order."""
    return (report.f_is_hole, report.f_is_fundamental_checked,
            report.unique_real_solution, report.holes_are_f_plus_monoid_a_prime)


class TestVerifyVlach:
    def test_runs_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the exact LP ran")

        monkeypatch.setattr(polyhedra, "_run_simplex", no_lp)
        assert verify_vlach().all_true()

    def test_node_ceiling(self):
        # the costliest of the 48 witness searches takes 4 nodes
        with pytest.raises(ResourceLimitError):
            verify_vlach(Limits(max_nodes=3))
        assert verify_vlach(Limits(max_nodes=4)).all_true()

    def test_witnesses_put_the_margins_in_the_lattice(self, monkeypatch):
        # a checked witness mu at c gives f = A (mu - e_c), so the Hermite
        # normal form of A is not needed
        def no_hnf(*args):
            raise AssertionError("the lattice basis was computed")

        monkeypatch.setattr(transport, "lattice_basis", no_hnf)
        report = verify_vlach()
        assert report.all_true()
        assert report.diagnostics == ()

    @pytest.mark.parametrize("scale", [1, 2], ids=["f", "2f"])
    def test_without_witnesses_the_lattice_basis_decides(self, monkeypatch, scale):
        # every search comes back empty: f is still in the lattice, by its
        # Hermite normal form, and the 48 missing witnesses are reported
        # after the other diagnostics, in cell order
        a, f = vlach_instance()
        scaled = tuple(scale * x for x in f)
        monkeypatch.setattr(transport, "vlach_instance", lambda: (a, scaled))
        monkeypatch.setattr(transport, "nonnegative_solution", lambda *args: None)
        basis = transport.lattice_basis
        calls = []
        monkeypatch.setattr(transport, "lattice_basis", lambda m: calls.append(m) or basis(m))
        report = verify_vlach()
        assert calls == [a]
        assert report.non_hole_witnesses == ()
        missing = tuple(f"no integer witness for incremented margins at {cell}"
                        for cell, x in zip(VLACH_DIMS.triples(), known_half_integral_point())
                        if x == 0)
        assert len(missing) == 48
        if scale == 1:
            assert flags(report) == (True, True, True, False)
            assert report.diagnostics == missing
        else:
            # 2f is in Q, and its own diagnostics come first
            assert flags(report) == (False, False, True, False)
            assert report.diagnostics == (
                "real witness is not the expected half-integral point",
                "fundamentality is not certified: the real point has a coordinate of at least 1",
            ) + missing

    def test_witnesses_are_the_tables_of_table_feasible(self):
        a, f = vlach_instance()
        dims = VLACH_DIMS
        report = verify_vlach()
        assert len(report.non_hole_witnesses) == 48
        for cell, mu in report.non_hole_witnesses:
            incremented = vec_add(f, a.col(dims.col(*cell)))
            table = table_feasible(dims, vector_to_margins(dims, incremented))
            assert mu == tuple(table[i][j][k] for (i, j, k) in dims.triples())

    def test_an_integral_real_point_is_not_a_hole(self, monkeypatch):
        # 2f = A (2 z*) is in Q: the support and its solve are those of f,
        # and the unique real point 2 z* is integral
        a, f = vlach_instance()
        doubled = tuple(2 * x for x in f)
        monkeypatch.setattr(transport, "vlach_instance", lambda: (a, doubled))
        report = verify_vlach()
        assert report.z_star == tuple(2 * x for x in known_half_integral_point())
        assert flags(report) == (False, False, True, False)
        assert report.diagnostics == (
            "real witness is not the expected half-integral point",
            "fundamentality is not certified: the real point has a coordinate of at least 1")

    def test_an_off_support_increment_is_not_proved_unique(self, monkeypatch):
        # f + a_c is in Q for every cell c off the support of z*; it raises
        # the zero margins that c meets, and the wider support's columns are
        # dependent, so the proof stops with no claim
        a, f = vlach_instance()
        c = next(c for c, x in enumerate(known_half_integral_point()) if x == 0)
        incremented = vec_add(f, a.col(c))
        monkeypatch.setattr(transport, "vlach_instance", lambda: (a, incremented))
        assert verify_vlach() == VlachReport(
            incremented, None, (), (), False, False, False, False,
            ("support columns are rank deficient: the real point is not proved unique",))

    def test_a_wrong_witness_is_a_mismatch(self, monkeypatch):
        # the witness check reads the matrix, not the search's margin system,
        # so one search that returns a wrong table costs its witness
        a, f = vlach_instance()
        c = next(c for c, x in enumerate(known_half_integral_point()) if x == 0)
        cell = VLACH_DIMS.triples()[c]
        wrong_margins = vec_add(f, a.col(c))
        search = transport.nonnegative_solution

        def one_wrong_table(lines, b, limits):
            mu = search(lines, b, limits)
            return move_one_unit(mu) if b == wrong_margins else mu

        monkeypatch.setattr(transport, "nonnegative_solution", one_wrong_table)
        report = verify_vlach()
        assert len(report.non_hole_witnesses) == 47
        assert cell not in dict(report.non_hole_witnesses)
        assert flags(report) == (True, True, True, False)
        assert report.diagnostics == (f"witness margins mismatch at {cell}",)

    def test_margins_with_no_real_point(self, monkeypatch):
        # f - a_c for a cell c of the support lowers three margins of 1 to 0,
        # and then no nonnegative real table has the margins
        a, f = vlach_instance()
        c = next(c for c, x in enumerate(known_half_integral_point()) if x != 0)
        shifted = vec_sub(f, a.col(c))
        monkeypatch.setattr(transport, "vlach_instance", lambda: (a, shifted))
        assert verify_vlach() == VlachReport(
            shifted, None, (), (), False, False, False, False,
            ("margin system is not real feasible",))
