import hashlib
import random
from fractions import Fraction
from itertools import product
from math import factorial

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
    vlach_margins,
)
from monoid_holes import polyhedra, transport
from monoid_holes.intlinalg import solve_rational_affine, vec_add, vec_sub
from monoid_holes.limits import Limits
from monoid_holes.transport import VLACH_DIMS, margins_to_vector
from monoid_holes.polyhedra import FeasibilitySystem, lp_exact

from conftest import (
    adjacent_transpositions,
    brute_margin_stabilizer,
    cell_permutation,
    margin_lists,
    move_one_unit,
    permuted,
    vector_to_margins,
    vlach_instance,
)


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


# the first cell of each orbit of the paper's f's symmetry group on the
# cells off the support, in cell order: the cells verify_vlach searches
_ORBIT_FIRSTS = ((0, 0, 1), (0, 0, 4), (0, 0, 5))


@pytest.fixture(scope="module")
def vlach_stabilizer():
    """The cell permutations that fix the paper's f, by trying all of
    S_3 x S_4 x S_6 (about 1 s)."""
    return brute_margin_stabilizer(VLACH_DIMS, vlach_instance()[1])


def off_support_cells():
    return [c for c, x in enumerate(known_half_integral_point()) if x == 0]


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

    def test_margin_lines_are_the_sparse_columns(self):
        # table_feasible and verify_vlach search and check on the margin
        # lines, and the matrix is built from the margin rows separately:
        # the two builders give one system, so the checks on the lines lose
        # no independence from the matrix
        for r, s, t in product(range(1, 4), range(1, 5), range(1, 7)):
            dims = TransportDims(r, s, t)
            assert transport._margin_lines(dims) == list(
                transportation_matrix(dims)._sparse_columns)

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

    def test_333_answers_are_closed_under_the_cell_permutations(self):
        # a cell permutation moves the margin rows and maps A to itself, so
        # it maps the semigroup, its saturation and its holes onto
        # themselves; the adjacent transpositions of the three axes
        # generate every such permutation
        dims = TransportDims(3, 3, 3)
        found = fundamental_holes(SemigroupProblem.build(transportation_matrix(dims)))
        assert len(found.hilbert_basis.elements) == 27
        for move in adjacent_transpositions(dims):
            rows = cell_permutation(dims, *move)[1]
            for answer in (found.hilbert_basis.elements, found.holes, found.basis_holes):
                assert {permuted(x, rows) for x in answer} == set(answer)


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
        res = lp_exact(FeasibilitySystem(a, f))
        assert res.status == "feasible"
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
            real = lp_exact(FeasibilitySystem(a, f))
            found = table_feasible(dims, margins)
            assert (found is not None) == (real.status == "feasible")
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


class TestMarginSymmetries:
    """transport._margin_symmetries, against the brute-force stabilizer over
    all of S_r x S_s x S_t."""

    SHAPES = list(product(range(1, 4), repeat=3))

    @pytest.mark.parametrize("shape", SHAPES, ids=["x".join(map(str, x)) for x in SHAPES])
    def test_equal_margins_are_fixed_by_the_whole_group(self, shape):
        dims = TransportDims(*shape)
        f = margins_to_vector(dims, table_margins(dims, [[[2] * dims.t] * dims.s] * dims.r))
        group = transport._margin_symmetries(dims, f)
        assert len(group) == len(set(group)) == factorial(dims.r) * factorial(dims.s) * factorial(dims.t)
        assert set(group) == brute_margin_stabilizer(dims, f)

    def test_margins_of_random_tables(self):
        rng = random.Random(36)
        orders = []
        for shape in self.SHAPES:
            dims = TransportDims(*shape)
            for _ in range(4):
                table = [[[rng.randrange(3) for _ in range(dims.t)]
                          for _ in range(dims.s)] for _ in range(dims.r)]
                f = margins_to_vector(dims, table_margins(dims, table))
                group = transport._margin_symmetries(dims, f)
                assert group[0] == tuple(range(dims.num_cols))
                assert len(group) == len(set(group))
                assert set(group) == brute_margin_stabilizer(dims, f)
                orders.append(len(group))
        # 78 of the 108 margin vectors are fixed by the identity alone, and
        # the rest by groups of 2 to 12
        assert orders.count(1) == 78 and max(orders) == 12

    def test_the_papers_margins(self, vlach_stabilizer):
        # 24 permutations fix f, and they split the 48 cells off the support
        # into orbits of 24, 12 and 12
        group = transport._margin_symmetries(VLACH_DIMS, vlach_instance()[1])
        assert len(group) == 24
        assert set(group) == vlach_stabilizer
        orbits = {}
        for c in off_support_cells():
            orbits.setdefault(min(g[c] for g in group), set()).add(c)
        triples = VLACH_DIMS.triples()
        assert [(triples[first], len(orbit)) for first, orbit in sorted(orbits.items())] == [
            (_ORBIT_FIRSTS[0], 24), (_ORBIT_FIRSTS[1], 12), (_ORBIT_FIRSTS[2], 12)]


def feed_margins(monkeypatch, f):
    """Make verify_vlach read the margin vector f, through vlach_margins."""
    margins = vector_to_margins(VLACH_DIMS, f)
    monkeypatch.setattr(transport, "vlach_margins", lambda: margins)


def flags(report):
    """The four claims of a VlachReport, in the order of the CLI's flag
    lines; the unique real point is proved when z_star is not None."""
    return (report.f_is_hole, report.f_is_fundamental_checked,
            report.z_star is not None, report.holes_are_f_plus_monoid_a_prime)


class TestVerifyVlach:
    def test_runs_no_lp(self, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("the exact LP ran")

        monkeypatch.setattr(polyhedra, "_run_simplex", no_lp)
        assert verify_vlach().all_true()

    def test_node_ceiling(self):
        # the costliest of the 3 witness searches takes 4 nodes
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

    def test_a_passing_witness_builds_no_matrix(self, monkeypatch):
        # the support, the solve, the searches and the checks run on the
        # margin lines; the dense matrix is left to the no-witness path
        def no_matrix(*args):
            raise AssertionError("the transportation matrix was built")

        monkeypatch.setattr(transport, "transportation_matrix", no_matrix)
        report = verify_vlach()
        assert report.all_true()
        assert len(report.non_hole_witnesses) == 48

    def test_each_call_derives_its_group_and_tables(self, monkeypatch):
        # nothing is kept across calls: each call derives the group once
        # and makes its 3 searches
        symmetries, search = transport._margin_symmetries, transport.nonnegative_solution
        calls = []
        monkeypatch.setattr(transport, "_margin_symmetries",
                            lambda *args: calls.append("group") or symmetries(*args))
        monkeypatch.setattr(transport, "nonnegative_solution",
                            lambda *args: calls.append("search") or search(*args))
        assert verify_vlach() == verify_vlach()
        assert calls == 2 * ["group", "search", "search", "search"]

    def test_witness_tables_are_pinned(self):
        # the witness tables depend on the order of the group, whose first
        # element that reaches a cell moves its table there; a change to
        # that order must not move a table unnoticed
        witnesses = repr(tuple(verify_vlach().non_hole_witnesses)).encode()
        assert hashlib.sha256(witnesses).hexdigest() == (
            "45856f26aa506a2b26642b83f6469a9911c1ee8c920b35a1024e2d0699b3ee5a")

    @pytest.mark.parametrize("scale", [1, 2], ids=["f", "2f"])
    def test_without_witnesses_the_lattice_basis_decides(self, monkeypatch, scale):
        # every search comes back empty: f is still in the lattice, by its
        # Hermite normal form, and the 48 missing witnesses are reported
        # after the other diagnostics, in cell order
        a, f = vlach_instance()
        scaled = tuple(scale * x for x in f)
        feed_margins(monkeypatch, scaled)
        monkeypatch.setattr(transport, "nonnegative_solution", lambda *args: None)
        basis, build = transport.lattice_basis, transport.transportation_matrix
        calls, built = [], []
        monkeypatch.setattr(transport, "lattice_basis", lambda m: calls.append(m) or basis(m))
        monkeypatch.setattr(transport, "transportation_matrix",
                            lambda dims: built.append(dims) or build(dims))
        report = verify_vlach()
        assert report.f == scaled
        assert calls == [a]
        assert built == [VLACH_DIMS]
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

    def test_one_search_per_orbit(self, monkeypatch):
        # the first cell of each orbit is searched, in cell order
        a, f = vlach_instance()
        search = transport.nonnegative_solution
        searched = []
        monkeypatch.setattr(transport, "nonnegative_solution",
                            lambda lines, b, limits: searched.append(b) or search(lines, b, limits))
        assert verify_vlach().all_true()
        assert searched == [vec_add(f, a.col(VLACH_DIMS.col(*cell))) for cell in _ORBIT_FIRSTS]

    def test_witnesses_are_the_tables_of_table_feasible(self, vlach_stabilizer):
        # the searched tables are those of table_feasible; every other table
        # is the table of its orbit's first cell, moved by a cell
        # permutation that fixes f
        a, f = vlach_instance()
        dims = VLACH_DIMS
        report = verify_vlach()
        triples = dims.triples()
        assert [cell for cell, _ in report.non_hole_witnesses] == [
            triples[c] for c in off_support_cells()]
        tables = {dims.col(*cell): mu for cell, mu in report.non_hole_witnesses}
        firsts = [dims.col(*cell) for cell in _ORBIT_FIRSTS]
        for c, mu in tables.items():
            incremented = vec_add(f, a.col(c))
            assert a.mul_vector(mu) == incremented
            if c in firsts:
                table = table_feasible(dims, vector_to_margins(dims, incremented))
                assert mu == tuple(table[i][j][k] for (i, j, k) in triples)
            else:
                assert any(g[first] == c and permuted(tables[first], g) == mu
                           for first in firsts for g in vlach_stabilizer)

    def test_an_integral_real_point_is_not_a_hole(self, monkeypatch):
        # 2f = A (2 z*) is in Q: the support and its solve are those of f,
        # and the unique real point 2 z* is integral
        doubled = tuple(2 * x for x in margins_to_vector(VLACH_DIMS, vlach_margins()))
        feed_margins(monkeypatch, doubled)
        report = verify_vlach()
        assert report.f == doubled
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
        feed_margins(monkeypatch, incremented)
        assert verify_vlach() == VlachReport(
            incremented, None, (), (), False, False, False,
            ("support columns are rank deficient: the real point is not proved unique",))

    def test_a_wrong_witness_is_a_mismatch(self, monkeypatch, vlach_stabilizer):
        # the witness check recomputes the margins of each table rather
        # than trust the search, so a search that returns a wrong table
        # costs the witnesses of its whole orbit: the table moved to each
        # cell of the orbit is wrong there too.  The first cell off the
        # support, (0, 0, 1), heads the orbit of 24
        a, f = vlach_instance()
        c = off_support_cells()[0]
        orbit = {g[c] for g in vlach_stabilizer}
        triples = VLACH_DIMS.triples()
        wrong_margins = vec_add(f, a.col(c))
        search = transport.nonnegative_solution

        def one_wrong_table(lines, b, limits):
            mu = search(lines, b, limits)
            return move_one_unit(mu) if b == wrong_margins else mu

        monkeypatch.setattr(transport, "nonnegative_solution", one_wrong_table)
        report = verify_vlach()
        assert len(orbit) == 24 and triples[c] == _ORBIT_FIRSTS[0]
        assert [cell for cell, _ in report.non_hole_witnesses] == [
            triples[x] for x in off_support_cells() if x not in orbit]
        assert flags(report) == (True, True, True, False)
        assert report.diagnostics == tuple(
            f"witness margins mismatch at {triples[x]}" for x in off_support_cells() if x in orbit)

    def test_a_nonzero_margin_with_no_cell_on_the_support(self, monkeypatch):
        # the margins of the table that is 1 on every cell with j > 0, with
        # w(0, 0) raised from 0 to 1: each cell on w(0, 0) meets a zero u
        # margin, so no support cell is on it, and the support solve must
        # still read its row, which no real table meets
        dims = VLACH_DIMS
        table = [int(j > 0) for (i, j, k) in dims.triples()]
        raised = list(transportation_matrix(dims).mul_vector(table))
        raised[dims.w_row(0, 0)] += 1
        feed_margins(monkeypatch, tuple(raised))
        assert verify_vlach() == VlachReport(
            tuple(raised), None, (), (), False, False, False,
            ("margin system is not real feasible",))

    def test_margins_with_no_real_point(self, monkeypatch):
        # f - a_c for a cell c of the support lowers three margins of 1 to 0,
        # and then no nonnegative real table has the margins
        a, f = vlach_instance()
        c = next(c for c, x in enumerate(known_half_integral_point()) if x != 0)
        shifted = vec_sub(f, a.col(c))
        feed_margins(monkeypatch, shifted)
        assert verify_vlach() == VlachReport(
            shifted, None, (), (), False, False, False,
            ("margin system is not real feasible",))
