from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from monoid_holes import (
    InequalitySystem,
    InternalInconsistencyError,
    IntMatrix,
    NotPointedError,
    cone_facets,
    lp_exact,
)
from monoid_holes.polyhedra import EQ, GE, maximize_each, positive_functional
from monoid_holes.intlinalg import unit_vector, vec_dot
from monoid_holes.transport import TransportDims, transportation_matrix

from conftest import brute_is_pointed, brute_lp, brute_satisfies, in_half_open_zonotope

coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def pointed_systems(draw):
    """Rows over at most 3 variables whose region contains no line."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(
        st.tuples(st.lists(coefficients, min_size=n, max_size=n).map(tuple),
                  st.sampled_from([EQ, GE]), coefficients),
        min_size=n, max_size=5))
    assume(brute_is_pointed(rows, n))
    return rows


def assert_matches_oracle(rows, result, objective, sense):
    assert (result.status, result.optimum) == brute_lp(rows, objective, sense)
    if result.witness is not None:
        assert brute_satisfies(rows, result.witness)
    assert (result.farkas is None) == (result.status != "infeasible")


class TestConeFacets:
    def test_example_matrix(self, example_matrix):
        fc = cone_facets(example_matrix)
        assert fc.senses == (GE, GE)
        assert set(fc.matrix) == {(0, 1), (4, -1)}

    def test_orthant(self):
        fc = cone_facets(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert set(fc.matrix) == {(1, 0), (0, 1)}
        assert all(s == GE for s in fc.senses)

    def test_full_line_has_no_facets(self):
        fc = cone_facets(IntMatrix.from_rows([[1, -1]]))
        assert fc.matrix == ()

    def test_lower_dimensional_cone_gets_equalities(self):
        # single ray (1, 1): span is a line, one equality plus one facet
        fc = cone_facets(IntMatrix.from_rows([[1], [1]]))
        senses = fc.senses
        assert EQ in senses and GE in senses
        assert fc.satisfied_by((2, 2))
        assert not fc.satisfied_by((2, 3))
        assert not fc.satisfied_by((-1, -1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                    min_size=1, max_size=5), st.data())
    def test_membership_duality(self, cols, data):
        a = IntMatrix.from_rows([list(x) for x in zip(*cols)])
        fc = cone_facets(a)
        lam = data.draw(st.lists(st.integers(0, 4), min_size=a.cols, max_size=a.cols))
        point = a.mul_vector(lam)
        assert fc.satisfied_by(point)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                    min_size=1, max_size=4), st.data())
    def test_facet_violation_means_real_infeasible(self, cols, data):
        a = IntMatrix.from_rows([list(x) for x in zip(*cols)])
        fc = cone_facets(a)
        z = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=2, max_size=2)))
        if fc.satisfied_by(z):
            return
        rows = [(a.entries[i], EQ, z[i]) for i in range(a.rows)]
        rows += [(unit_vector(a.cols, j), GE, 0) for j in range(a.cols)]
        res = lp_exact(InequalitySystem.from_rows(rows), (0,) * a.cols, "min")
        assert res.status == "infeasible"


class TestIsPointed:
    """Pointedness is decided by positive_functional: a functional that is
    at least 1 on every nonzero column, or NotPointedError."""

    @staticmethod
    def assert_pointed(a):
        phi = positive_functional(a)
        assert all(vec_dot(phi, col) >= 1 for col in a.columns())

    def test_example_matrix(self, example_matrix):
        self.assert_pointed(example_matrix)

    def test_line(self):
        with pytest.raises(NotPointedError):
            positive_functional(IntMatrix.from_rows([[1, -1]]))

    def test_transportation_cone(self):
        self.assert_pointed(transportation_matrix(TransportDims(3, 4, 6)))

    def test_mixed_sign_pointed(self):
        self.assert_pointed(IntMatrix.from_rows([[2, 2, 2, 1], [-2, 3, 1, 0]]))

    def test_positive_functional_certifies(self):
        a = IntMatrix.from_rows([[2, -1], [0, 1]])
        phi = positive_functional(a)
        for col in a.columns():
            assert vec_dot(phi, col) >= 1


class TestLpExact:
    def test_min_with_lower_bound(self):
        system = InequalitySystem.from_rows([((1,), GE, 3)])
        res = lp_exact(system, (1,), "min")
        assert res.status == "optimal"
        assert res.optimum == 3
        assert res.witness == (3,)

    def test_infeasible(self):
        system = InequalitySystem.from_rows([((1,), GE, 1), ((-1,), GE, 0)])
        res = lp_exact(system, (1,), "max")
        assert res.status == "infeasible"

    def test_unbounded(self):
        system = InequalitySystem.from_rows([((1,), GE, 0)])
        res = lp_exact(system, (1,), "max")
        assert res.status == "unbounded"

    def test_exact_rational_optimum(self):
        # min x + y subject to 3x + y >= 1, x + 3y >= 1, x, y >= 0
        system = InequalitySystem.from_rows([
            ((3, 1), GE, 1), ((1, 3), GE, 1),
            ((1, 0), GE, 0), ((0, 1), GE, 0)])
        res = lp_exact(system, (1, 1), "min")
        assert res.status == "optimal"
        assert res.optimum == Fraction(1, 2)
        assert res.witness == (Fraction(1, 4), Fraction(1, 4))

    def test_equality_with_free_variable(self):
        system = InequalitySystem.from_rows([((1, 1), EQ, 5)])
        res = lp_exact(system, (0, 1), "min")
        assert res.status == "unbounded"

    def test_degenerate_terminates(self):
        # heavily degenerate feasibility at a single point
        system = InequalitySystem.from_rows([
            ((1, 1), EQ, 0), ((1, -1), EQ, 0),
            ((1, 0), GE, 0), ((0, 1), GE, 0)])
        res = lp_exact(system, (1, 0), "max")
        assert res.status == "optimal"
        assert res.optimum == 0

    def test_maximize_each_matches_single_calls(self):
        rows = [((1, 1, 1), EQ, 4)]
        rows += [(unit_vector(3, j), GE, 0) for j in range(3)]
        system = InequalitySystem.from_rows(rows)
        objectives = [unit_vector(3, j) for j in range(3)]
        batched = maximize_each(system, objectives)
        singles = [lp_exact(system, obj, "max") for obj in objectives]
        for b, s in zip(batched, singles):
            assert (b.status, b.optimum) == (s.status, s.optimum)
            assert b.optimum == 4


class TestLpOracle:
    @settings(max_examples=150, deadline=None)
    @given(pointed_systems(), st.data())
    def test_lp_exact_matches_oracle(self, rows, data):
        n = len(rows[0][0])
        objective = tuple(data.draw(st.lists(coefficients, min_size=n, max_size=n)))
        sense = data.draw(st.sampled_from(["min", "max"]))
        result = lp_exact(InequalitySystem.from_rows(rows), objective, sense)
        assert_matches_oracle(rows, result, objective, sense)

    @settings(max_examples=60, deadline=None)
    @given(pointed_systems(), st.data())
    def test_maximize_each_matches_oracle(self, rows, data):
        n = len(rows[0][0])
        objectives = data.draw(st.lists(
            st.lists(coefficients, min_size=n, max_size=n).map(tuple), min_size=1, max_size=3))
        results = maximize_each(InequalitySystem.from_rows(rows), objectives)
        for objective, result in zip(objectives, results):
            assert_matches_oracle(rows, result, objective, "max")

    def test_large_coefficients(self):
        # entries near 10^6 make the pivots' common denominators large
        rows = [((999_983, 1_000_000, 3), GE, 999_999),
                ((-2, 999_979, 1_000_000), GE, 123_457),
                ((1_000_000, -7, 999_961), EQ, 654_321)]
        rows += [(unit_vector(3, j), GE, 0) for j in range(3)]
        objective = (1_000_000, 999_907, -3)
        results = {}
        for sense in ("min", "max"):
            results[sense] = lp_exact(InequalitySystem.from_rows(rows), objective, sense)
            assert_matches_oracle(rows, results[sense], objective, sense)
        assert results["max"].status == "unbounded"
        assert results["min"].optimum.denominator > 10**6


class TestCertificates:
    # x + y >= 3 with x <= 1 and y <= 1: the three rows sum to 0 >= 1
    BOX = InequalitySystem.from_rows([((1, 1), GE, 3), ((-1, 0), GE, -1), ((0, -1), GE, -1)])

    def test_infeasible_box_is_refuted(self):
        result = lp_exact(self.BOX, (0, 0), "min")
        assert result.status == "infeasible"
        assert self.BOX.refuted_by(result.farkas)
        assert self.BOX.refuted_by((1, 1, 1))

    @pytest.mark.parametrize("multipliers", [
        (1, 1, 0), (1, 1, 2), (-1, -1, -1), (0, 0, 0), (1, 1), (2, 1, 1)])
    def test_corrupted_multipliers_rejected(self, multipliers):
        assert not self.BOX.refuted_by(multipliers)

    def test_negative_rhs_and_sign_rows(self):
        # x + y = -1 over x, y >= 0; the sign rows are absorbed and get 0
        system = InequalitySystem.from_rows([((1, 1), EQ, -1), ((1, 0), GE, 0), ((0, 1), GE, 0)])
        result = lp_exact(system, (0, 0), "min")
        assert result.status == "infeasible"
        assert result.farkas[1:] == (0, 0)
        assert result.farkas[0] < 0
        assert system.refuted_by(result.farkas)
        # the same row over free variables is feasible, so it cannot be refuted
        free = InequalitySystem.from_rows([((1, 1), EQ, -1)])
        assert not free.refuted_by((-1,))

    def test_maximize_each_shares_certificate(self):
        results = maximize_each(self.BOX, [(1, 0), (0, 1)])
        assert [r.status for r in results] == ["infeasible", "infeasible"]
        assert all(self.BOX.refuted_by(r.farkas) for r in results)

    def test_failed_certificate_check_raises(self, monkeypatch):
        monkeypatch.setattr(InequalitySystem, "refuted_by", lambda self, y: False)
        with pytest.raises(InternalInconsistencyError):
            lp_exact(self.BOX, (0, 0), "min")

    def test_failed_witness_check_raises(self, monkeypatch):
        system = InequalitySystem.from_rows([((1,), GE, 3)])
        monkeypatch.setattr(InequalitySystem, "satisfied_by", lambda self, x: False)
        with pytest.raises(InternalInconsistencyError):
            lp_exact(system, (1,), "min")


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
        fc = cone_facets(example_matrix)
        for x in range(-1, 5):
            for y in range(-1, 10):
                if in_half_open_zonotope(example_matrix, (x, y)):
                    assert fc.satisfied_by((x, y))
