import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from monoid_holes import (
    MonomialIdeal,
    ResourceLimitError,
    intersect,
    standard_pairs,
)
from monoid_holes.limits import Limits

from conftest import in_monomial_ideal, in_standard_cell


def contains(ideal, m):
    return in_monomial_ideal(ideal.generators, m)


def member(pair, m):
    return in_standard_cell(pair.root, pair.free_vars, m)


def least_max_pairs(ideal):
    """The least max_pairs under which standard_pairs passes, by bisection:
    a ceiling that passes passes at every larger value."""
    def passes(m):
        try:
            standard_pairs(ideal, Limits(max_pairs=m))
        except ResourceLimitError:
            return False
        return True
    fails, passing = 0, 1
    while not passes(passing):
        fails, passing = passing, 2 * passing
    while passing - fails > 1:
        mid = (fails + passing) // 2
        if passes(mid):
            passing = mid
        else:
            fails = mid
    return passing


def staircase_points(ideal, box):
    """Brute-force standard monomials of an ideal inside a box."""
    return [m for m in product(range(box + 1), repeat=ideal.num_vars)
            if not contains(ideal, m)]


ideals = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple),
        min_size=0, max_size=5
    ).map(lambda gens: MonomialIdeal.from_generators(n, gens)))


class TestMinimize:
    def test_redundant_generators(self):
        ideal = MonomialIdeal.from_generators(4, [(0, 0, 0, 2), (0, 1, 0, 0), (0, 0, 1, 0),
                                                  (0, 0, 1, 0), (0, 0, 0, 1)])
        assert ideal.generators == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))

    def test_unit(self):
        ideal = MonomialIdeal.from_generators(2, [(0, 0)])
        assert ideal.is_unit
        assert ideal.generators == ((0, 0),)

    def test_divisibility_chain(self):
        ideal = MonomialIdeal.from_generators(2, [(2, 0), (3, 0), (2, 1)])
        assert ideal.generators == ((2, 0),)

    @settings(max_examples=50, deadline=None)
    @given(ideals, st.data())
    def test_idempotent_and_membership_stable(self, ideal, data):
        again = MonomialIdeal.from_generators(ideal.num_vars, ideal.generators)
        assert again == ideal
        m = tuple(data.draw(st.lists(st.integers(0, 6), min_size=ideal.num_vars,
                                     max_size=ideal.num_vars)))
        raw = any(all(g[i] <= m[i] for i in range(len(m))) for g in ideal.generators)
        # m is a redundant generator exactly when it lies in the ideal
        grown = MonomialIdeal.from_generators(ideal.num_vars, ideal.generators + (m,))
        assert (grown == ideal) == raw


class TestIntersect:
    def test_singletons(self):
        left = MonomialIdeal.from_generators(2, [(2, 0)])
        right = MonomialIdeal.from_generators(2, [(1, 1)])
        assert intersect(left, right).generators == ((2, 1),)

    def test_unit_is_neutral(self):
        ideal = MonomialIdeal.from_generators(2, [(1, 0), (0, 3)])
        assert intersect(ideal, MonomialIdeal.unit(2)) == ideal

    def test_two_variables(self):
        left = MonomialIdeal.from_generators(2, [(1, 0), (0, 3)])
        right = MonomialIdeal.from_generators(2, [(2, 0), (0, 1)])
        expected = {(2, 0), (1, 1), (0, 3)}
        assert set(intersect(left, right).generators) == expected
        # membership check over a box
        for m in product(range(5), repeat=2):
            assert contains(intersect(left, right), m) == (
                contains(left, m) and contains(right, m))

    @settings(max_examples=50, deadline=None)
    @given(ideals, ideals, st.data())
    def test_pointwise(self, left, right, data):
        if left.num_vars != right.num_vars:
            return
        both = intersect(left, right)
        m = tuple(data.draw(st.lists(st.integers(0, 6), min_size=left.num_vars,
                                     max_size=left.num_vars)))
        assert contains(both, m) == (contains(left, m) and contains(right, m))


class TestStandardPairs:
    def test_coordinate_ideal(self):
        ideal = MonomialIdeal.from_generators(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        pairs = standard_pairs(ideal)
        assert len(pairs) == 1
        assert pairs[0].root == (0, 0, 0, 0)
        assert pairs[0].free_vars == (0,)

    def test_zero_ideal(self):
        pairs = standard_pairs(MonomialIdeal(3, ()))
        assert len(pairs) == 1
        assert pairs[0].root == (0, 0, 0)
        assert pairs[0].free_vars == (0, 1, 2)

    def test_unit_ideal(self):
        assert standard_pairs(MonomialIdeal.unit(2)) == ()

    def test_finite_staircase(self):
        ideal = MonomialIdeal.from_generators(2, [(3, 0), (0, 1)])
        pairs = standard_pairs(ideal)
        assert [(p.root, p.free_vars) for p in pairs] == [
            ((0, 0), ()), ((1, 0), ()), ((2, 0), ())]

    def test_cross_ideal_disjoint(self):
        # x*y: the disjoint cover forces one cell to start above the axis
        ideal = MonomialIdeal.from_generators(2, [(1, 1)])
        pairs = standard_pairs(ideal)
        points = staircase_points(ideal, 6)
        for m in points:
            assert sum(1 for p in pairs if member(p, m)) == 1

    def test_pair_ceiling(self):
        ideal = MonomialIdeal.from_generators(3, [(1, 1, 1)])
        with pytest.raises(ResourceLimitError):
            standard_pairs(ideal, Limits(max_pairs=1))

    def test_pair_ceiling_is_exact(self):
        # 21 pairs come from 58 cells: max_pairs counts the cells
        ideal = MonomialIdeal.from_generators(
            4, [(2, 1, 0, 0), (0, 2, 1, 0), (1, 0, 0, 3), (0, 0, 2, 2)])
        with pytest.raises(ResourceLimitError):
            standard_pairs(ideal, Limits(max_pairs=57))
        assert len(standard_pairs(ideal, Limits(max_pairs=58))) == 21

    def test_long_generator(self):
        # x_1 ... x_1200 splits 1200 times in a row, deeper than the default
        # recursion limit: cell j fixes x_j at 0 above x_1 ... x_{j-1}
        n = 1200
        pairs = standard_pairs(MonomialIdeal.from_generators(n, [(1,) * n]))
        assert len(pairs) == n
        for p in pairs:
            j = sum(p.root)
            assert p.root == (1,) * j + (0,) * (n - j)
            assert p.free_vars == tuple(v for v in range(n) if v != j)

    @pytest.mark.parametrize("num_vars, gens, expected, cells", [
        # a settled slice keeps its free variables; the shift is the unit ideal
        (3, [(3, 0, 0)], [((0, 0, 0), (1, 2)), ((1, 0, 0), (1, 2)), ((2, 0, 0), (1, 2))], 5),
        # the top shift is the unit ideal, and so is the shift of the one
        # slice that splits again
        (2, [(1, 1), (0, 2)], [((0, 0), (0,)), ((0, 1), ())], 6),
    ], ids=["x0^3", "x0x1,x1^2"])
    def test_settled_cells(self, num_vars, gens, expected, cells):
        ideal = MonomialIdeal.from_generators(num_vars, gens)
        pairs = standard_pairs(ideal, Limits(max_pairs=cells))
        assert [(p.root, p.free_vars) for p in pairs] == expected
        with pytest.raises(ResourceLimitError):
            standard_pairs(ideal, Limits(max_pairs=cells - 1))

    def test_seeded_corpus(self):
        # 300 seeded ideals in 1-5 variables: each one's sorted pairs and
        # its least passing max_pairs, pinned by one digest
        rng = random.Random(20261022)
        rows = []
        for _ in range(300):
            n = rng.randint(1, 5)
            gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(0, 6))]
            ideal = MonomialIdeal.from_generators(n, gens)
            pairs = [(p.root, p.free_vars) for p in standard_pairs(ideal)]
            rows.append((ideal.generators, pairs, least_max_pairs(ideal)))
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == "4b1c333b5bacce647cace05962740e3317620d5a56dad6b43d8186d3058abdbe"

    @settings(max_examples=60, deadline=None)
    @given(ideals)
    def test_disjoint_cover(self, ideal):
        pairs = standard_pairs(ideal)
        box = 6
        for m in product(range(box + 1), repeat=ideal.num_vars):
            hits = sum(1 for p in pairs if member(p, m))
            assert hits == (0 if contains(ideal, m) else 1)


class TestMinimalGenerators:
    def test_coordinate_ideal(self):
        ideal = MonomialIdeal.from_generators(3, [(0, 1, 0), (0, 0, 1)])
        assert ideal.generators == ((0, 0, 1), (0, 1, 0))

    def test_unit(self):
        assert MonomialIdeal.unit(2).generators == ((0, 0),)

    def test_redundancy_removed(self):
        ideal = MonomialIdeal.from_generators(2, [(2, 0), (1, 1), (0, 3), (2, 1)])
        assert set(ideal.generators) == {(2, 0), (1, 1), (0, 3)}
