import runpy
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from monoid_holes import (
    IntMatrix,
    RankDeficientError,
    ResourceLimitError,
    SemigroupProblem,
    certify_infinite,
    fundamental_holes,
    hilbert_basis_cone_lattice,
    hole_bound,
    holes_representation,
    is_hole,
    saturation_points,
)
from monoid_holes import dioph, holes, intlinalg, polyhedra, saturation
from monoid_holes.intlinalg import vec_add, vec_sub
from monoid_holes.limits import Limits

import conftest
from conftest import (
    brute_holes,
    brute_in_cone,
    brute_in_lattice,
    brute_max_subdet,
    brute_semigroup,
    numerical_gaps,
    numerical_member,
    sieve_member,
    verify_saturation,
)

WALKTHROUGH = Path(__file__).resolve().parents[1] / "scripts" / "example1_walkthrough.py"


def graded_rows(n, d, top, low, high):
    """d rows of n entries: the first in 1..top, the others in low..high."""
    first = st.lists(st.integers(1, top), min_size=n, max_size=n)
    other = st.lists(st.integers(low, high), min_size=n, max_size=n)
    return st.tuples(first, *[other] * (d - 1))


def numerical_problem(a, b):
    return SemigroupProblem.build(IntMatrix.from_rows([[a, b]]))


@pytest.fixture
def example_problem(example_matrix):
    return SemigroupProblem.build(example_matrix)


class TestHoleBound:
    def test_example_matrix(self, example_matrix):
        report = hole_bound(example_matrix)
        assert (report.d_plus_1, report.m_f, report.d_a) == (3, 9, 4)
        assert report.bound == 972

    def test_two_three(self):
        report = hole_bound(IntMatrix.from_rows([[2, 3]]))
        assert (report.d_plus_1, report.m_f, report.d_a) == (2, 5, 3)
        assert report.bound == 150
        # the single hole of <2,3> respects the bound
        assert numerical_gaps(2, 3) == [1]
        assert 1 <= report.bound

    def test_identity(self):
        report = hole_bound(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert (report.d_plus_1, report.m_f, report.d_a) == (3, 1, 1)
        assert report.bound == 3

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            hole_bound(IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_product_invariant(self, example_matrix):
        report = hole_bound(example_matrix)
        assert report.bound == report.d_plus_1 * report.m_f ** 2 * report.d_a


class TestCertifyInfinite:
    def test_example_matrix(self, example_problem):
        z = certify_infinite(example_problem)
        assert z is not None
        assert max(abs(x) for x in z) > 972
        assert is_hole(example_problem, z)

    def test_identity_finite(self):
        problem = SemigroupProblem.build(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert certify_infinite(problem) is None

    def test_two_three_finite(self):
        assert certify_infinite(numerical_problem(2, 3)) is None

    def test_finite_holes_respect_bound(self):
        # spot-check the bound theorem on a finite-hole instance
        for (a, b) in [(2, 3), (3, 5), (4, 7)]:
            bound = hole_bound(IntMatrix.from_rows([[a, b]])).bound
            assert all(g <= bound for g in numerical_gaps(a, b))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([3, 4]).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 3), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
    def test_certificate_matches_oracles(self, rows):
        # 2-row matrices with a positive first row, which sieve_member decides
        rows = [list(row) for row in rows]
        d = brute_max_subdet(rows)
        assume(d != 0)
        problem = SemigroupProblem.build(IntMatrix.from_rows(rows))
        try:
            certificate = certify_infinite(problem, Limits(max_nodes=20000))
        except ResourceLimitError:
            assume(False)
        if holes_representation(problem).is_finite:
            assert certificate is None
            return
        m = max(sum(map(abs, row)) for row in rows)
        assert max(map(abs, certificate)) > (len(rows) + 1) * m * m * d
        assert brute_in_cone(rows, certificate)
        assert brute_in_lattice(rows, certificate)
        assert not sieve_member(rows, certificate)


class TestSaturationPoints:
    def test_example_matrix(self, example_problem):
        result = saturation_points(example_problem)
        assert result.points == ((1, 2), (1, 3), (1, 4))
        assert result.removed_by_filter == ()

    def test_filter_removes_non_minimal_image(self):
        # the generator image (4,1) = (3,1) + (1,0) is not Q-minimal; the
        # filter is a regular step and warns about nothing
        problem = SemigroupProblem.build(IntMatrix.from_rows([[2, 2, 2, 1], [-2, 3, 1, 0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = saturation_points(problem)
        assert result.points == ((3, 0), (3, 1), (4, -1), (4, 2), (4, 3))
        assert result.removed_by_filter == ((4, 1),)

    def test_facet_test_leaves_the_search_its_cases(self, monkeypatch):
        # the filter searches membership of s - t only when F s >= F t.  A
        # seeded search over 2-row matrices (random.Random(44)) found this
        # one: s = (5,-4) and t = (4,-4) pass that test, but s - t = (1,0)
        # is a hole, so the search must still decide the pair, and s stays
        rows = [[3, 3, 3, 1], [-2, 0, -2, -1]]
        assert brute_in_cone(rows, (1, 0)) and brute_in_lattice(rows, (1, 0))
        assert not conftest.brute_member(rows, (1, 0))
        asked = []

        def recording(problem, b, limits):
            asked.append(b)
            return dioph.semigroup_contains(problem, b, limits)

        monkeypatch.setattr(saturation, "semigroup_contains", recording)
        result = saturation_points(SemigroupProblem.build(IntMatrix.from_rows(rows)))
        assert result.points == ((4, -4), (5, -4), (6, -4))
        assert result.removed_by_filter == ()
        # (1,0) and (2,0) pass the facet test; their negatives do not
        assert sorted(asked) == [(1, 0), (1, 0), (2, 0)]

    def test_identity_normal(self):
        problem = SemigroupProblem.build(IntMatrix.from_rows([[1, 0], [0, 1]]))
        result = saturation_points(problem)
        assert result.ideal.is_unit
        assert result.points == ((0, 0),)

    def test_two_three(self):
        result = saturation_points(numerical_problem(2, 3))
        assert result.points == ((2,), (3,))

    def test_generator_map_consistent(self, example_problem):
        # every saturation point is the image A g of an ideal generator g
        result = saturation_points(example_problem)
        images = {example_problem.matrix.mul_vector(g) for g in result.ideal.generators}
        assert result.points and set(result.points) <= images

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 5), (4, 5), (3, 7)])
    def test_against_oracle(self, a, b):
        gaps = numerical_gaps(a, b)
        window = 4 * a * b
        sat = [s for s in range(window)
               if numerical_member(a, b, s)
               and all(numerical_member(a, b, s + g) for g in gaps)]
        minimal = [s for s in sat
                   if not any(t != s and numerical_member(a, b, s - t) for t in sat)]
        result = saturation_points(numerical_problem(a, b))
        assert [p[0] for p in result.points] == minimal
        assert all(p[0] < window // 2 for p in result.points)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([3, 4]).flatmap(lambda n: graded_rows(n, 2, 3, -3, 3)))
    def test_two_rows_against_oracle(self, rows):
        self._check_against_oracle(rows)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([4, 5]).flatmap(lambda n: graded_rows(n, 3, 2, -1, 2)))
    def test_three_rows_against_oracle(self, rows):
        self._check_against_oracle(rows)

    @staticmethod
    def _check_against_oracle(rows):
        # matrices with a positive first row, which grades Q.  A hole
        # is a fundamental hole f plus a point of Q, so s in Q is a
        # saturation point when every s + f is in Q.  Those points are
        # closed under adding Q, so s is Q-minimal among them when no
        # s - a is one, for a column a.
        rows = [list(row) for row in rows]
        assume(brute_max_subdet(rows) != 0)
        try:
            result = saturation_points(SemigroupProblem.build(IntMatrix.from_rows(rows)),
                                       Limits(max_nodes=20000))
        except ResourceLimitError:
            assume(False)
        grading = (1, 0)
        columns = {c for c in zip(*rows) if any(c)}
        # fundamental holes lie in the half-open zonotope of the columns
        top = sum(c[0] for c in columns)
        holes = set(brute_holes(rows, grading, top))
        fundamental = [h for h in holes if not any(vec_sub(h, a) in holes for a in columns)]
        # a point beyond the window could be missed on both sides; the
        # window holds twice the zonotope and twice every point found
        window = 2 * max([top] + [p[0] for p in result.points])
        semigroup = brute_semigroup(rows, grading, window + top)
        saturated = {s for s in semigroup if s[0] <= window
                     and all(vec_add(s, f) in semigroup for f in fundamental)}
        minimal = sorted(s for s in saturated
                         if not any(vec_sub(s, a) in saturated for a in columns))
        assert list(result.points) == minimal


class TestVerifySaturation:
    def test_saturation_point_passes(self, example_problem):
        assert verify_saturation(example_problem, (1, 2), box_radius=4)

    def test_hole_fails(self, example_problem):
        assert not verify_saturation(example_problem, (1, 1))

    def test_non_minimal_point_still_saturates(self):
        problem = numerical_problem(2, 3)
        assert verify_saturation(problem, (4,), box_radius=5)
        # but 4 is not Q-minimal: 4 - 2 is back in the semigroup
        assert (4,) not in saturation_points(problem).points

    def test_all_points_verify(self, example_problem):
        result = saturation_points(example_problem)
        for p in result.points:
            assert verify_saturation(example_problem, p, box_radius=3)

    def test_box_reaches_negative_coordinates(self, monkeypatch):
        # the saturation of this mixed-sign matrix holds (2, -2), a column
        problem = SemigroupProblem.build(IntMatrix.from_rows([[2, 2, 2, 1], [-2, 3, 1, 0]]))
        s = saturation_points(problem).points[0]
        fundamental = set(fundamental_holes(problem).holes)
        inner = conftest.semigroup_contains
        checked = []

        def recording(a, b, *rest):
            checked.append(tuple(x - y for x, y in zip(b, s)))
            return inner(a, b, *rest)
        monkeypatch.setattr(conftest, "semigroup_contains", recording)
        assert verify_saturation(problem, s, box_radius=2)
        assert any(min(z) < 0 for z in checked if z not in fundamental)


def counted(calls, key, inner):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return inner(*args, **kwargs)
    return wrapper


class TestWalkthrough:
    def test_each_search_runs_once(self, monkeypatch, capsys):
        # the Graver basis of A and the fiber walk for the hole (1, 1)
        calls = Counter()
        graver = counted(calls, "graver", dioph.graver_basis)
        monkeypatch.setattr(dioph, "graver_basis", graver)
        monkeypatch.setattr(holes, "graver_basis", graver)
        fiber = counted(calls, "fiber", dioph.minimal_inhomogeneous_solutions)
        monkeypatch.setattr(dioph, "minimal_inhomogeneous_solutions", fiber)
        monkeypatch.setattr(holes, "minimal_inhomogeneous_solutions", fiber)
        runpy.run_path(str(WALKTHROUGH), run_name="__main__")
        assert "fundamental holes: [(1, 1)]\n" in capsys.readouterr().out
        assert calls == {"graver": 1, "fiber": 1}


class TestComputedOnce:
    @pytest.mark.parametrize("rows", [[[1, 1, 1, 1], [0, 2, 3, 4]],
                                      [[2, 2, 2, 1], [-2, 3, 1, 0]]])
    def test_build_reads_the_cone_once(self, monkeypatch, rows):
        # one lattice basis and one double description; the grading comes
        # from the facets, not from an LP
        calls = Counter()
        for module in (holes, intlinalg, polyhedra):
            for name in ("lattice_basis", "cone_facets", "lp_exact"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(calls, name, getattr(module, name)))
        SemigroupProblem.build(IntMatrix.from_rows(rows))
        assert calls == {"lattice_basis": 1, "cone_facets": 1}

    def test_saturation_basis_reuses_the_problems_cone(self, monkeypatch):
        calls = Counter()
        for module in (dioph, holes, intlinalg, polyhedra, saturation):
            for name in ("semigroup_contains", "lattice_basis", "cone_facets",
                         "positive_functional"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(calls, name, getattr(module, name)))
        problem = SemigroupProblem.build(IntMatrix.from_rows([[2, 2, 2, 1], [-2, 3, 1, 0]]))
        assert calls["cone_facets"] == 1
        calls.clear()
        basis = hilbert_basis_cone_lattice(problem)
        assert basis.elements == ((1, -1), (1, 0), (1, 1), (2, 3))
        assert not calls
        holes_representation(problem)
        saturation_points(problem)
        assert calls["cone_facets"] == 0

    @pytest.mark.parametrize("rows,expected", [
        ([[1, 1, 1, 1], [0, 2, 3, 4]], ((1, 1),)),
        ([[3, 5]], ((1,), (2,))),
        ([[2, 2, 2, 1], [-2, 3, 1, 0]], ((1, -1), (1, 1), (2, 2))),
        ([[2, 1, 1, 2], [1, 2, 1, 2], [2, 1, 2, 0]], ((1, 1, 0), (1, 1, 1), (2, 2, 1))),
    ])
    def test_fundamental_stage_searches_no_membership(self, monkeypatch, rows, expected):
        # the cone, the lattice and the saturation's Hilbert basis decide it
        calls = Counter()
        for module in (dioph, holes):
            monkeypatch.setattr(module, "semigroup_contains",
                                counted(calls, "member", module.semigroup_contains))
        problem = SemigroupProblem.build(IntMatrix.from_rows(rows))
        assert fundamental_holes(problem).holes == expected
        assert not calls

    def test_stages_shared_by_every_reader(self, monkeypatch):
        calls = {"hilbert": 0, "ideal": 0}
        monkeypatch.setattr(holes, "hilbert_basis_cone_lattice",
                            counted(calls, "hilbert", holes.hilbert_basis_cone_lattice))
        monkeypatch.setattr(holes, "minimal_inhomogeneous_solutions",
                            counted(calls, "ideal", holes.minimal_inhomogeneous_solutions))
        problem = numerical_problem(3, 5)
        holes_representation(problem)
        points = saturation_points(problem).points
        assert certify_infinite(problem) is None
        for s in (points[0], points[-1], (10,)):
            assert verify_saturation(problem, s)
        # 3 5 has two fundamental holes, so two hole ideals
        assert calls == {"hilbert": 1, "ideal": 2}

    def test_kernel_searched_once_per_problem(self, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(holes, "graver_basis",
                            counted(calls, "kernel", holes.graver_basis))
        monkeypatch.setattr(holes, "minimal_inhomogeneous_solutions",
                            counted(calls, "ideal", holes.minimal_inhomogeneous_solutions))
        problem = numerical_problem(3, 5)
        holes_representation(problem)
        saturation_points(problem)
        assert certify_infinite(problem) is None
        assert calls == {"kernel": 1, "ideal": 2}
        assert problem._derived["graver"] == ((-5, 3), (5, -3))

    def test_normal_semigroup_searches_no_kernel(self, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(holes, "graver_basis",
                            counted(calls, "kernel", holes.graver_basis))
        problem = numerical_problem(1, 2)
        assert holes_representation(problem).cells == ()
        assert saturation_points(problem).ideal.is_unit
        assert not calls

    def test_resource_limit_stores_no_kernel(self):
        # the Graver basis of 3 5 needs 2 states, its start and the one sum
        # (-5, 3) + (5, -3); the hole ideals need 3 each
        problem = numerical_problem(3, 5)
        fundamental_holes(problem)
        with pytest.raises(ResourceLimitError):
            holes_representation(problem, Limits(max_nodes=1))
        assert "graver" not in problem._derived
        with pytest.raises(ResourceLimitError):
            holes_representation(problem, Limits(max_nodes=2))
        assert problem._derived["graver"] == ((-5, 3), (5, -3))

    def test_resource_limit_stores_no_ideal(self):
        # with the Graver basis stored, the hole ideals of 3 5 need 3 states each
        # (the start and one reduced sum for each of the 2 solutions)
        problem = numerical_problem(3, 5)
        fundamental_holes(problem)
        holes._graver(problem, Limits())
        with pytest.raises(ResourceLimitError):
            holes_representation(problem, Limits(max_nodes=2))
        assert not any(key[0] in ("ideal", "solutions")
                       for key in problem._derived if isinstance(key, tuple))
        assert holes_representation(problem, Limits(max_nodes=3)) == \
            holes_representation(numerical_problem(3, 5))

    def test_resource_limit_stores_nothing(self):
        # a resource ceiling never becomes a wrong answer, not even later
        a = IntMatrix.from_rows([[3, 5]])
        problem = SemigroupProblem.build(a)
        with pytest.raises(ResourceLimitError):
            holes_representation(problem, Limits(max_nodes=1))
        assert holes_representation(problem) == holes_representation(SemigroupProblem.build(a))

    def test_later_stage_limit_keeps_earlier_stage(self):
        a = IntMatrix.from_rows([[3, 5]])
        problem = SemigroupProblem.build(a)
        fundamental_holes(problem)
        with pytest.raises(ResourceLimitError):
            saturation_points(problem, Limits(max_nodes=1))
        assert saturation_points(problem) == saturation_points(SemigroupProblem.build(a))
