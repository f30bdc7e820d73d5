import warnings
from collections import Counter

import pytest

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
    verify_saturation,
)
from monoid_holes import dioph, holes, intlinalg, polyhedra, saturation
from monoid_holes.limits import Limits

from conftest import numerical_gaps, numerical_member


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

    def test_identity_normal(self):
        problem = SemigroupProblem.build(IntMatrix.from_rows([[1, 0], [0, 1]]))
        result = saturation_points(problem)
        assert result.ideal.is_unit
        assert result.points == ((0, 0),)

    def test_two_three(self):
        result = saturation_points(numerical_problem(2, 3))
        assert result.points == ((2,), (3,))

    def test_generator_map_consistent(self, example_problem):
        result = saturation_points(example_problem)
        a = example_problem.matrix
        for gen, point in result.generator_map:
            assert a.mul_vector(gen) == point

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
        inner = saturation.semigroup_contains
        checked = []

        def recording(a, b, *rest):
            checked.append(tuple(x - y for x, y in zip(b, s)))
            return inner(a, b, *rest)
        monkeypatch.setattr(saturation, "semigroup_contains", recording)
        assert verify_saturation(problem, s, box_radius=2)
        assert any(min(z) < 0 for z in checked if z not in fundamental)


def counted(calls, key, inner):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return inner(*args, **kwargs)
    return wrapper


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
        monkeypatch.setattr(holes, "difference_kernel",
                            counted(calls, "kernel", holes.difference_kernel))
        monkeypatch.setattr(holes, "minimal_inhomogeneous_solutions",
                            counted(calls, "ideal", holes.minimal_inhomogeneous_solutions))
        problem = numerical_problem(3, 5)
        holes_representation(problem)
        saturation_points(problem)
        assert certify_infinite(problem) is None
        assert calls == {"kernel": 1, "ideal": 2}
        assert problem._derived["kernel"] == ((0, 1, 0, 1), (0, 3, 5, 0), (1, 0, 1, 0), (5, 0, 0, 3))

    def test_normal_semigroup_searches_no_kernel(self, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(holes, "difference_kernel",
                            counted(calls, "kernel", holes.difference_kernel))
        problem = numerical_problem(1, 2)
        assert holes_representation(problem).cells == ()
        assert saturation_points(problem, jobs=2).ideal.is_unit
        assert not calls

    def test_resource_limit_stores_no_kernel(self):
        problem = numerical_problem(3, 5)
        fundamental_holes(problem)
        with pytest.raises(ResourceLimitError):
            holes_representation(problem, Limits(max_nodes=1))
        assert "kernel" not in problem._derived

    def test_parallel_ideals_share_the_kernel(self, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(holes, "difference_kernel",
                            counted(calls, "kernel", holes.difference_kernel))
        problem = numerical_problem(3, 5)
        assert (holes_representation(problem, jobs=2)
                == holes_representation(numerical_problem(3, 5)))
        assert calls == {"kernel": 2}  # once here, once for the sequential problem

    def test_resource_limit_in_a_worker_stores_no_ideal(self):
        # with the kernel stored, the hole ideals of 3 5 need 9 states each
        # and run in two worker processes
        problem = numerical_problem(3, 5)
        fundamental_holes(problem)
        holes._kernel(problem, Limits())
        with pytest.raises(ResourceLimitError):
            holes_representation(problem, Limits(max_nodes=8), jobs=2)
        assert not any(key[0] == "ideal" for key in problem._derived if isinstance(key, tuple))
        assert holes_representation(problem, Limits(max_nodes=9), jobs=2) == \
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
