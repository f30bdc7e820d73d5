"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line with its elapsed time.  Run with -s to see the lines live.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import numpy as np

from monoid_holes import (
    IntMatrix,
    MonomialIdeal,
    SemigroupProblem,
    certify_infinite,
    fundamental_holes,
    hilbert_basis_cone_lattice,
    hole_bound,
    hole_ideal,
    holes_representation,
    intersect,
    is_hole,
    minimal_inhomogeneous_solutions,
    saturation_points,
    standard_pairs,
    verify_vlach,
)
from monoid_holes.transport import VLACH_DIMS

from conftest import numerical_gaps, numerical_member
from test_transport import known_half_integral_point


class _Criterion:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"ACCEPTANCE {self.number} ({self.name}): {status} "
              f"[{elapsed:.2f}s / budget {self.budget:.0f}s]")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s")
        return False


EXAMPLE = IntMatrix.from_rows([[1, 1, 1, 1], [0, 2, 3, 4]])

COPRIME_PAIRS = [(a, b) for a in range(2, 13) for b in range(a + 1, 13)
                 if gcd(a, b) == 1]


def test_criterion_1_hilbert_basis():
    with _Criterion(1, "running-example Hilbert basis", 1.0):
        basis = hilbert_basis_cone_lattice(SemigroupProblem.build(EXAMPLE))
        assert basis.elements == ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4))


def test_criterion_2_minimal_solutions():
    with _Criterion(2, "running-example minimal solutions", 1.0):
        sols = minimal_inhomogeneous_solutions(EXAMPLE, (1, 1))
        expected = {
            ((0, 0, 0, 2), (0, 0, 3, 0)),
            ((0, 1, 0, 0), (1, 0, 1, 0)),
            ((0, 0, 1, 0), (1, 0, 0, 1)),
            ((0, 0, 1, 0), (0, 2, 0, 0)),
            ((0, 0, 0, 1), (0, 1, 1, 0)),
        }
        assert set(sols) == expected


def test_criterion_3_end_to_end():
    with _Criterion(3, "running-example end to end", 5.0):
        problem = SemigroupProblem.build(EXAMPLE)
        fund = fundamental_holes(problem)
        assert fund.holes == ((1, 1),)
        ideal = hole_ideal(problem, (1, 1))
        assert ideal.generators == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0))
        rep = holes_representation(problem)
        assert len(rep.cells) == 1
        assert rep.cells[0].shift == (1, 1)
        assert rep.cells[0].generators == ((1, 0),)
        sat = saturation_points(problem)
        assert sat.points == ((1, 2), (1, 3), (1, 4))
        report = hole_bound(EXAMPLE)
        assert (report.d_plus_1, report.m_f, report.d_a, report.bound) == (3, 9, 4, 972)
        certificate = certify_infinite(problem)
        assert certificate is not None
        assert certificate[0] > 972
        assert is_hole(problem, certificate)


def test_criterion_4_numerical_semigroup_oracle():
    with _Criterion(4, "numerical-semigroup oracle suite", 30.0):
        for a, b in COPRIME_PAIRS:
            gaps = numerical_gaps(a, b)
            problem = SemigroupProblem.build(IntMatrix.from_rows([[a, b]]))

            rep = holes_representation(problem)
            assert rep.is_finite, (a, b)
            covered = sorted({cell.shift[0] for cell in rep.cells})
            assert covered == gaps, (a, b)

            expected_fund = tuple(
                (g,) for g in gaps
                if not any(g2 != g and numerical_member(a, b, g - g2) for g2 in gaps))
            assert rep.fundamental_set.holes == expected_fund, (a, b)

            window = 4 * a * b
            sat = [s for s in range(window)
                   if numerical_member(a, b, s)
                   and all(numerical_member(a, b, s + g) for g in gaps)]
            minimal = [s for s in sat
                       if not any(t != s and numerical_member(a, b, s - t) for t in sat)]
            points = saturation_points(problem).points
            assert [p[0] for p in points] == minimal, (a, b)


def test_criterion_5_vlach_346():
    with _Criterion(5, "3x4x6 fundamental hole verification", 600.0):
        report = verify_vlach()
        assert report.z_star == known_half_integral_point()
        half = Fraction(1, 2)
        assert sum(1 for x in report.z_star if x == half) == 24
        assert sum(1 for x in report.z_star if x == 0) == 48
        assert len(report.support) == 24
        # the support columns, A', are the cells where z* is not 0
        assert report.support == tuple(
            cell for cell, x in zip(VLACH_DIMS.triples(), report.z_star) if x)
        assert len(report.non_hole_witnesses) == 48
        for triple, mu in report.non_hole_witnesses:
            assert all(x >= 0 for x in mu)
        assert report.unique_real_solution
        assert report.f_is_hole
        assert report.f_is_fundamental_checked
        assert report.holes_are_f_plus_monoid_a_prime
        assert report.diagnostics == ()


def _random_ideal(rng, num_vars):
    count = rng.randint(1, 6)
    gens = [tuple(rng.randint(0, 5) for _ in range(num_vars)) for _ in range(count)]
    return MonomialIdeal.from_generators(num_vars, gens)


def test_criterion_6_monomial_property_suite():
    with _Criterion(6, "monomial ideal property suite", 30.0):
        rng = random.Random(20250810)
        for trial in range(200):
            n = rng.randint(1, 5)
            ideal = _random_ideal(rng, n)
            other = _random_ideal(rng, n)

            grids = np.indices((7,) * n).reshape(n, -1).T  # box [0, 6]^n
            def member_mask(i):
                if not i.generators:
                    return np.zeros(len(grids), dtype=bool)
                gens = np.array(i.generators)
                return (grids[:, None, :] >= gens[None, :, :]).all(axis=2).any(axis=1)

            inside = member_mask(ideal)
            cover = np.zeros(len(grids), dtype=np.int64)
            for pair in standard_pairs(ideal):
                root = np.array(pair.root)
                free = np.zeros(n, dtype=bool)
                for v in pair.free_vars:
                    free[v] = True
                ok = ((grids >= root) | ~free[None, :]).all(axis=1)
                ok &= ((grids == root) | free[None, :]).all(axis=1)
                cover += ok.astype(np.int64)
            # disjoint cells covering exactly the staircase complement
            assert (cover[inside] == 0).all(), trial
            assert (cover[~inside] == 1).all(), trial

            both = intersect(ideal, other)
            assert (member_mask(both) == (inside & member_mask(other))).all(), trial


def test_criterion_7_bound_theorem_property():
    with _Criterion(7, "finite-hole bound property", 30.0):
        for a, b in COPRIME_PAIRS:
            bound = hole_bound(IntMatrix.from_rows([[a, b]])).bound
            violations = [g for g in numerical_gaps(a, b) if g > bound]
            assert violations == [], (a, b)


def test_criterion_8_determinism(tmp_path):
    with _Criterion(8, "byte-identical reruns", 120.0):
        example = tmp_path / "example.txt"
        example.write_text("2 4\n1 1 1 1\n0 2 3 4\n")
        ns = tmp_path / "ns.txt"
        ns.write_text("1 2\n3 5\n")
        margins = tmp_path / "margins.txt"
        margins.write_text("2 1\n1 1\n\n2 1\n1 1\n\n2 1\n1 1\n")

        invocations = [
            ["fundamental", str(example)],
            ["holes", str(example)],
            ["holes", str(ns)],
            ["saturation", str(example)],
            ["bound", str(example)],
            ["member", str(example), "1,1"],
            ["member", str(example), "2,2"],
            ["transport", "--margins", str(margins)],
        ]
        for argv in invocations:
            cmd = [sys.executable, "-m", "monoid_holes.cli"] + argv
            first = subprocess.run(cmd, capture_output=True)
            second = subprocess.run(cmd, capture_output=True)
            assert first.returncode == second.returncode, argv
            assert first.stdout == second.stdout, argv
            assert first.stdout  # reports are never empty
