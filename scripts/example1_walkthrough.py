#!/usr/bin/env python3
"""Walk the 2x4 running example through every stage of the pipeline.

The semigroup generated by (1,0), (1,2), (1,3), (1,4) has a single
fundamental hole and infinitely many holes along the first axis; this
script prints each intermediate object on the way to that conclusion.
"""

from monoid_holes import (
    IntMatrix,
    SemigroupProblem,
    certify_infinite,
    fundamental_holes,
    hole_ideal,
    hole_solutions,
    holes_representation,
    problem_bound,
    saturation_points,
)


def main():
    a = IntMatrix.from_rows([[1, 1, 1, 1], [0, 2, 3, 4]])
    print("matrix:")
    print(a)

    # each stage is computed once and stored on the problem, so the later
    # stages reuse the fundamental holes, the solutions and the hole ideal
    # printed here
    problem = SemigroupProblem.build(a)
    fund = fundamental_holes(problem)
    print("\nHilbert basis of the saturation:")
    for b in fund.hilbert_basis.elements:
        print(" ", b)

    print("\nbasis holes:", list(fund.basis_holes))
    print("fundamental holes:", list(fund.holes))

    f = fund.holes[0]
    print(f"\nminimal solutions of f + A lam = A mu for f = {f}:")
    for lam, mu in hole_solutions(problem, f):
        print("  lam =", lam, " mu =", mu)

    ideal = hole_ideal(problem, f)
    print("\nhole ideal generators (exponent vectors):")
    for g in ideal.generators:
        print(" ", g)

    rep = holes_representation(problem)
    print("\nhole representation cells (shift + monoid of generators):")
    for cell in rep.cells:
        print(" ", cell.shift, "+ monoid", list(cell.generators))
    print("hole set finite:", rep.is_finite)

    report = problem_bound(problem)
    print(f"\nfinite-case bound: (d+1) * M^2 * D = {report.d_plus_1} * "
          f"{report.m_f}^2 * {report.d_a} = {report.bound}")
    certificate = certify_infinite(problem)
    print("certificate hole beyond the bound:", certificate)

    sat = saturation_points(problem)
    print("\nQ-minimal saturation points:", list(sat.points))


if __name__ == "__main__":
    main()
