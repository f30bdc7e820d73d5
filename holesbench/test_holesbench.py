"""Tests of the benchmark's own oracles and checks.

    python3 -m pytest holesbench -q

The oracles are checked on hand-computed cases; each check must accept a
correct report and reject the same report with one thing broken.
"""

import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import oracles  # noqa: E402
import speedometer  # noqa: E402
import workloads  # noqa: E402

EXAMPLE = ((1, 1, 1, 1), (0, 2, 3, 4))

HOLES_REPORT = """command: holes
input-matrix: 2 4
  1 1 1 1
  0 2 3 4
fundamental-holes-size: 1
fundamental-holes:
  1 1
cells-size: 1
cells:
  1 1 | 1 0
hole-set: infinite
limit-status: ok
"""

SATURATION_REPORT = """command: saturation
input-matrix: 2 4
  1 1 1 1
  0 2 3 4
ideal-generators-size: 3
ideal-generators:
  0 1 0 0
  0 0 1 0
  0 0 0 1
saturation-points-size: 3
saturation-points:
  1 2
  1 3
  1 4
verdict: holes-exist
limit-status: ok
"""

BOUND_REPORT = """command: bound
bound-components: 3 9 4
bound: 972
certificate-hole: 975 1
verdict: holes-infinite
limit-status: ok
"""

TABLE_REPORT = """command: transport
instance: 2 1 2
matrix-shape: 8 4
margin-vector: 1 2 1 0 0 2 1 2
integer-feasible: yes
table:
  1 0
  -
  0 2
limit-status: ok
"""


def _case(rows=EXAMPLE, box_top=None):
    return workloads.MatrixCase("t", rows, Path("unused"), box_top)


# -- oracles on hand-computed cases -------------------------------------------

def test_numerical_semigroup_sieve():
    def gaps(a, b):
        return sorted(z[0] for z in oracles.Semigroup([[a, b]]).holes(a * b))

    assert gaps(3, 5) == [1, 2, 4, 7]
    assert gaps(2, 3) == [1]
    assert gaps(4, 7) == [1, 2, 3, 5, 6, 9, 10, 13, 17]


def test_box_membership_running_example():
    sg = oracles.Semigroup(EXAMPLE)
    assert sg.in_q((2, 4)) and sg.in_q((2, 5)) and not sg.in_q((1, 1))
    assert not sg.in_q((3, 1)) and sg.in_q((3, 2))
    # far from the prepared layers: 975 columns with second-row sum 1 do not exist
    assert not sg.in_q((975, 1)) and sg.in_q((975, 2))


def test_cone_and_lattice():
    sg = oracles.Semigroup(((1, 1), (0, 2)))       # lattice: second entry even
    assert sg.index == 2
    assert sg.in_lattice((3, 4)) and not sg.in_lattice((1, 1))
    assert sg.in_cone((1, 1)) and not sg.in_cone((1, 3)) and not sg.in_cone((1, -1))
    simplex = oracles.Semigroup(((1, 1, 1), (0, 1, 0), (0, 0, 1)))
    assert simplex.in_cone((2, 1, 1)) and not simplex.in_cone((1, 1, 1))
    assert not simplex.in_cone((1, -1, 0))
    mixed = oracles.Semigroup(((2, 2, 2, 1), (-2, 3, 1, 0)))
    assert mixed.in_cone((2, -2)) and mixed.in_cone((2, 3)) and not mixed.in_cone((1, 2))


def test_running_example_sets():
    sg = oracles.Semigroup(EXAMPLE)
    assert sg.hilbert_basis() == {(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)}
    assert sg.fundamental_holes() == {(1, 1)}
    assert sg.holes(4) == {(1, 1), (2, 1), (3, 1), (4, 1)}
    assert sg.minimal_saturation_points(3) == {(1, 2), (1, 3), (1, 4)}
    assert oracles.hole_bound(EXAMPLE) == (3, 9, 4, 972)
    assert sg.is_hole((975, 1))


def test_mixed_sign_minimality():
    sg = oracles.Semigroup(((2, 2, 2, 1), (-2, 3, 1, 0)))
    # (4, 1) = (3, 1) + column (1, 0): a saturation point, but not Q-minimal
    assert sg.is_saturation_point((4, 1)) and sg.is_saturation_point((3, 1))
    assert not sg.is_q_minimal_saturation_point((4, 1))
    assert sg.is_hole((1, 1)) and not sg.is_hole((1, 0))


def test_det_and_minors():
    assert oracles.det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert oracles.det([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == 0
    assert sorted(oracles.maximal_minors(((1, 0), (1, 2), (1, 3)), 2)) == [1, 2, 3]


def test_vlach_half_point():
    support = oracles.vlach_support()
    assert len(support) == 24 and len(oracles.vlach_off_support()) == 48
    margins = oracles.table_margins(oracles.half_point_plus(()))
    want = oracles.VLACH_MARGINS
    assert oracles.flat_margins(*margins) == oracles.flat_margins(*want)


def test_table_margins():
    u, v, w = oracles.table_margins([[[1, 0]], [[0, 2]]])
    assert (u, v, w) == ([[1, 2]], [[1, 0], [0, 2]], [[1], [2]])


# -- checks accept right reports and reject broken ones ------------------------

def test_holes_check():
    case = _case()
    assert workloads.check_holes(case, 10, HOLES_REPORT) == []
    dropped = HOLES_REPORT.replace("  1 1 | 1 0\n", "")
    assert workloads.check_holes(case, 10, dropped)
    finite = HOLES_REPORT.replace("  1 1 | 1 0\n", "  1 1 |\n").replace("infinite", "finite")
    assert workloads.check_holes(case, 10, finite)
    assert workloads.check_holes(case, 0, HOLES_REPORT)


def test_saturation_check():
    case = _case()
    assert workloads.check_saturation(case, 10, SATURATION_REPORT) == []
    assert workloads.check_saturation(case, 10, SATURATION_REPORT.replace("  1 4\n", ""))
    assert workloads.check_saturation(case, 10, SATURATION_REPORT.replace("  1 4\n", "  2 4\n"))


def test_bound_check():
    case = _case()
    assert workloads.check_bound(case, 10, BOUND_REPORT) == []
    assert workloads.check_bound(case, 10, BOUND_REPORT.replace("975 1", "975 2"))
    assert workloads.check_bound(case, 10, BOUND_REPORT.replace("975 1", "972 1"))
    assert workloads.check_bound(case, 10, BOUND_REPORT.replace("bound: 972", "bound: 971"))


def test_member_check():
    case = _case()
    hole = "status: hole\n"
    assert workloads.check_member(case, "1 1", 10, hole) == []
    assert workloads.check_member(case, "2 4", 0, "status: in-semigroup\nwitness: 0 2 0 0\n") == []
    assert workloads.check_member(case, "2 4", 0, "status: in-semigroup\nwitness: 0 1 0 0\n")
    assert workloads.check_member(case, "2 4", 10, hole)
    assert workloads.check_member(case, "1 5", 0, "status: outside-cone\n") == []


def test_table_check():
    margins = oracles.table_margins([[[1, 0]], [[0, 2]]])
    case = workloads.TableCase("t", (2, 1, 2), margins, Path("unused"))
    assert case.check(0, TABLE_REPORT) == []
    assert case.check(0, TABLE_REPORT.replace("  0 2\n", "  0 1\n"))
    assert case.check(0, TABLE_REPORT.replace("  0 2\n", "  1 1\n"))


def test_hole_family_check():
    vlach = oracles.VLACH_MARGINS
    lam = (oracles.vlach_support()[0],)
    margins = oracles.add_cells(vlach, lam)
    report = (f"instance: 3 4 6\nmargin-vector: {' '.join(map(str, oracles.flat_margins(*margins)))}\n"
              "integer-feasible: no\nreal-feasible: yes\n")
    case = workloads.TableCase("t", (3, 4, 6), margins, Path("unused"), lam)
    assert case.check(10, report) == []
    assert case.check(10, report.replace("real-feasible: yes", "real-feasible: no"))
    off = workloads.TableCase("t", (3, 4, 6), margins, Path("unused"),
                              (oracles.vlach_off_support()[0],))
    assert off.check(10, report)


def _vlach_report_text():
    flat = oracles.flat_margins(*oracles.VLACH_MARGINS)
    lines = ["command: transport", "instance: 3 4 6",
             f"margin-vector: {' '.join(map(str, flat))}", "support-size: 24", "support:"]
    lines += [f"  {i} {j} {k}" for i, j, k in oracles.vlach_support()]
    lines += ["witnesses-size: 48", "flag-unique-real-solution: true",
              "flag-margin-is-hole: true", "flag-margin-is-fundamental: true",
              "flag-holes-are-margin-plus-support-monoid: true", "limit-status: ok"]
    return "\n".join(lines) + "\n"


def _vlach_witness(cell):
    """The library's table for margins f + a_cell, flattened (i, j, k)-wise;
    the check under test recomputes its margins."""
    sys.path.insert(0, str(HERE.parent / "src"))
    from monoid_holes.transport import MarginTriple, TransportDims, table_feasible
    margins = oracles.add_cells(oracles.VLACH_MARGINS, [cell])
    table = table_feasible(TransportDims(*oracles.VLACH_SHAPE), MarginTriple.from_lists(*margins))
    return tuple(x for block in table for row in block for x in row)


def test_vlach_check():
    r, s, t = oracles.VLACH_SHAPE
    half = oracles.half_point_plus(())
    z_star = tuple(half[i][j][k] for i in range(r) for j in range(s) for k in range(t))
    witnesses = tuple((c, _vlach_witness(c)) for c in oracles.vlach_off_support())
    capture = workloads.VlachCapture()
    text = _vlach_report_text()

    def check(z, wit):
        capture.report = SimpleNamespace(z_star=z, non_hole_witnesses=wit)
        return capture.check(10, text)

    assert check(z_star, witnesses) == []
    first = z_star.index(Fraction(1, 2))
    assert check(z_star[:first] + (Fraction(0),) + z_star[first + 1:], witnesses)
    cell, mu = witnesses[0]
    assert check(z_star, ((cell, (1,) + mu[1:] if mu[0] == 0 else (0,) + mu[1:]),)
                 + witnesses[1:])
    assert check(z_star, witnesses[1:])
    assert capture.check(10, text) == ["no report was captured"]
    capture.report = SimpleNamespace(z_star=z_star, non_hole_witnesses=witnesses)
    assert capture.check(10, text.replace("flag-margin-is-hole: true",
                                          "flag-margin-is-hole: false"))


# -- tracer accounting -------------------------------------------------------

def test_tracer_self_time():
    tracer = layertrace.Tracer()

    def spin(n):
        return sum(range(n))

    inner = tracer.wrap("toy.inner", spin)
    outer = tracer.wrap("toy.outer", lambda: inner(200_000) + spin(200_000))
    outer()
    outer()
    assert tracer.calls == {"toy.inner": 2, "toy.outer": 2}
    assert 0 < tracer.self_s["toy.outer"] and 0 < tracer.self_s["toy.inner"]
    tracer.reset()
    assert not tracer.calls and not tracer.self_s


def test_per_layer_metric_names_are_unique():
    names = dict(layertrace.metric_names())
    assert names["polyhedra.lp_exact.rows"] == "count"
    assert names["holes.build.self_s"] == "s" and names["cli.self_s"] == "s"
    assert len(names) == len(layertrace.metric_names())


# -- speedometer ---------------------------------------------------------------

def test_speedometer_kernel_is_fixed_work():
    chain = speedometer._chain()
    assert sorted(chain) == list(range(len(chain)))
    assert speedometer.kernel(chain) == speedometer.kernel(speedometer._chain())


def test_speedometer_rescales_to_reference_speed():
    meter = speedometer.Speedometer()
    meter.times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    meter.kernel_s = [1.0, 1.0, 4.0, 2.0, 2.0, 2.0, 1.0]
    ref = speedometer.REFERENCE_KERNEL_S
    # [2.5, 5.5] holds 3 samples; it is widened on both sides until it holds 5
    assert meter.kernel_around(2.5, 5.5, min_samples=5) == 2.2
    assert meter.kernel_around(0.0, 8.0, min_samples=7) == 13 / 7
    with pytest.raises(RuntimeError):
        meter.kernel_around(0.0, 8.0)
    meter.times = [float(t) for t in range(30)]
    # the highest and lowest three of 30 samples are left out
    meter.kernel_s = [2.0] * 24 + [0.1, 90.0] * 3
    assert meter.at_reference_speed(0.0, 29.0, 2.5) == 2.5 * ref / 2.0
