"""The three workloads: fixed operation lists, their input files and the
checks that each captured report must pass.

Every operation is one `monoid_holes.cli.main(argv)` call.  Its check
compares the report with `oracles`, which shares no code with the library,
or with properties the method must have; never with a stored report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from pathlib import Path
from typing import Callable

import oracles
from reports import cells, ints, parse_report, table, vectors

EXIT_OK = 0
EXIT_HOLES = 10

# ---------------------------------------------------------------------------
# semigroup workload inputs

RUNNING_EXAMPLE = ((1, 1, 1, 1), (0, 2, 3, 4))

# Drawn with random.Random(2) (2-row: second row 0 < x < y < z <= 6),
# random.Random(3)/(4) (3-row: entries 0..2 or 0..3) and random.Random(1)/(2)
# (mixed sign: first row 1..3, second row -3..3), then kept as literals so the
# list cannot drift with the generator.  `bound` is left out where its
# certificate search runs away (see CHANGES.md).
SEEDED = (
    # (label, rows, runs bound, member vectors)
    ("n2a", ((1, 1, 1, 1), (0, 1, 3, 4)), True, ("1 2", "2 5", "3 12", "1 5")),
    ("n2b", ((1, 1, 1, 1), (0, 2, 3, 5)), True, ("1 1", "4 19", "3 15", "1 6")),
    ("n2c", ((1, 1, 1, 1), (0, 1, 2, 5)), False, ("1 3", "4 18", "3 15", "2 -1")),
    ("n3a", ((1, 1, 1, 1), (0, 2, 1, 0), (2, 2, 1, 1)), True,
     ("1 1 2", "4 7 8", "3 6 6", "1 2 1")),
    ("n3b", ((1, 1, 1, 1), (0, 2, 1, 2), (2, 1, 1, 2)), True,
     ("1 1 2", "4 5 8", "3 6 6", "1 0 1")),
    ("n3c", ((1, 1, 1, 1), (0, 2, 2, 0), (1, 2, 1, 2)), True,
     ("1 1 1", "3 6 6", "2 2 3", "1 3 0")),
    ("mxa", ((2, 2, 2, 1), (-2, 3, 1, 0)), False, ("1 -1", "4 5", "3 3", "1 2")),
    ("mxb", ((1, 1, 1, 2), (3, -2, 2, 3)), True, ("1 -1", "4 -5", "3 9", "1 4")),
    ("mxc", ((1, 2, 2, 2), (0, 0, 1, -2)), False, ("1 -1", "4 -3", "3 1", "1 1")),
)

NUMERICAL_PAIRS = tuple((a, b) for a in range(2, 13) for b in range(a + 1, 13) if gcd(a, b) == 1)

# ---------------------------------------------------------------------------
# transport_tables workload inputs

TABLE_SEED = 1
TABLE_SHAPES = ((3, 4, 4), (2, 4, 6), (3, 4, 5), (4, 4, 4), (3, 4, 6), (3, 5, 6), (4, 5, 6))
# indices into oracles.vlach_support() / vlach_off_support()
HOLE_FAMILY = ((), (0,), (5, 17))
FEASIBLE_FAMILY = (((), 0), ((), 9), ((), 20), ((3,), 30), ((8, 20), 41), ((11,), 47))


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int, str], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    install: Callable = field(default=lambda cli: None)


def _expect(problems: list[str], what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _write_matrix(path: Path, rows):
    path.write_text(f"{len(rows)} {len(rows[0])}\n"
                    + "".join(" ".join(map(str, r)) + "\n" for r in rows))


def _write_margins(path: Path, margins):
    path.write_text("\n".join("".join(" ".join(map(str, row)) + "\n" for row in block)
                              for block in margins))


# ---------------------------------------------------------------------------
# semigroup checks

class MatrixCase:
    """One matrix with its oracle answers, computed on first use (after the
    first timed pass, never inside it)."""

    def __init__(self, label: str, rows, path: Path, box_top: int | None = None):
        self.label = label
        self.rows = rows
        self.path = path
        self._box_top = box_top
        self._cache: dict = {}

    @cached_property
    def oracle(self) -> oracles.Semigroup:
        return oracles.Semigroup(self.rows)

    @cached_property
    def box_top(self) -> int:
        return self._box_top or 2 * (self.oracle.zonotope_top + 1)

    @cached_property
    def hilbert_basis(self) -> set:
        return self.oracle.hilbert_basis()

    @cached_property
    def fundamental(self) -> set:
        return self.oracle.fundamental_holes()

    def holes_upto(self, top: int) -> set:
        return self._cached(("holes", top), lambda: self.oracle.holes(top))

    def minimal_saturation_upto(self, top: int) -> set:
        return self._cached(("saturation", top),
                            lambda: self.oracle.minimal_saturation_points(top))

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def _cell_points(shift, gens, top: int) -> set:
    """Points of shift + monoid(gens) with grading at most top."""
    points, stack = set(), [shift]
    while stack:
        z = stack.pop()
        if z[0] > top or z in points:
            continue
        points.add(z)
        stack.extend(tuple(a + b for a, b in zip(z, g)) for g in gens)
    return points


def check_fundamental(case: MatrixCase, code: int, out: str) -> list[str]:
    f, l = parse_report(out)
    p: list[str] = []
    sg = case.oracle
    _expect(p, "lattice-rank", f["lattice-rank"], str(sg.d))
    _expect(p, "hilbert-basis", set(vectors(l["hilbert-basis"])), case.hilbert_basis)
    _expect(p, "basis-holes", set(vectors(l["basis-holes"])),
            {b for b in case.hilbert_basis if not sg.in_q(b)})
    _expect(p, "fundamental-holes", set(vectors(l["fundamental-holes"])), case.fundamental)
    _expect(p, "verdict", f["verdict"], "holes-exist" if case.fundamental else "normal")
    _expect(p, "exit code", code, EXIT_HOLES if case.fundamental else EXIT_OK)
    return p


def check_holes(case: MatrixCase, code: int, out: str) -> list[str]:
    f, l = parse_report(out)
    p: list[str] = []
    _expect(p, "fundamental-holes", set(vectors(l["fundamental-holes"])), case.fundamental)
    reported = cells(l["cells"])
    columns = set(case.oracle.cols)
    union = set()
    for shift, gens in reported:
        if not set(gens) <= columns:
            p.append(f"cell {shift} has generators that are not columns: {gens}")
        union |= _cell_points(shift, gens, case.box_top)
    holes = case.holes_upto(case.box_top)
    _expect(p, f"holes up to grading {case.box_top}", union, holes)
    verdict = ("finite-empty" if not reported
               else "infinite" if any(g for _, g in reported) else "finite")
    _expect(p, "hole-set", f["hole-set"], verdict)
    _expect(p, "exit code", code, EXIT_HOLES if holes else EXIT_OK)
    return p


def check_saturation(case: MatrixCase, code: int, out: str) -> list[str]:
    f, l = parse_report(out)
    p: list[str] = []
    sg = case.oracle
    points = vectors(l["saturation-points"])
    images = {tuple(sum(a * x for a, x in zip(row, g)) for row in case.rows)
              for g in vectors(l["ideal-generators"])}
    for s in points:
        if s not in images:
            p.append(f"saturation point {s} is not the image of an ideal generator")
        if not sg.in_q(s):
            p.append(f"saturation point {s} is not in Q")
        elif not sg.is_saturation_point(s):
            p.append(f"saturation point {s} does not saturate the box")
        elif not sg.is_q_minimal_saturation_point(s):
            p.append(f"saturation point {s} is not Q-minimal")
    top = max((s[0] for s in points), default=0)
    _expect(p, f"Q-minimal saturation points up to grading {top}", set(points),
            case.minimal_saturation_upto(top))
    _expect(p, "verdict", f["verdict"], "holes-exist" if case.fundamental else "normal")
    _expect(p, "exit code", code, EXIT_HOLES if case.fundamental else EXIT_OK)
    return p


def check_bound(case: MatrixCase, code: int, out: str) -> list[str]:
    f, l = parse_report(out)
    p: list[str] = []
    sg = case.oracle
    d1, m, big_d, bound = oracles.hole_bound(case.rows)
    _expect(p, "bound-components", ints(f["bound-components"]), (d1, m, big_d))
    _expect(p, "bound", int(f["bound"]), bound)
    if f["verdict"] == "holes-infinite":
        cert = ints(f["certificate-hole"])
        if max(abs(x) for x in cert) <= bound:
            p.append(f"certificate {cert} does not exceed the bound {bound}")
        if not sg.is_hole(cert):
            p.append(f"certificate {cert} is not a hole")
    else:
        holes = set(vectors(l["holes"]))
        top = max([case.box_top] + [h[0] for h in holes])
        _expect(p, f"holes up to grading {top}", holes, case.holes_upto(top))
        if any(abs(x) > bound for h in holes for x in h):
            p.append("a hole of a finite hole set exceeds the bound")
        _expect(p, "verdict", f["verdict"], "holes-finite" if holes else "holes-finite-empty")
    _expect(p, "exit code", code, EXIT_HOLES if case.fundamental else EXIT_OK)
    return p


def check_member(case: MatrixCase, vector: str, code: int, out: str) -> list[str]:
    f, _ = parse_report(out)
    p: list[str] = []
    sg = case.oracle
    z = ints(vector)
    status = f["status"]
    if status == "in-semigroup":
        lam = ints(f["witness"])
        if min(lam) < 0 or tuple(sum(a * x for a, x in zip(row, lam)) for row in case.rows) != z:
            p.append(f"witness {lam} does not give {z}")
    want = ("in-semigroup" if sg.in_q(z) else "outside-cone" if not sg.in_cone(z)
            else "outside-lattice" if not sg.in_lattice(z) else "hole")
    _expect(p, f"status of {z}", status, want)
    _expect(p, "exit code", code, EXIT_HOLES if want == "hole" else EXIT_OK)
    return p


def _matrix_ops(case: MatrixCase, run_bound: bool, members) -> list[Op]:
    path = str(case.path)
    ops = [Op(f"fundamental {case.label}", ["fundamental", path],
              lambda c, o: check_fundamental(case, c, o)),
           Op(f"holes {case.label}", ["holes", path], lambda c, o: check_holes(case, c, o)),
           Op(f"saturation {case.label}", ["saturation", path],
              lambda c, o: check_saturation(case, c, o))]
    if run_bound:
        ops.append(Op(f"bound {case.label}", ["bound", path], lambda c, o: check_bound(case, c, o)))
    for vec in members:
        ops.append(Op(f"member {case.label} {vec}", ["member", path, vec],
                      lambda c, o, vec=vec: check_member(case, vec, c, o)))
    return ops


def build_semigroup(workdir: Path) -> Workload:
    ops: list[Op] = []
    specs = [("example", RUNNING_EXAMPLE, True, ("1 1", "4 1", "2 4", "1 5"), None)]
    specs += [(f"ns{a}_{b}", ((a, b),), True, (str(a * b - a - b), str(a * (b - 1))), a * b)
              for a, b in NUMERICAL_PAIRS]
    specs += [(label, rows, bound, members, None) for label, rows, bound, members in SEEDED]
    for label, rows, run_bound, members, box_top in specs:
        path = workdir / f"{label}.txt"
        _write_matrix(path, rows)
        ops += _matrix_ops(MatrixCase(label, rows, path, box_top), run_bound, members)
    return Workload(ops)


# ---------------------------------------------------------------------------
# transport checks

@dataclass
class TableCase:
    label: str
    shape: tuple[int, int, int]
    margins: tuple
    path: Path
    hole_cells: tuple | None = None   # set for members of the 3x4x6 hole family

    def check(self, code: int, out: str) -> list[str]:
        f, l = parse_report(out)
        p: list[str] = []
        _expect(p, "instance", ints(f["instance"]), self.shape)
        _expect(p, "margin-vector", list(ints(f["margin-vector"])),
                oracles.flat_margins(*self.margins))
        if self.hole_cells is not None:
            # the paper: f + A'lam is a hole for every lam >= 0 on the support
            _expect(p, "integer-feasible", f["integer-feasible"], "no")
            _expect(p, "real-feasible", f["real-feasible"], "yes")
            _expect(p, "exit code", code, EXIT_HOLES)
            real = oracles.table_margins(oracles.half_point_plus(self.hole_cells))
            _expect(p, "margins of z* + lam", oracles.flat_margins(*real),
                    oracles.flat_margins(*self.margins))
            return p
        _expect(p, "integer-feasible", f["integer-feasible"], "yes")
        _expect(p, "exit code", code, EXIT_OK)
        tab = table(l["table"], self.shape)
        if any(x < 0 for block in tab for row in block for x in row):
            p.append("table has a negative entry")
        _expect(p, "table margins", oracles.flat_margins(*oracles.table_margins(tab)),
                oracles.flat_margins(*self.margins))
        return p


def build_transport_tables(workdir: Path) -> Workload:
    rng = random.Random(TABLE_SEED)
    cases = []
    for r, s, t in TABLE_SHAPES:
        tab = [[[rng.randint(0, 2) for _ in range(t)] for _ in range(s)] for _ in range(r)]
        cases.append((f"random{r}x{s}x{t}", (r, s, t), oracles.table_margins(tab), None))
    vlach = oracles.VLACH_MARGINS
    support, off = oracles.vlach_support(), oracles.vlach_off_support()
    for picks in HOLE_FAMILY:
        lam = tuple(support[i] for i in picks)
        cases.append((f"hole{'_'.join(map(str, picks))}", oracles.VLACH_SHAPE,
                      oracles.add_cells(vlach, lam), lam))
    for picks, c in FEASIBLE_FAMILY:
        cells_ = [support[i] for i in picks] + [off[c]]
        cases.append((f"offsupport{c}_{'_'.join(map(str, picks))}", oracles.VLACH_SHAPE,
                      oracles.add_cells(vlach, cells_), None))
    ops = []
    for label, shape, margins, hole_cells in cases:
        path = workdir / f"{label}.txt"
        _write_margins(path, margins)
        case = TableCase(label, shape, margins, path, hole_cells)
        ops.append(Op(f"transport {label}", ["transport", "--margins", str(path)], case.check))
    return Workload(ops)


# ---------------------------------------------------------------------------
# vlach346

class VlachCapture:
    """Keeps the report behind `transport --vlach`, whose point and witnesses
    the CLI does not print."""

    def __init__(self):
        self.report = None

    def install(self, cli):
        inner = cli.verify_vlach

        def verify_vlach(*args, **kwargs):
            self.report = inner(*args, **kwargs)
            return self.report

        cli.verify_vlach = verify_vlach

    def check(self, code: int, out: str) -> list[str]:
        f, l = parse_report(out)
        p: list[str] = []
        report, self.report = self.report, None
        support = oracles.vlach_support()
        off = oracles.vlach_off_support()
        vlach = oracles.VLACH_MARGINS
        _expect(p, "exit code", code, EXIT_HOLES)
        _expect(p, "margin-vector", list(ints(f["margin-vector"])), oracles.flat_margins(*vlach))
        _expect(p, "support-size", f["support-size"], "24")
        _expect(p, "support", vectors(l["support"]), support)
        _expect(p, "witnesses-size", f["witnesses-size"], "48")
        for flag in ("flag-unique-real-solution", "flag-margin-is-hole",
                     "flag-margin-is-fundamental", "flag-holes-are-margin-plus-support-monoid"):
            _expect(p, flag, f[flag], "true")
        if report is None:
            return p + ["no report was captured"]
        r, s, t = oracles.VLACH_SHAPE
        half = oracles.half_point_plus(())
        want = [half[i][j][k] for i in range(r) for j in range(s) for k in range(t)]
        _expect(p, "half-integral point", list(report.z_star), want)
        _expect(p, "witness cells", [cell for cell, _ in report.non_hole_witnesses], off)
        for cell, mu in report.non_hole_witnesses:
            if len(mu) != r * s * t or min(mu) < 0 or any(not isinstance(x, int) for x in mu):
                p.append(f"witness at {cell} is not a nonnegative integer table")
                continue
            tab = [[[mu[(i * s + j) * t + k] for k in range(t)] for j in range(s)] for i in range(r)]
            _expect(p, f"witness margins at {cell}",
                    oracles.flat_margins(*oracles.table_margins(tab)),
                    oracles.flat_margins(*oracles.add_cells(vlach, [cell])))
        return p


def build_vlach346(workdir: Path) -> Workload:
    capture = VlachCapture()
    return Workload([Op("transport --vlach", ["transport", "--vlach"], capture.check)],
                    capture.install)


BUILDERS = {
    "semigroup": build_semigroup,
    "transport_tables": build_transport_tables,
    "vlach346": build_vlach346,
}
