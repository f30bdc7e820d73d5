"""Command-line front end.

Subcommands mirror the library operations; reports go to stdout in a
deterministic key/value layout (re-runs are byte-identical), diagnostics
and timing go to stderr.  Exit codes: 0 no holes / membership holds,
10 holes exist / infeasible, 2 parse error, 3 non-pointed cone,
4 resource limit hit (a configured ceiling, the interpreter's recursion
limit, memory exhaustion) or interrupted by Ctrl-C, 1 any other
computation error.
"""

from __future__ import annotations

import argparse
import sys
import time

from .dioph import semigroup_contains
from .errors import (
    MatrixParseError,
    MonoidHolesError,
    NotPointedError,
    ResourceLimitError,
)
from .holes import SemigroupProblem, fundamental_holes, holes_representation
from .intlinalg import IntMatrix
from .limits import DEFAULT_LIMITS, Limits, limits_from_env
from .polyhedra import FeasibilitySystem, lp_exact
from .saturation import certify_infinite, problem_bound, saturation_points
from .transport import (
    MarginTriple,
    TransportDims,
    margins_to_vector,
    table_feasible,
    transportation_matrix,
    verify_vlach,
)

EXIT_OK = 0
EXIT_HOLES = 10
EXIT_PARSE = 2
EXIT_NOT_POINTED = 3
EXIT_LIMIT = 4


def _fmt_vec(v) -> str:
    return " ".join(str(x) for x in v)


def _fmt_cell(cell) -> str:
    if not cell.generators:
        return f"{_fmt_vec(cell.shift)} |"
    gens = "; ".join(_fmt_vec(g) for g in cell.generators)
    return f"{_fmt_vec(cell.shift)} | {gens}"


def read_matrix_file(path: str) -> IntMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    if len(tokens) < 2:
        raise MatrixParseError(f"{path}: expected a 'rows cols' header")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise MatrixParseError(f"{path}: non-integer token: {exc}") from exc
    d, n = values[0], values[1]
    if d < 1 or n < 1:
        raise MatrixParseError(f"{path}: dimensions must be positive")
    if len(values) != 2 + d * n:
        raise MatrixParseError(
            f"{path}: expected {d * n} entries after the header, got {len(values) - 2}")
    body = values[2:]
    rows = [body[i * n:(i + 1) * n] for i in range(d)]
    return IntMatrix.from_rows(rows)


def read_margins_file(path: str) -> MarginTriple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc
    blocks: list[list[list[int]]] = []
    current: list[list[int]] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            if current:
                blocks.append(current)
                current = []
            continue
        try:
            current.append([int(t) for t in stripped.split()])
        except ValueError as exc:
            raise MatrixParseError(f"{path}: non-integer token: {exc}") from exc
    if current:
        blocks.append(current)
    if len(blocks) != 3:
        raise MatrixParseError(f"{path}: expected three margin blocks, got {len(blocks)}")
    for block in blocks:
        if any(len(row) != len(block[0]) for row in block):
            raise MatrixParseError(f"{path}: ragged margin block")
    try:
        margins = MarginTriple.from_lists(*blocks)
        margins.dims()
    except ValueError as exc:
        raise MatrixParseError(f"{path}: {exc}") from exc
    return margins


def parse_vector(text: str, dim: int) -> tuple[int, ...]:
    try:
        entries = tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError as exc:
        raise MatrixParseError(f"bad vector literal {text!r}: {exc}") from exc
    if len(entries) != dim:
        raise MatrixParseError(f"vector has {len(entries)} entries, expected {dim}")
    return entries


def _echo_matrix(lines: list[str], a: IntMatrix):
    lines.append(f"input-matrix: {a.rows} {a.cols}")
    for row in a.entries:
        lines.append(f"  {_fmt_vec(row)}")


def cmd_fundamental(args, limits: Limits) -> tuple[list[str], int]:
    a = read_matrix_file(args.matrix)
    problem = SemigroupProblem.build(a, limits)
    fund = fundamental_holes(problem, limits)
    lines = ["command: fundamental"]
    _echo_matrix(lines, a)
    lines.append(f"lattice-rank: {problem.lattice.rank}")
    lines.append(f"hilbert-basis-size: {len(fund.hilbert_basis)}")
    lines.append("hilbert-basis:")
    for b in fund.hilbert_basis:
        lines.append(f"  {_fmt_vec(b)}")
    lines.append(f"basis-holes-size: {len(fund.basis_holes)}")
    lines.append("basis-holes:")
    for b in fund.basis_holes:
        lines.append(f"  {_fmt_vec(b)}")
    lines.append(f"fundamental-holes-size: {len(fund.holes)}")
    lines.append("fundamental-holes:")
    for h in fund.holes:
        lines.append(f"  {_fmt_vec(h)}")
    verdict = "normal" if not fund.holes else "holes-exist"
    lines.append(f"verdict: {verdict}")
    lines.append("limit-status: ok")
    return lines, (EXIT_OK if not fund.holes else EXIT_HOLES)


def cmd_holes(args, limits: Limits) -> tuple[list[str], int]:
    a = read_matrix_file(args.matrix)
    problem = SemigroupProblem.build(a, limits)
    rep = holes_representation(problem, limits, jobs=args.jobs)
    lines = ["command: holes"]
    _echo_matrix(lines, a)
    lines.append(f"fundamental-holes-size: {len(rep.fundamental_set.holes)}")
    lines.append("fundamental-holes:")
    for h in rep.fundamental_set.holes:
        lines.append(f"  {_fmt_vec(h)}")
    lines.append(f"cells-size: {len(rep.cells)}")
    lines.append("cells:")
    for cell in rep.cells:
        lines.append(f"  {_fmt_cell(cell)}")
    verdict = "finite-empty" if not rep.cells else ("finite" if rep.is_finite else "infinite")
    lines.append(f"hole-set: {verdict}")
    lines.append("limit-status: ok")
    return lines, (EXIT_OK if not rep.cells else EXIT_HOLES)


def cmd_saturation(args, limits: Limits) -> tuple[list[str], int]:
    a = read_matrix_file(args.matrix)
    problem = SemigroupProblem.build(a, limits)
    result = saturation_points(problem, limits, jobs=args.jobs)
    lines = ["command: saturation"]
    _echo_matrix(lines, a)
    lines.append(f"ideal-generators-size: {len(result.ideal.generators)}")
    lines.append("ideal-generators:")
    for g in result.ideal.generators:
        lines.append(f"  {_fmt_vec(g)}")
    lines.append(f"saturation-points-size: {len(result.points)}")
    lines.append("saturation-points:")
    for p in result.points:
        lines.append(f"  {_fmt_vec(p)}")
    holes_exist = not result.ideal.is_unit
    lines.append(f"verdict: {'holes-exist' if holes_exist else 'normal'}")
    lines.append("limit-status: ok")
    return lines, (EXIT_HOLES if holes_exist else EXIT_OK)


def cmd_bound(args, limits: Limits) -> tuple[list[str], int]:
    a = read_matrix_file(args.matrix)
    problem = SemigroupProblem.build(a, limits)
    report = problem_bound(problem, limits)
    rep = holes_representation(problem, limits, jobs=args.jobs)
    lines = ["command: bound"]
    _echo_matrix(lines, a)
    lines.append(f"bound-components: {report.d_plus_1} {report.m_f} {report.d_a}")
    lines.append(f"bound: {report.bound}")
    if rep.is_finite:
        holes = sorted({cell.shift for cell in rep.cells})
        lines.append(f"holes-size: {len(holes)}")
        lines.append("holes:")
        for h in holes:
            lines.append(f"  {_fmt_vec(h)}")
        if holes:
            largest = max(max(abs(x) for x in h) for h in holes)
            lines.append(f"max-hole-entry: {largest}")
            lines.append("verdict: holes-finite")
        else:
            lines.append("verdict: holes-finite-empty")
        code = EXIT_HOLES if holes else EXIT_OK
    else:
        certificate = certify_infinite(problem, limits)
        lines.append(f"certificate-hole: {_fmt_vec(certificate)}")
        lines.append("verdict: holes-infinite")
        code = EXIT_HOLES
    lines.append("limit-status: ok")
    return lines, code


def cmd_member(args, limits: Limits) -> tuple[list[str], int]:
    a = read_matrix_file(args.matrix)
    b = parse_vector(args.vector, a.rows)
    problem = SemigroupProblem.build(a, limits)
    lines = ["command: member"]
    _echo_matrix(lines, a)
    lines.append(f"vector: {_fmt_vec(b)}")
    witness = semigroup_contains(problem, b, limits)
    if witness is not None:
        lines.append("status: in-semigroup")
        lines.append(f"witness: {_fmt_vec(witness)}")
        code = EXIT_OK
    elif not problem.in_cone(b):
        lines.append("status: outside-cone")
        code = EXIT_OK
    elif problem.lattice.contains(b) is None:
        lines.append("status: outside-lattice")
        code = EXIT_OK
    else:
        lines.append("status: hole")
        code = EXIT_HOLES
    lines.append("limit-status: ok")
    return lines, code


def cmd_transport(args, limits: Limits) -> tuple[list[str], int]:
    lines = ["command: transport"]
    if args.vlach:
        report = verify_vlach(limits, jobs=args.jobs)
        lines.append("instance: 3 4 6")
        lines.append(f"margin-vector: {_fmt_vec(report.f)}")
        lines.append(f"support-size: {len(report.support)}")
        lines.append("support:")
        for (i, j, k) in report.support:
            lines.append(f"  {i} {j} {k}")
        lines.append(f"witnesses-size: {len(report.non_hole_witnesses)}")
        c = report.conclusions
        lines.append(f"flag-unique-real-solution: {str(c.unique_real_solution).lower()}")
        lines.append(f"flag-margin-is-hole: {str(c.f_is_hole).lower()}")
        lines.append(f"flag-margin-is-fundamental: {str(c.f_is_fundamental_checked).lower()}")
        lines.append(
            "flag-holes-are-margin-plus-support-monoid: "
            f"{str(c.holes_are_f_plus_monoid_a_prime).lower()}")
        for diag in report.diagnostics:
            lines.append(f"diagnostic: {diag}")
        lines.append("limit-status: ok")
        return lines, (EXIT_HOLES if c.all_true() else 1)

    margins = read_margins_file(args.margins) if args.margins else None
    if args.dims:
        try:
            dims = TransportDims(*args.dims)
        except ValueError as exc:
            raise MatrixParseError(f"--dims: {exc}") from exc
        if margins is not None and margins.dims() != dims:
            raise MatrixParseError("margins file does not match --dims")
    elif margins is not None:
        dims = margins.dims()
    else:
        raise MatrixParseError("transport needs --vlach, --dims or --margins")

    lines.append(f"instance: {dims.r} {dims.s} {dims.t}")
    lines.append(f"matrix-shape: {dims.num_rows} {dims.num_cols}")
    if margins is None:
        lines.append("limit-status: ok")
        return lines, EXIT_OK
    f = margins_to_vector(dims, margins)
    lines.append(f"margin-vector: {_fmt_vec(f)}")
    table = table_feasible(dims, margins, limits)
    if table is None:
        a = transportation_matrix(dims)
        feas = lp_exact(FeasibilitySystem(a, f), (0,) * a.cols, "min").status == "optimal"
        lines.append("integer-feasible: no")
        lines.append(f"real-feasible: {'yes' if feas else 'no'}")
        lines.append("limit-status: ok")
        return lines, EXIT_HOLES
    lines.append("integer-feasible: yes")
    lines.append("table:")
    for i in range(dims.r):
        for j in range(dims.s):
            lines.append(f"  {_fmt_vec(table[i][j])}")
        if i + 1 < dims.r:
            lines.append("  -")
    lines.append("limit-status: ok")
    return lines, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoid-holes",
        description="Holes of affine semigroups: fundamental holes, hole "
                    "representations, bounds, saturation points, and 3-way "
                    "transportation feasibility, all in exact arithmetic.")
    parser.add_argument("--max-basis", type=int, help="cap on Graver, fiber and Hilbert bases")
    parser.add_argument("--max-nodes", type=int, help="cap on search states, simplices and their points")
    parser.add_argument("--max-pairs", type=int, help="cap on standard pair cells")
    parser.add_argument("--max-subsets", type=int, help="cap on subdeterminant subsets")
    parser.add_argument("--max-rays", type=int, help="cap on intermediate facet rays")
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name, needs_vector in (("fundamental", False), ("holes", False),
                               ("saturation", False), ("bound", False),
                               ("member", True)):
        p = sub.add_parser(name)
        p.add_argument("matrix", help="matrix file: 'd n' header then d rows")
        if needs_vector:
            p.add_argument("vector", help="right-hand side, e.g. '1,1' or '1 1'")

    p = sub.add_parser("transport")
    p.add_argument("--vlach", action="store_true",
                   help="verify the 3x4x6 fundamental hole pipeline")
    p.add_argument("--dims", type=int, nargs=3, metavar=("R", "S", "T"))
    p.add_argument("--margins", help="margins file: u, v, w blocks separated by blank lines")
    return parser


_COMMANDS = {
    "fundamental": cmd_fundamental,
    "holes": cmd_holes,
    "saturation": cmd_saturation,
    "bound": cmd_bound,
    "member": cmd_member,
    "transport": cmd_transport,
}


_PARSER: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {args.jobs}")
        limits = limits_from_env(DEFAULT_LIMITS).override(
            max_basis=args.max_basis, max_nodes=args.max_nodes,
            max_pairs=args.max_pairs, max_subsets=args.max_subsets,
            max_rays=args.max_rays)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    started = time.perf_counter()
    try:
        lines, code = _COMMANDS[args.cmd](args, limits)
    except MatrixParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotPointedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_POINTED
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except RecursionError:
        print("error: resource limit exceeded: recursion depth", file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError:
        print("error: resource limit exceeded: memory", file=sys.stderr)
        return EXIT_LIMIT
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_LIMIT
    except MonoidHolesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    elapsed = (time.perf_counter() - started) * 1000.0
    print(f"elapsed-ms: {elapsed:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
