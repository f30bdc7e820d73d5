"""Command-line front end.

Subcommands mirror the library operations; reports go to stdout in a
deterministic key/value layout (re-runs are byte-identical), diagnostics
and timing go to stderr.  Exit codes: 0 no holes / membership holds,
10 holes exist / infeasible, 2 parse error, 3 non-pointed cone,
4 resource limit hit (a configured ceiling, the interpreter's recursion
limit, memory exhaustion) or interrupted by Ctrl-C, 1 any other
computation error or a closed stdout.

The --max-... flags are the only configuration, and each input has one
source: `transport` reads the table dimensions off its margins file, and
`transport --vlach` takes no margins.

Every report is built from the same parts: `key: value` lines, sections
written by `_section` (a `<name>-size: n` line, a `<name>:` line, one
indented line per item), and `limit-status: ok` as its last line, which
`main` appends.  A failure prints one `error: ...` line and no report;
`_FAILURES` gives its exit code.
"""

from __future__ import annotations

import argparse
import os
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
from .limits import Limits
from .polyhedra import FeasibilitySystem, lp_exact
from .saturation import certify_infinite, problem_bound, saturation_points
from .transport import (
    MarginTriple,
    margins_to_vector,
    table_feasible,
    transportation_matrix,
    verify_vlach,
)

EXIT_OK = 0
EXIT_HOLES = 10

# failure kind -> (exit code, message); a None message prints the error's
# own text.  An error takes the entry of its nearest class in the table,
# so the MonoidHolesError row catches only the kinds not listed above it.
_FAILURES = {
    MatrixParseError: (2, None),
    NotPointedError: (3, None),
    ResourceLimitError: (4, None),
    RecursionError: (4, "resource limit exceeded: recursion depth"),
    MemoryError: (4, "resource limit exceeded: memory"),
    KeyboardInterrupt: (4, "interrupted"),
    MonoidHolesError: (1, None),
}

# the ceiling flags: Limits field -> help text of its --max-... flag
_CEILINGS = {
    "max_basis": "cap on the Graver working set, fibers and Hilbert bases",
    "max_nodes": "cap on search nodes, reduced sums, simplices and their points",
    "max_pairs": "cap on standard pair cells",
    "max_subsets": "cap on subdeterminant subsets",
    "max_rays": "cap on intermediate facet rays",
}


def _fmt_vec(v) -> str:
    return " ".join(map(str, v))


def _fmt_cell(cell) -> str:
    if not cell.generators:
        return f"{_fmt_vec(cell.shift)} |"
    gens = "; ".join(_fmt_vec(g) for g in cell.generators)
    return f"{_fmt_vec(cell.shift)} | {gens}"


def _section(lines: list[str], name: str, items, fmt=_fmt_vec):
    lines.append(f"{name}-size: {len(items)}")
    lines.append(f"{name}:")
    lines.extend(f"  {fmt(item)}" for item in items)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}") from exc


def _ints(path: str, tokens) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise MatrixParseError(f"{path}: non-integer token: {exc}") from exc


def read_matrix_file(path: str) -> IntMatrix:
    tokens = _read_text(path).split()
    if len(tokens) < 2:
        raise MatrixParseError(f"{path}: expected a 'rows cols' header")
    values = _ints(path, tokens)
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
    blocks: list[list[list[int]]] = []
    current: list[list[int]] = []
    for line in _read_text(path).splitlines():
        stripped = line.strip()
        if stripped:
            current.append(_ints(path, stripped.split()))
        elif current:
            blocks.append(current)
            current = []
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


def _open_matrix(args) -> tuple[IntMatrix, list[str]]:
    """Read the matrix file of a matrix command; return it with the report's
    opening lines."""
    a = read_matrix_file(args.matrix)
    lines = [f"command: {args.cmd}", f"input-matrix: {a.rows} {a.cols}"]
    lines.extend(f"  {_fmt_vec(row)}" for row in a.entries)
    return a, lines


def cmd_fundamental(args, limits: Limits) -> tuple[list[str], int]:
    a, lines = _open_matrix(args)
    problem = SemigroupProblem.build(a, limits)
    fund = fundamental_holes(problem, limits)
    lines.append(f"lattice-rank: {problem.lattice.rank}")
    _section(lines, "hilbert-basis", fund.hilbert_basis.elements)
    _section(lines, "basis-holes", fund.basis_holes)
    _section(lines, "fundamental-holes", fund.holes)
    lines.append(f"verdict: {'holes-exist' if fund.holes else 'normal'}")
    return lines, (EXIT_HOLES if fund.holes else EXIT_OK)


def cmd_holes(args, limits: Limits) -> tuple[list[str], int]:
    a, lines = _open_matrix(args)
    rep = holes_representation(SemigroupProblem.build(a, limits), limits)
    _section(lines, "fundamental-holes", rep.fundamental_set.holes)
    _section(lines, "cells", rep.cells, _fmt_cell)
    verdict = "finite-empty" if not rep.cells else ("finite" if rep.is_finite else "infinite")
    lines.append(f"hole-set: {verdict}")
    return lines, (EXIT_HOLES if rep.cells else EXIT_OK)


def cmd_saturation(args, limits: Limits) -> tuple[list[str], int]:
    a, lines = _open_matrix(args)
    result = saturation_points(SemigroupProblem.build(a, limits), limits)
    _section(lines, "ideal-generators", result.ideal.generators)
    _section(lines, "saturation-points", result.points)
    holes_exist = not result.ideal.is_unit
    lines.append(f"verdict: {'holes-exist' if holes_exist else 'normal'}")
    return lines, (EXIT_HOLES if holes_exist else EXIT_OK)


def cmd_bound(args, limits: Limits) -> tuple[list[str], int]:
    a, lines = _open_matrix(args)
    problem = SemigroupProblem.build(a, limits)
    report = problem_bound(problem, limits)
    rep = holes_representation(problem, limits)
    lines.append(f"bound-components: {report.d_plus_1} {report.m_f} {report.d_a}")
    lines.append(f"bound: {report.bound}")
    if not rep.is_finite:
        lines.append(f"certificate-hole: {_fmt_vec(certify_infinite(problem, limits))}")
        lines.append("verdict: holes-infinite")
        return lines, EXIT_HOLES
    holes = sorted({cell.shift for cell in rep.cells})
    _section(lines, "holes", holes)
    if not holes:
        lines.append("verdict: holes-finite-empty")
        return lines, EXIT_OK
    lines.append(f"max-hole-entry: {max(max(abs(x) for x in h) for h in holes)}")
    lines.append("verdict: holes-finite")
    return lines, EXIT_HOLES


def cmd_member(args, limits: Limits) -> tuple[list[str], int]:
    a, lines = _open_matrix(args)
    b = parse_vector(args.vector, a.rows)
    problem = SemigroupProblem.build(a, limits)
    lines.append(f"vector: {_fmt_vec(b)}")
    witness = semigroup_contains(problem, b, limits)
    if witness is not None:
        lines.append("status: in-semigroup")
        lines.append(f"witness: {_fmt_vec(witness)}")
    elif not problem.in_cone(b):
        lines.append("status: outside-cone")
    elif problem.lattice.contains(b) is None:
        lines.append("status: outside-lattice")
    else:
        lines.append("status: hole")
        return lines, EXIT_HOLES
    return lines, EXIT_OK


def cmd_transport(args, limits: Limits) -> tuple[list[str], int]:
    lines = ["command: transport"]
    if args.vlach:
        if args.margins is not None:
            raise MatrixParseError("--vlach takes no --margins")
        report = verify_vlach(limits)
        lines.append("instance: 3 4 6")
        lines.append(f"margin-vector: {_fmt_vec(report.f)}")
        _section(lines, "support", report.support)
        lines.append(f"witnesses-size: {len(report.non_hole_witnesses)}")
        lines.append(f"flag-unique-real-solution: {str(report.z_star is not None).lower()}")
        lines.append(f"flag-margin-is-hole: {str(report.f_is_hole).lower()}")
        lines.append(f"flag-margin-is-fundamental: {str(report.f_is_fundamental_checked).lower()}")
        lines.append(
            "flag-holes-are-margin-plus-support-monoid: "
            f"{str(report.holes_are_f_plus_monoid_a_prime).lower()}")
        lines.extend(f"diagnostic: {diag}" for diag in report.diagnostics)
        return lines, (EXIT_HOLES if report.all_true() else 1)

    if args.margins is None:
        raise MatrixParseError("transport needs --vlach or --margins")
    margins = read_margins_file(args.margins)
    dims = margins.dims()
    lines.append(f"instance: {dims.r} {dims.s} {dims.t}")
    lines.append(f"matrix-shape: {dims.num_rows} {dims.num_cols}")
    f = margins_to_vector(dims, margins)
    lines.append(f"margin-vector: {_fmt_vec(f)}")
    table = table_feasible(dims, margins, limits)
    if table is None:
        a = transportation_matrix(dims)
        feas = lp_exact(FeasibilitySystem(a, f)).status == "feasible"
        lines.append("integer-feasible: no")
        lines.append(f"real-feasible: {'yes' if feas else 'no'}")
        return lines, EXIT_HOLES
    lines.append("integer-feasible: yes")
    lines.append("table:")
    for i in range(dims.r):
        for j in range(dims.s):
            lines.append(f"  {_fmt_vec(table[i][j])}")
        if i + 1 < dims.r:
            lines.append("  -")
    return lines, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoid-holes",
        description="Holes of affine semigroups: fundamental holes, hole "
                    "representations, bounds, saturation points, and 3-way "
                    "transportation feasibility, all in exact arithmetic.")
    for name, text in _CEILINGS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=int, help=text)
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name in ("fundamental", "holes", "saturation", "bound", "member"):
        p = sub.add_parser(name)
        p.add_argument("matrix", help="matrix file: 'd n' header then d rows")
        if name == "member":
            p.add_argument("vector", help="right-hand side, e.g. '1,1' or '1 1'")

    p = sub.add_parser("transport")
    p.add_argument("--vlach", action="store_true",
                   help="verify the 3x4x6 fundamental hole pipeline")
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


def _limits(args) -> Limits:
    """The defaults, with each ceiling flag that was given in place of its own."""
    try:
        return Limits(**{name: getattr(args, name) for name in _CEILINGS
                         if getattr(args, name) is not None})
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from exc


def _emit(stream, text: str) -> bool:
    """Print text to stream; False when it cannot.  A stream closed at
    startup is None (print would fall back to stdout); one that fails is
    pointed at devnull, so that the flush at exit cannot raise again (the
    recipe of Python's signal docs)."""
    if stream is None:
        return False
    try:
        print(text, file=stream, flush=True)
    except OSError:  # a reader that went away, or a descriptor not open for writing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return False
    return True


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        lines, code = _COMMANDS[args.cmd](args, _limits(args))
    except tuple(_FAILURES) as exc:
        code, message = next(_FAILURES[kind] for kind in type(exc).__mro__ if kind in _FAILURES)
        _emit(sys.stderr, f"error: {exc if message is None else message}")
        return code
    lines.append("limit-status: ok")
    if not _emit(sys.stdout, "\n".join(lines)):
        return 1
    # timing is a diagnostic: a stderr that cannot take it leaves the exit code alone
    _emit(sys.stderr, f"elapsed-ms: {(time.perf_counter() - started) * 1000.0:.1f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
