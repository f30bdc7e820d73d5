import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import monoid_holes
from monoid_holes import cli, holes, intlinalg, saturation, transport, vlach_margins
from monoid_holes.cli import build_parser, main
from monoid_holes.errors import (
    MatrixParseError,
    MonoidHolesError,
    NotPointedError,
    RankDeficientError,
    ResourceLimitError,
)
from monoid_holes.limits import Limits

from conftest import brute_in_cone, brute_in_lattice, margin_lists, move_one_unit, sieve_member


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text("2 4\n1 1 1 1\n0 2 3 4\n")
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.txt"
    path.write_text("2 2\n1 0\n0 1\n")
    return str(path)


@pytest.fixture
def ns35_file(tmp_path):
    path = tmp_path / "ns35.txt"
    path.write_text("1 2\n3 5\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def margins_text(u, v, w) -> str:
    """A margins file: the three blocks separated by blank lines."""
    fmt = lambda block: "\n".join(" ".join(str(x) for x in row) for row in block)
    return f"{fmt(u)}\n\n{fmt(v)}\n\n{fmt(w)}\n"


class TestFundamental:
    def test_example(self, capsys, example_file):
        code, out = run(capsys, "fundamental", example_file)
        assert code == 10
        assert "fundamental-holes:\n  1 1\n" in out
        assert "hilbert-basis-size: 5" in out
        assert "verdict: holes-exist" in out

    def test_identity(self, capsys, identity_file):
        code, out = run(capsys, "fundamental", identity_file)
        assert code == 0
        assert "fundamental-holes-size: 0" in out
        assert "verdict: normal" in out

    def test_three_five(self, capsys, ns35_file):
        code, out = run(capsys, "fundamental", ns35_file)
        assert code == 10
        assert "fundamental-holes:\n  1\n  2\n" in out

    def test_independent_columns_are_the_hilbert_basis(self, capsys, tmp_path):
        # det 4 and no holes: the saturation is the semigroup of the three
        # columns, found without a kernel search
        path = tmp_path / "simplicial.txt"
        path.write_text("3 3\n0 2 1\n3 0 1\n2 0 0\n")
        started = time.process_time()
        code, out = run(capsys, "fundamental", str(path))
        assert time.process_time() - started < 1.0
        assert code == 0
        assert out == ("command: fundamental\ninput-matrix: 3 3\n  0 2 1\n  3 0 1\n  2 0 0\n"
                       "lattice-rank: 3\nhilbert-basis-size: 3\nhilbert-basis:\n"
                       "  0 3 2\n  1 1 0\n  2 0 0\nbasis-holes-size: 0\nbasis-holes:\n"
                       "fundamental-holes-size: 0\nfundamental-holes:\nverdict: normal\n"
                       "limit-status: ok\n")

    def test_builds_no_hole_ideal(self, capsys, example_file, monkeypatch):
        expected = run(capsys, "fundamental", example_file)

        def no_hole_ideals(*args, **kwargs):
            raise AssertionError("fundamental must not compute hole ideals")
        monkeypatch.setattr(holes, "minimal_inhomogeneous_solutions", no_hole_ideals)
        monkeypatch.setattr(holes, "hole_ideal", no_hole_ideals)
        assert run(capsys, "fundamental", example_file) == expected


class TestHoles:
    def test_example_infinite(self, capsys, example_file):
        code, out = run(capsys, "holes", example_file)
        assert code == 10
        assert "cells:\n  1 1 | 1 0\n" in out
        assert "hole-set: infinite" in out

    def test_identity_empty(self, capsys, identity_file):
        code, out = run(capsys, "holes", identity_file)
        assert code == 0
        assert "cells-size: 0" in out
        assert "hole-set: finite-empty" in out

    def test_three_five_finite(self, capsys, ns35_file):
        code, out = run(capsys, "holes", ns35_file)
        assert code == 10
        assert "hole-set: finite" in out
        for shift in ("1 |", "2 |", "4 |", "7 |"):
            assert f"  {shift}" in out


class TestSaturation:
    def test_example(self, capsys, example_file):
        code, out = run(capsys, "saturation", example_file)
        assert code == 10
        assert "saturation-points:\n  1 2\n  1 3\n  1 4\n" in out

    def test_identity(self, capsys, identity_file):
        code, out = run(capsys, "saturation", identity_file)
        assert code == 0
        assert "saturation-points:\n  0 0\n" in out


class TestBound:
    def test_example(self, capsys, example_file):
        code, out = run(capsys, "bound", example_file)
        assert code == 10
        assert "bound-components: 3 9 4" in out
        assert "bound: 972" in out
        assert "verdict: holes-infinite" in out
        certificate = next(l for l in out.splitlines() if l.startswith("certificate-hole:"))
        first = int(certificate.split()[1])
        assert first > 972

    def test_identity(self, capsys, identity_file):
        code, out = run(capsys, "bound", identity_file)
        assert code == 0
        assert "verdict: holes-finite-empty" in out

    def test_subdeterminants_enumerated_once(self, capsys, example_file, monkeypatch):
        # the bound report is shared by the printed bound and the certificate
        calls = []
        inner = saturation.max_abs_subdeterminant

        def counted(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)
        monkeypatch.setattr(saturation, "max_abs_subdeterminant", counted)
        code, out = run(capsys, "bound", example_file)
        assert code == 10
        assert "verdict: holes-infinite" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("rows, certificate", [
        ([[2, 2, 2, 1], [-2, 3, 1, 0]], (2945, 4415)),
        ([[1, 2, 2, 2], [0, 0, 1, -2]], (1769, -1769)),
    ], ids=["mxa", "mxc"])
    def test_mixed_sign_certificate(self, capsys, tmp_path, rows, certificate):
        # the membership search on these far points once ran for minutes
        path = tmp_path / "mixed.txt"
        path.write_text("2 4\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows))
        start = time.process_time()
        code, out = run(capsys, "bound", str(path))
        assert time.process_time() - start < 2
        assert code == 10
        assert "certificate-hole: {} {}\n".format(*certificate) in out
        assert "verdict: holes-infinite" in out
        # a hole by the oracles alone
        assert brute_in_cone(rows, certificate)
        assert brute_in_lattice(rows, certificate)
        assert not sieve_member(rows, certificate)

    def test_nonnegative_certificate(self, capsys, tmp_path):
        # the certificate lies near the ray (1, 5), where the facet
        # 5x - y leaves a budget of 2; the search on the rows of A alone
        # ran past 10**7 nodes on it
        path = tmp_path / "n2c.txt"
        path.write_text("2 4\n1 1 1 1\n0 1 2 5\n")
        code, out = run(capsys, "--max-nodes", "100000", "bound", str(path))
        assert code == 10
        assert "certificate-hole: 963 4813\n" in out
        rows, certificate = [[1, 1, 1, 1], [0, 1, 2, 5]], (963, 4813)
        assert brute_in_cone(rows, certificate)
        assert brute_in_lattice(rows, certificate)
        assert not sieve_member(rows, certificate)

    def test_rank_deficient_matrix_is_an_error(self, capsys, tmp_path):
        # the bound's maximal subdeterminants need a matrix of full row rank
        path = tmp_path / "zero_row.txt"
        path.write_text("2 2\n2 3\n0 0\n")
        assert main(["bound", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix must have full row rank\n"

    def test_two_three(self, capsys, tmp_path):
        path = tmp_path / "ns23.txt"
        path.write_text("1 2\n2 3\n")
        code, out = run(capsys, "bound", str(path))
        assert code == 10
        assert "verdict: holes-finite" in out
        assert "max-hole-entry: 1" in out


class TestMember:
    def test_hole(self, capsys, example_file):
        code, out = run(capsys, "member", example_file, "1,1")
        assert code == 10
        assert "status: hole" in out

    def test_in_semigroup(self, capsys, example_file):
        code, out = run(capsys, "member", example_file, "2 2")
        assert code == 0
        assert "status: in-semigroup" in out
        assert "witness:" in out

    def test_zero(self, capsys, example_file):
        code, out = run(capsys, "member", example_file, "0 0")
        assert code == 0
        assert "witness: 0 0 0 0" in out

    @pytest.mark.parametrize("vector, witness", [("5 5", "3 2 0 0"), ("6 4", "1 2 1 1")])
    def test_mixed_sign_witness(self, capsys, tmp_path, vector, witness):
        # each vector has two representations; the search tries the first
        # free column from its largest value down, so the witness is the
        # lexicographically largest one
        path = tmp_path / "mixed.txt"
        path.write_text("2 4\n1 1 1 2\n3 -2 2 3\n")
        code, out = run(capsys, "member", str(path), vector)
        assert code == 0
        assert f"witness: {witness}\n" in out

    def test_outside_lattice(self, capsys, tmp_path):
        path = tmp_path / "even.txt"
        path.write_text("1 1\n2\n")
        code, out = run(capsys, "member", str(path), "3")
        assert code == 0
        assert "status: outside-lattice" in out

    def test_outside_lattice_is_not_searched(self, capsys, tmp_path):
        # every column is even, so the odd point is off the lattice but in
        # the cone; a search for it explores the whole box below it
        path = tmp_path / "even.txt"
        path.write_text("2 4\n2 4 6 10\n0 2 4 10\n")
        start = time.process_time()
        code, out = run(capsys, "member", str(path), "1001 501")
        assert time.process_time() - start < 2
        assert code == 0
        assert "status: outside-lattice\n" in out

    def test_member_near_a_ray(self, capsys, tmp_path):
        # (1000, 4990) = 2 (1, 0) + 998 (1, 5): the facet 5x - y leaves a
        # budget of 10, which caps each column off the ray (1, 5) at 3 or less
        path = tmp_path / "n2c.txt"
        path.write_text("2 4\n1 1 1 1\n0 1 2 5\n")
        code, out = run(capsys, "--max-nodes", "1000", "member", str(path), "1000 4990")
        assert code == 0
        assert "witness: 2 0 0 998\n" in out

    def test_outside_cone_is_not_searched(self, capsys, tmp_path):
        # 5001 / 1000 is beyond the steepest column (1, 5), but the point is
        # nonnegative, so only the cone test keeps the search from running
        path = tmp_path / "n2c.txt"
        path.write_text("2 4\n1 1 1 1\n0 1 2 5\n")
        code, out = run(capsys, "--max-nodes", "1000", "member", str(path), "1000 5001")
        assert code == 0
        assert "status: outside-cone\n" in out


class TestHermiteNormalForms:
    @pytest.mark.parametrize("command, extra, code", [
        ("fundamental", (), 10), ("holes", (), 10), ("saturation", (), 10),
        ("bound", (), 10), ("member", ("23",), 0)],
        ids=["fundamental", "holes", "saturation", "bound", "member"])
    def test_one_per_matrix(self, capsys, monkeypatch, tmp_path, command, extra, code):
        # the HNF of the matrix over the identity: the lattice basis, the
        # integer kernel of the Graver basis and every hole fiber read it
        path = tmp_path / "n1112.txt"
        path.write_text("1 2\n11 12\n")
        calls = []
        inner = intlinalg.hermite_normal_form
        monkeypatch.setattr(intlinalg, "hermite_normal_form",
                            lambda m: calls.append(m.rows) or inner(m))
        assert run(capsys, command, str(path), *extra)[0] == code
        assert calls == [3]


class TestTransport:
    def test_dims_and_margins(self, capsys, tmp_path):
        # the dimensions are read off the margins file, here 1x1x1
        margins = tmp_path / "m.txt"
        margins.write_text("5\n\n5\n\n5\n")
        code, out = run(capsys, "transport", "--margins", str(margins))
        assert code == 0
        assert "instance: 1 1 1\nmatrix-shape: 3 1\n" in out
        assert "integer-feasible: yes" in out
        assert "table:\n  5\n" in out

    @pytest.mark.parametrize("argv", [
        ("--dims", "3", "4", "6"), ("--dims", "0", "2", "2"),
        ("--dims", "2", "2", "2", "--margins", "/nonexistent.txt"),
        ("--vlach", "--dims", "3", "4", "6"),
    ], ids=["dims", "nonpositive", "with-margins", "with-vlach"])
    def test_dims_is_gone(self, capsys, monkeypatch, argv):
        # the margins file is the one place that gives the table dimensions
        def refuse(*args, **kwargs):
            raise AssertionError("a transport computation ran")
        monkeypatch.setattr(cli, "verify_vlach", refuse)
        monkeypatch.setattr(cli, "read_margins_file", refuse)
        with pytest.raises(SystemExit) as exc:
            main(["transport", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --dims" in captured.err
        with pytest.raises(SystemExit) as exc:
            main(["transport", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--margins" in help_text and "--dims" not in help_text

    @pytest.mark.parametrize("extra", [("--margins", "/nonexistent.txt")], ids=["margins"])
    def test_vlach_takes_no_dims_or_margins(self, capsys, monkeypatch, extra):
        # --vlach has its own margins, so another instance is bad input,
        # not an option to drop
        def refuse(*args, **kwargs):
            raise AssertionError("verify_vlach called")
        monkeypatch.setattr(cli, "verify_vlach", refuse)
        assert main(["transport", "--vlach", *extra]) == 2
        assert capsys.readouterr() == ("", "error: --vlach takes no --margins\n")

    def test_margins_infer_dims(self, capsys, tmp_path):
        margins = tmp_path / "m2.txt"
        margins.write_text("1 1\n1 1\n\n1 1\n1 1\n\n1 1\n1 1\n")
        code, out = run(capsys, "transport", "--margins", str(margins))
        assert code == 0
        assert "instance: 2 2 2" in out
        assert "integer-feasible: yes" in out

    def test_infeasible_margins(self, capsys, tmp_path):
        # the 3x4x6 margins that are real but not integer feasible
        m = vlach_margins()
        margins = tmp_path / "vl.txt"
        margins.write_text(margins_text(m.u, m.v, m.w))
        code, out = run(capsys, "transport", "--margins", str(margins))
        assert code == 10
        assert "integer-feasible: no" in out
        assert "real-feasible: yes" in out

    def test_a_wrong_table_exits_1(self, capsys, monkeypatch, tmp_path):
        # the table is summed again from its cells before it is printed
        search = transport.nonnegative_solution
        monkeypatch.setattr(transport, "nonnegative_solution",
                            lambda *args: move_one_unit(search(*args)))
        margins = tmp_path / "m2.txt"
        margins.write_text("1 1\n1 1\n\n1 1\n1 1\n\n1 1\n1 1\n")
        assert main(["transport", "--margins", str(margins)]) == 1
        assert capsys.readouterr() == (
            "", "error: table does not have the given margins\n")

    def test_margins_off_the_span_are_not_searched(self, capsys, tmp_path):
        # equal grand totals (85), but the one-dimensional margins disagree,
        # e.g. the j = 0 sums of u and w are 19 and 22
        margins = tmp_path / "off_span.txt"
        margins.write_text("8 2 5 4\n4 10 4 5\n5 3 4 8\n5 6 7 5\n\n"
                           "6 9 6 9\n9 5 7 5\n7 7 8 7\n\n"
                           "10 8 7 5\n6 7 3 10\n6 7 9 7\n")
        code, out = run(capsys, "--max-nodes", "1000", "transport", "--margins", str(margins))
        assert code == 10
        assert out.endswith("integer-feasible: no\nreal-feasible: no\nlimit-status: ok\n")


class TestErrorPaths:
    def test_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n0\n")
        assert main(["fundamental", str(path)]) == 2

    def test_missing_file(self, capsys):
        assert main(["fundamental", "/nonexistent/file.txt"]) == 2

    def test_non_pointed(self, capsys, tmp_path):
        path = tmp_path / "line.txt"
        path.write_text("1 2\n1 -1\n")
        assert main(["fundamental", str(path)]) == 3

    def test_resource_limit(self, capsys, example_file):
        assert main(["--max-nodes", "1", "holes", example_file]) == 4

    @pytest.mark.parametrize("argv, code", [
        (("--max-nodes", "33", "holes"), 4),
        (("--max-nodes", "34", "holes"), 10),
        (("--max-nodes", "6", "fundamental"), 4),
        (("--max-nodes", "7", "fundamental"), 10),
    ])
    def test_node_ceiling_is_exact(self, capsys, example_file, argv, code):
        # the Graver basis of A reduces 33 sums after its start, 34 states
        # (the hole ideal of (1,1) then needs 32 of its own); the fundamental holes
        # need the saturation basis, from 3 simplices with 2 + 1 + 1
        # parallelepiped points: one unit fewer is a resource limit,
        # never a wrong verdict
        assert main([*argv, example_file]) == code

    @pytest.mark.parametrize("matrix, pairs", [
        ("2 4\n1 1 1 1\n0 2 3 4\n", 7),
        ("2 4\n2 2 2 1\n-2 3 1 0\n", 19),
        ("1 2\n3 5\n", 8),
        ("1 2\n11 12\n", 44),
    ], ids=["example", "mxa", "ns35", "ns1112"])
    def test_pair_ceiling_is_exact(self, capsys, tmp_path, matrix, pairs):
        # max_pairs caps the standard pair cells of each hole ideal, pairs
        # and unit cells among them, and the ideal with the most cells
        # needs all of its own: one fewer is a resource limit, never fewer
        # cells
        path = tmp_path / "matrix.txt"
        path.write_text(matrix)
        assert main(["--max-pairs", str(pairs - 1), "holes", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resource limit exceeded: standard pair cells")
        assert main(["--max-pairs", str(pairs), "holes", str(path)]) == 10

    def test_hole_fiber_node_ceiling_is_exact(self, capsys, tmp_path):
        # [[2,2,2,1],[-2,3,1,0]] has three fundamental holes; they need 11
        # states and the Graver basis 72, and one of the hole ideals needs 80
        path = tmp_path / "mxa.txt"
        path.write_text("2 4\n2 2 2 1\n-2 3 1 0\n")
        assert main(["--max-nodes", "79", "holes", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resource limit exceeded: completion search")
        assert main(["--max-nodes", "80", "holes", str(path)]) == 10

    @pytest.mark.parametrize("argv, code", [
        (("--max-basis", "9", "holes"), 4),
        (("--max-basis", "10", "holes"), 10),
    ])
    def test_basis_ceiling_is_exact(self, capsys, example_file, argv, code):
        # the Graver completion of A holds 10 vectors, all of them in the
        # Graver basis, more than any other search of the run finds
        assert main([*argv, example_file]) == code

    def test_usage_error_repeats_with_one_parser(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["bogus"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("usage: monoid-holes")
        assert main(["--max-nodes", "1", "fundamental", "/nonexistent/file.txt"]) == 2
        assert len(built) == 1

    def test_bad_vector(self, capsys, example_file):
        assert main(["member", example_file, "1,2,3"]) == 2

    def test_deep_table_is_answered(self, tmp_path):
        # a long 2x2xt table branches on hundreds of cells in a row, and its
        # search still answers under a recursion limit of 60
        rng = random.Random(7)
        r, s, t = 2, 2, 400
        table = [[[rng.randint(0, 2) for _ in range(t)] for _ in range(s)] for _ in range(r)]
        u, v, w = margin_lists(r, s, t, table)
        margins = tmp_path / "long.txt"
        margins.write_text(margins_text(u, v, w))
        code = ("import sys; from monoid_holes.cli import main; "
                "sys.setrecursionlimit(60); sys.exit(main(sys.argv[1:]))")
        src = str(Path(monoid_holes.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-c", code, "transport", "--margins", str(margins)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0
        out = proc.stdout.splitlines()
        assert "integer-feasible: yes" in out
        rows = out[out.index("table:") + 1:out.index("limit-status: ok")]
        assert rows[s] == "  -"
        found = [[[int(x) for x in row.split()] for row in rows[i * (s + 1):i * (s + 1) + s]]
                 for i in range(r)]
        assert margin_lists(r, s, t, found) == (u, v, w)

    def test_memory_exhaustion_is_a_resource_limit(self, capsys, example_file, monkeypatch):
        def exhausted(args, limits):
            raise MemoryError
        monkeypatch.setitem(cli._COMMANDS, "member", exhausted)
        assert main(["member", example_file, "1 1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_interrupt_is_a_resource_limit(self, capsys, example_file, monkeypatch):
        def interrupted(args, limits):
            raise KeyboardInterrupt
        monkeypatch.setitem(cli._COMMANDS, "holes", interrupted)
        assert main(["holes", example_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: interrupted\n"

    @pytest.mark.parametrize("error, code, message", [
        (MatrixParseError("bad token"), 2, "bad token"),
        (NotPointedError("cone contains a line"), 3, "cone contains a line"),
        (ResourceLimitError("search states", 5), 4,
         "resource limit exceeded: search states (limit 5)"),
        (RecursionError("maximum recursion depth exceeded"), 4,
         "resource limit exceeded: recursion depth"),
        (MemoryError(), 4, "resource limit exceeded: memory"),
        (KeyboardInterrupt(), 4, "interrupted"),
        (RankDeficientError("matrix must have full row rank"), 1,
         "matrix must have full row rank"),
        (MonoidHolesError("cross-check failed"), 1, "cross-check failed"),
    ], ids=lambda v: type(v).__name__ if isinstance(v, BaseException) else None)
    def test_failure_table(self, capsys, example_file, monkeypatch, error, code, message):
        # every failure kind: its exit code, one stderr line, no report
        def failing(args, limits):
            raise error
        monkeypatch.setitem(cli._COMMANDS, "holes", failing)
        assert main(["holes", example_file]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, code, message", [
        (("fundamental", "/nonexistent/file.txt"), 2,
         "cannot read /nonexistent/file.txt: [Errno 2] No such file or directory: "
         "'/nonexistent/file.txt'"),
        (("member", "{example}", "1,2,3"), 2, "vector has 3 entries, expected 2"),
        # the vector is read before the cone is built
        (("member", "{line}", "1 2"), 2, "vector has 2 entries, expected 1"),
        (("fundamental", "{line}"), 3, "cone contains a line; no strictly positive functional"),
        (("--max-nodes", "1", "holes", "{example}"), 4,
         "resource limit exceeded: triangulation simplices and parallelepiped points (limit 1)"),
        (("transport", "--margins", "{example}"), 2,
         "{example}: expected three margin blocks, got 1"),
        (("holes", "{token}"), 2,
         "{token}: non-integer token: invalid literal for int() with base 10: 'x'"),
        (("holes", "{header}"), 2, "{header}: expected a 'rows cols' header"),
        (("holes", "{empty}"), 2, "{empty}: dimensions must be positive"),
        (("transport", "--margins", "{ragged}"), 2, "{ragged}: ragged margin block"),
        (("member", "{example}", "1 x"), 2,
         "bad vector literal '1 x': invalid literal for int() with base 10: 'x'"),
        (("transport",), 2, "transport needs --vlach or --margins"),
    ], ids=["missing-file", "bad-vector", "vector-first", "not-pointed", "ceiling", "margins",
            "token", "header", "nonpositive-dims", "ragged", "bad-literal", "no-instance"])
    def test_failure_messages(self, capsys, tmp_path, example_file, argv, code, message):
        files = {"example": example_file}
        for name, text in [("line", "1 2\n1 -1\n"), ("token", "2 2\n1 x 3 4\n"),
                           ("header", "5\n"), ("empty", "0 2\n"),
                           ("ragged", "1 1\n1\n\n1\n\n1\n")]:
            files[name] = str(tmp_path / f"{name}.txt")
            Path(files[name]).write_text(text)
        assert main([a.format(**files) for a in argv]) == code
        assert capsys.readouterr() == ("", f"error: {message.format(**files)}\n")

    @pytest.mark.parametrize("argv", [("holes",), ("transport", "--margins")])
    def test_file_not_utf8_is_bad_input(self, capsys, tmp_path, argv):
        # a UTF-16 byte-order mark is not UTF-8: one error line, not a traceback
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe2 4\n")
        assert main([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_closed_stdout_exits_1_without_traceback(self, example_file):
        # the read end of the pipe is closed before the command writes
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(monoid_holes.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "monoid_holes.cli", "holes", example_file],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr

    # 2>&- leaves the interpreter no stderr (sys.stderr is None); 2</dev/null
    # leaves it one open for reading only, whose writes fail, as a wrapper
    # script's descriptor that took over fd 2 does
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
    @pytest.mark.parametrize("argv, code, out", [
        (("member", "{example}", "1 1"), 10,
         "command: member\ninput-matrix: 2 4\n  1 1 1 1\n  0 2 3 4\nvector: 1 1\n"
         "status: hole\nlimit-status: ok\n"),
        (("holes", "{utf16}"), 2, ""),
    ], ids=["member", "not-utf8"])
    def test_unwritable_stderr_keeps_the_exit_code(self, tmp_path, example_file,
                                                   redirect, argv, code, out):
        utf16 = tmp_path / "utf16.txt"
        utf16.write_bytes(b"\xff\xfe2 4\n")
        files = {"example": example_file, "utf16": str(utf16)}
        src = str(Path(monoid_holes.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "monoid_holes.cli",
             *(a.format(**files) for a in argv)],
            stdout=subprocess.PIPE, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert "Traceback" not in proc.stdout


class TestLimitsConfiguration:
    @pytest.mark.parametrize("value", ["max_nodes=1", "max_warp=9", "max_pairs=0"])
    def test_env_var_is_not_read(self, capsys, example_file, monkeypatch, value):
        # the --max-... flags are the only way to set a ceiling: a low, an
        # unknown or a nonpositive ceiling in the environment changes nothing
        monkeypatch.setenv("MONOID_HOLES_LIMITS", value)
        assert run(capsys, "holes", example_file) == GOLDEN[("example", "holes")]

    def test_flag_overrides_env(self, capsys, example_file, monkeypatch):
        # the flag's ceiling applies, whatever the environment holds
        monkeypatch.setenv("MONOID_HOLES_LIMITS", "max_nodes=1")
        assert main(["--max-nodes", "10000000", "holes", example_file]) == 10

    @pytest.mark.parametrize("argv", [("--max-nodes", "-3"), ("--max-pairs", "0"),
                                      ("--max-basis", "0")])
    def test_nonpositive_flag_is_bad_input(self, capsys, example_file, argv):
        assert main([*argv, "holes", example_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: limit ")

    def test_lp_stride_is_gone(self, capsys, example_file):
        with pytest.raises(SystemExit) as exc:
            main(["--lp-stride", "5", "holes", example_file])
        assert exc.value.code == 2

    def test_jobs_is_gone(self, capsys, example_file):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "2", "holes", example_file])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        assert "--jobs" not in build_parser().format_help()

    def test_limits_reject_nonpositive_ceilings(self):
        for name in Limits._fields:
            with pytest.raises(ValueError, match=name):
                Limits(**{name: 0})
        assert Limits(max_nodes=1).max_nodes == 1

    @pytest.mark.parametrize("value", [2.5, 2.0, "5"])
    def test_limits_reject_non_integers(self, value):
        # a float or a str fails when the Limits is built, not in a comparison later
        with pytest.raises(TypeError):
            Limits(max_nodes=value)
        with pytest.raises(TypeError):
            Limits(max_pairs=value)

    def test_limits_change_only_exhaustion(self, capsys, ns35_file):
        # a generous explicit ceiling must not change the answer
        code1, out1 = run(capsys, "holes", ns35_file)
        code2, out2 = run(capsys, "--max-nodes", "999999", "holes", ns35_file)
        assert (code1, out1) == (code2, out2)


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("fundamental",), ("holes",), ("saturation",), ("bound",),
    ])
    def test_reruns_byte_identical(self, capsys, example_file, argv):
        code1, out1 = run(capsys, *argv, example_file)
        code2, out2 = run(capsys, *argv, example_file)
        assert code1 == code2
        assert out1 == out2


EXAMPLE_HEADER = """input-matrix: 2 4
  1 1 1 1
  0 2 3 4
"""

MIXED_HEADER = """input-matrix: 2 4
  2 2 2 1
  -2 3 1 0
"""

VLACH = vlach_margins()
VLACH_VECTOR = ("1 0 1 0 1 0 0 1 1 0 0 1 0 1 0 1 1 0 1 0 0 1 0 1 1 1 1 1 0 0 1 1 0 0 1 1 "
                "0 0 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1")

GOLDEN = {
    ("example", "fundamental"): (10, "command: fundamental\n" + EXAMPLE_HEADER + """\
lattice-rank: 2
hilbert-basis-size: 5
hilbert-basis:
  1 0
  1 1
  1 2
  1 3
  1 4
basis-holes-size: 1
basis-holes:
  1 1
fundamental-holes-size: 1
fundamental-holes:
  1 1
verdict: holes-exist
limit-status: ok
"""),
    ("example", "holes"): (10, "command: holes\n" + EXAMPLE_HEADER + """\
fundamental-holes-size: 1
fundamental-holes:
  1 1
cells-size: 1
cells:
  1 1 | 1 0
hole-set: infinite
limit-status: ok
"""),
    ("example", "saturation"): (10, "command: saturation\n" + EXAMPLE_HEADER + """\
ideal-generators-size: 3
ideal-generators:
  0 0 0 1
  0 0 1 0
  0 1 0 0
saturation-points-size: 3
saturation-points:
  1 2
  1 3
  1 4
verdict: holes-exist
limit-status: ok
"""),
    ("example", "bound"): (10, "command: bound\n" + EXAMPLE_HEADER + """\
bound-components: 3 9 4
bound: 972
certificate-hole: 975 1
verdict: holes-infinite
limit-status: ok
"""),
    ("mixed", "saturation"): (10, "command: saturation\n" + MIXED_HEADER + """\
ideal-generators-size: 6
ideal-generators:
  0 0 0 3
  0 0 1 1
  0 0 2 0
  0 1 0 2
  1 0 1 0
  1 1 0 0
saturation-points-size: 5
saturation-points:
  3 0
  3 1
  4 -1
  4 2
  4 3
verdict: holes-exist
limit-status: ok
"""),
    ("mixed", "holes"): (10, "command: holes\n" + MIXED_HEADER + """\
fundamental-holes-size: 3
fundamental-holes:
  1 -1
  1 1
  2 2
cells-size: 9
cells:
  1 -1 | 2 3
  1 1 | 2 3
  2 -1 | 2 -2
  2 2 | 2 3
  3 -3 | 2 -2
  3 -1 | 2 -2
  3 -1 | 2 -2
  3 2 | 2 3
  3 2 | 2 3
hole-set: infinite
limit-status: ok
"""),
    ("mixed", "member", "5 5"): (10, "command: member\n" + MIXED_HEADER + """\
vector: 5 5
status: hole
limit-status: ok
"""),
    ("ns35", "bound"): (10, """\
command: bound
input-matrix: 1 2
  3 5
bound-components: 2 8 5
bound: 640
holes-size: 4
holes:
  1
  2
  4
  7
max-hole-entry: 7
verdict: holes-finite
limit-status: ok
"""),
    ("ns35", "holes"): (10, """\
command: holes
input-matrix: 1 2
  3 5
fundamental-holes-size: 2
fundamental-holes:
  1
  2
cells-size: 5
cells:
  1 |
  2 |
  4 |
  7 |
  7 |
hole-set: finite
limit-status: ok
"""),
    ("identity", "bound"): (0, """\
command: bound
input-matrix: 2 2
  1 0
  0 1
bound-components: 3 1 1
bound: 3
holes-size: 0
holes:
verdict: holes-finite-empty
limit-status: ok
"""),
    ("example", "member", "1 2"): (0, "command: member\n" + EXAMPLE_HEADER + """\
vector: 1 2
status: in-semigroup
witness: 0 1 0 0
limit-status: ok
"""),
    ("example", "member", "1 5"): (0, "command: member\n" + EXAMPLE_HEADER + """\
vector: 1 5
status: outside-cone
limit-status: ok
"""),
    ("even", "member", "3001 1501"): (0, """\
command: member
input-matrix: 2 4
  2 4 6 10
  0 2 4 10
vector: 3001 1501
status: outside-lattice
limit-status: ok
"""),
    # transport keys: the margins file (or None), then the arguments
    # before it
    ("2x2x2", "transport", "--margins"): (0, """\
command: transport
instance: 2 2 2
matrix-shape: 12 8
margin-vector: 1 1 1 1 1 1 1 1 1 1 1 1
integer-feasible: yes
table:
  1 0
  0 1
  -
  0 1
  1 0
limit-status: ok
"""),
    ("vlach", "transport", "--margins"): (10, f"""\
command: transport
instance: 3 4 6
matrix-shape: 54 72
margin-vector: {VLACH_VECTOR}
integer-feasible: no
real-feasible: yes
limit-status: ok
"""),
    (None, "transport", "--vlach"): (10, f"""\
command: transport
instance: 3 4 6
margin-vector: {VLACH_VECTOR}
support-size: 24
support:
  0 0 0
  0 0 2
  0 1 1
  0 1 2
  0 2 1
  0 2 3
  0 3 0
  0 3 3
  1 0 0
  1 0 4
  1 1 1
  1 1 5
  1 2 1
  1 2 4
  1 3 0
  1 3 5
  2 0 2
  2 0 4
  2 1 2
  2 1 5
  2 2 3
  2 2 4
  2 3 3
  2 3 5
witnesses-size: 48
flag-unique-real-solution: true
flag-margin-is-hole: true
flag-margin-is-fundamental: true
flag-holes-are-margin-plus-support-monoid: true
limit-status: ok
"""),
}


class TestGoldenOutput:
    """Exact stdout and exit code, so a refactor cannot change a report
    unnoticed."""

    MATRICES = {"example": "2 4\n1 1 1 1\n0 2 3 4\n",
                "mixed": "2 4\n2 2 2 1\n-2 3 1 0\n",
                "ns35": "1 2\n3 5\n",
                "identity": "2 2\n1 0\n0 1\n",
                "even": "2 4\n2 4 6 10\n0 2 4 10\n"}
    MARGINS = {"2x2x2": "1 1\n1 1\n\n1 1\n1 1\n\n1 1\n1 1\n",
               "vlach": margins_text(VLACH.u, VLACH.v, VLACH.w)}

    @pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(filter(None, k)))
    def test_report_bytes(self, capsys, tmp_path, key):
        name, command, *rest = key
        if command == "transport":
            argv = [command, *rest]
            if name is not None:
                path = tmp_path / f"{name}.txt"
                path.write_text(self.MARGINS[name])
                argv.append(str(path))
        else:
            path = tmp_path / f"{name}.txt"
            path.write_text(self.MATRICES[name])
            argv = [command, str(path), *rest]
        assert run(capsys, *argv) == GOLDEN[key]

    # argv that the parser refuses: exit 2, nothing on stdout, and the
    # last line of stderr (the usage lines above it wrap with the terminal)
    REFUSALS = {
        ("transport", "--dims", "3", "4", "6"):
            "monoid-holes: error: unrecognized arguments: --dims 3 4 6\n",
    }

    @pytest.mark.parametrize("argv", list(REFUSALS), ids="-".join)
    def test_refusal_bytes(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines(keepends=True)[-1] == self.REFUSALS[argv]


class TestCeilings:
    """A ceiling, however low, ends a run in exit 4 with nothing on stdout,
    or the run gives the exact answer: it never turns into a wrong
    verdict."""

    @staticmethod
    def assert_limit_or_answer(capsys, argv, answer):
        code = main(argv)
        captured = capsys.readouterr()
        if code == 4:
            assert captured.out == ""
            assert captured.err.startswith("error: resource limit exceeded")
        else:
            assert (code, captured.out) == answer

    @pytest.mark.parametrize("command", ["fundamental", "holes", "saturation", "bound"])
    @pytest.mark.parametrize("value", ["1", "2"])
    @pytest.mark.parametrize("flag", ["--max-basis", "--max-pairs", "--max-subsets",
                                      "--max-rays", "--max-nodes"])
    def test_running_example(self, capsys, tmp_path, flag, value, command):
        path = tmp_path / "example.txt"
        path.write_text(TestGoldenOutput.MATRICES["example"])
        self.assert_limit_or_answer(capsys, [flag, value, command, str(path)],
                                    GOLDEN[("example", command)])

    @pytest.mark.parametrize("margins", [
        "1 1\n1 1\n\n1 1\n1 1\n\n1 1\n1 1\n",   # a table exists
        None,                                   # the 3x4x6 hole
    ], ids=["2x2x2", "3x4x6"])
    def test_transport_margins(self, capsys, tmp_path, margins):
        if margins is None:
            m = vlach_margins()
            margins = margins_text(m.u, m.v, m.w)
        path = tmp_path / "margins.txt"
        path.write_text(margins)
        answer = run(capsys, "transport", "--margins", str(path))
        self.assert_limit_or_answer(
            capsys, ["--max-nodes", "1", "transport", "--margins", str(path)], answer)
