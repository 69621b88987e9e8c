import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fopsolve as fs
from fopsolve import cli, recurrences, solver


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# generators and ingestion
# ---------------------------------------------------------------------------

def test_generator_identity():
    m, meta = cli.build_generator("identity:4")
    assert np.allclose(m.to_dense(), np.eye(4))
    assert meta["source"] == "gen:identity:4"


def test_generator_diag_and_tridiag():
    m, _ = cli.build_generator("diag:1,2,3")
    assert np.allclose(np.diag(m.to_dense()), [1.0, 2.0, 3.0])
    t, _ = cli.build_generator("tridiag:3")
    assert np.allclose(t.to_dense(), [[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_generator_randsdd_is_diagonally_dominant():
    m, _ = cli.build_generator("randsdd:8,3")
    a = m.to_dense()
    off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
    assert np.all(np.abs(np.diag(a)) > off - 1e-12)


def test_generator_bad_descriptor():
    with pytest.raises(cli.UsageError):
        cli.build_generator("hilbert:4")
    with pytest.raises(cli.UsageError):
        cli.build_generator("identity:x")


def test_matrix_market_round_trip(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment line\n"
        "3 3 4\n"
        "1 1 2.0\n"
        "2 2 1.5\n"
        "3 3 1.0\n"
        "1 3 -0.5\n"
    )
    m = cli.read_matrix_market(str(path))
    ref = np.array([[2.0, 0.0, -0.5], [0.0, 1.5, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(m.to_dense(), ref)


def test_matrix_market_errors_name_offending_line(tmp_path):
    bad_header = tmp_path / "h.mtx"
    bad_header.write_text("%%MatrixMarket matrix array real general\n2 2\n")
    with pytest.raises(cli.InputError, match=":1:"):
        cli.read_matrix_market(str(bad_header))

    bad_entry = tmp_path / "e.mtx"
    bad_entry.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 oops 3.0\n"
    )
    with pytest.raises(cli.InputError, match=":3:"):
        cli.read_matrix_market(str(bad_entry))

    out_of_range = tmp_path / "r.mtx"
    out_of_range.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "3 1 1.0\n"
    )
    with pytest.raises(cli.InputError, match=":3:"):
        cli.read_matrix_market(str(out_of_range))


@pytest.mark.parametrize("banner", [
    "%%MatrixMarket MATRIX Coordinate Real General", "%%MatrixMarket  matrix coordinate\treal   general",
    "%%MatrixMarket matrix coordinate real general extra",
])
def test_matrix_market_banner_reads_as_the_reference_reader_does(tmp_path, banner):
    # Qualifiers in any case and words split by any run of whitespace, as
    # mmio.c's mm_read_banner accepts them; words after the four are ignored.
    path = tmp_path / "m.mtx"
    path.write_text(f"{banner}\n2 2 2\n1 1 2.0\n2 2 4.0\n")
    assert np.array_equal(cli.read_matrix_market(str(path)).to_dense(), np.diag([2.0, 4.0]))


@pytest.mark.parametrize("banner", [
    "%%MatrixMarket matrix coordinate real generalized", "%%MatrixMarket matrix coordinate real",
    "%%matrixmarket matrix coordinate real general", "%%MatrixMarketmatrix coordinate real general",
])
def test_matrix_market_banner_must_name_the_general_coordinate_format(tmp_path, banner):
    # A qualifier that only begins with the expected word is another format,
    # and the first word is `%%MatrixMarket` exactly.
    path = tmp_path / "m.mtx"
    path.write_text(f"{banner}\n2 2 2\n1 1 2.0\n2 2 4.0\n")
    with pytest.raises(cli.InputError, match=":1: header"):
        cli.read_matrix_market(str(path))


def test_rhs_specs(tmp_path):
    assert np.array_equal(cli.build_rhs("ones", 3), np.ones(3))
    r1 = cli.build_rhs("rand:7", 5)
    r2 = cli.build_rhs("rand:7", 5)
    assert np.array_equal(r1, r2)
    p = tmp_path / "b.txt"
    p.write_text("1.0 2.0\n3.0\n")
    assert np.array_equal(cli.build_rhs(f"file:{p}", 3), [1.0, 2.0, 3.0])
    with pytest.raises(cli.InputError):
        cli.build_rhs(f"file:{p}", 4)
    with pytest.raises(cli.UsageError):
        cli.build_rhs("zeros", 3)
    with pytest.raises(cli.UsageError):
        cli.build_rhs("rand:-1", 3)


# ---------------------------------------------------------------------------
# solve command
# ---------------------------------------------------------------------------

def test_cmd_solve_identity_exit_zero(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run(["solve", "--gen", "identity:8", "--rhs", "ones",
                "--report", str(report)])
    assert code == cli.EXIT_CONVERGED
    doc = json.loads(report.read_text())
    assert doc["status"] == "Converged"
    assert doc["iterations"] <= 1
    assert doc["matrix"]["rows"] == 8


def test_cmd_solve_tridiag_history_and_solution(tmp_path):
    report = tmp_path / "report.json"
    history = tmp_path / "history.csv"
    solution = tmp_path / "x.txt"
    code = run(["solve", "--gen", "tridiag:16", "--rhs", "ones", "--tol", "1e-8",
                "--report", str(report), "--history", str(history),
                "--solution", str(solution)])
    assert code == cli.EXIT_CONVERGED

    with open(history, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "residual_norm", "event"]
    ks = [int(r[0]) for r in rows[1:] if r[2] in ("bootstrap", "step")]
    assert ks == sorted(ks) and len(set(ks)) == len(ks)

    x = np.array([float(line) for line in solution.read_text().split()])
    a = fs.Matrix.tridiagonal(16).to_dense()
    x_direct = np.linalg.solve(a, np.ones(16))
    assert np.abs(x - x_direct).max() <= 1e-6


def test_cmd_solve_report_round_trips(tmp_path):
    report = tmp_path / "report.json"
    run(["solve", "--gen", "diag:1,2,3,4", "--rhs", "rand:5", "--report", str(report)])
    text = report.read_text().rstrip("\n")
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) == text


def test_cmd_solve_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        report = tmp_path / f"report_{tag}.json"
        history = tmp_path / f"history_{tag}.csv"
        code = run(["solve", "--gen", "randsdd:10,4", "--rhs", "rand:9",
                    "--seed", "7", "--report", str(report), "--history", str(history)])
        assert code == cli.EXIT_CONVERGED
        outs.append((report.read_bytes(), history.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, code, status", [
    (["--gen", "tridiag:100", "--rhs", "ones"], cli.EXIT_MAX_ITERATIONS, "MaxIterations"),
    (["--gen", "tridiag:30", "--rhs", "rand:1", "--max-restarts", "0"], cli.EXIT_BREAKDOWN, "BreakdownExhausted"),
])
def test_cmd_solve_exit_code_names_the_status(tmp_path, argv, code, status):
    report = tmp_path / "report.json"
    assert run(["solve", *argv, "--report", str(report)]) == code
    assert json.loads(report.read_text())["status"] == status


def test_cmd_solve_exits_zero_when_a_residual_norm_passes_the_double_range(tmp_path):
    # ||b|| = sqrt(5) * 1e308 overflows, the solution x = b does not: the
    # history gives that norm as inf and the solve converges.
    rhs, history, solution = tmp_path / "b.txt", tmp_path / "history.csv", tmp_path / "x.txt"
    rhs.write_text("1e308\n" * 5)
    code = run(["solve", "--gen", "identity:5", "--rhs", f"file:{rhs}",
                "--history", str(history), "--solution", str(solution)])
    assert code == cli.EXIT_CONVERGED == 0
    with open(history, newline="") as fh:
        assert list(csv.reader(fh))[1] == ["0", "inf", "bootstrap"]
    assert np.array_equal(np.loadtxt(solution), np.full(5, 1e308))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cmd_solve_nonfinite_rhs_file_is_an_input_error(tmp_path, capsys, bad):
    rhs = tmp_path / "b.txt"
    rhs.write_text(f"1 {bad} 3\n")
    assert run(["solve", "--gen", "tridiag:3", "--rhs", f"file:{rhs}"]) == cli.EXIT_INPUT
    assert str(rhs) in capsys.readouterr().err


def test_cmd_solve_missing_matrix_file():
    assert run(["solve", "--matrix", "does_not_exist.mtx"]) == cli.EXIT_INPUT


def test_cmd_solve_matrix_file_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.mtx"
    path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n% caf\xe9\n1 1 1\n1 1 2.0\n")
    assert run(["solve", "--matrix", str(path)]) == cli.EXIT_INPUT
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("descriptor", ["randsdd:0", "randsdd:0,4", "randsdd:-3"])
def test_cmd_solve_empty_randsdd_is_a_usage_error_without_warnings(capsys, descriptor):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["solve", "--gen", descriptor]) == cli.EXIT_USAGE
    assert caught == []
    assert "usage error" in capsys.readouterr().err


def _out_of_memory(shape):
    """Fail as numpy does when an array will not fit."""
    raise MemoryError(f"Unable to allocate an array with shape {shape} and data type float64")


class _OutOfMemoryRng:
    def standard_normal(self, shape):
        _out_of_memory(shape)


@pytest.mark.parametrize("descriptor, target, name, patch", [
    ("identity:1000000", np, "eye", lambda n: _out_of_memory((n, n))),
    ("randsdd:1000000", np.random, "default_rng", lambda seed: _OutOfMemoryRng()),
], ids=["identity", "randsdd"])
def test_cmd_solve_generator_out_of_memory_is_a_usage_error(monkeypatch, capsys, descriptor, target, name, patch):
    # The dense allocation is patched to fail: the test never asks for the memory.
    monkeypatch.setattr(target, name, patch)
    assert run(["solve", "--gen", descriptor]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error" in err and repr(descriptor) in err and "(1000000, 1000000)" in err


def _ones_out_of_memory(n):
    """np.ones that fails for the one huge right-hand side, as numpy does when
    an array will not fit; every other call is numpy's own."""
    if n == 100000000000:
        _out_of_memory((n,))
    return _numpy_ones(n)


_numpy_ones = np.ones
HUGE_SIZE_LINE = "100000000000 100000000000 1"


@pytest.mark.parametrize("source", ["gen", "file"])
def test_cmd_solve_right_hand_side_out_of_memory_is_a_usage_error(tmp_path, monkeypatch, capsys, source):
    # The allocation of b is patched to fail: the test never asks for the memory.
    monkeypatch.setattr(np, "ones", _ones_out_of_memory)
    path = tmp_path / "huge.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n{HUGE_SIZE_LINE}\n1 1 1.0\n")
    argv = ["solve", "--gen", "tridiag:100000000000"] if source == "gen" else ["solve", "--matrix", str(path)]
    assert run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert "n = 100000000000" in err and "(100000000000,)" in err


def test_cmd_solve_out_of_memory_in_the_solve_is_a_usage_error(monkeypatch, capsys):
    def solve(A, b, config):
        _out_of_memory((7, len(b)))

    monkeypatch.setattr(solver, "solve", solve)
    assert run(["solve", "--gen", "tridiag:30"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1 and "n = 30" in err


@pytest.mark.parametrize("source, code", [
    ("--gen tridiag:2000000000000000000", cli.EXIT_USAGE),
    ("--gen tridiag:100000000000000000000", cli.EXIT_USAGE),
    ("--matrix {path}", cli.EXIT_INPUT),
], ids=["array-too-big", "dimension-past-int64", "size-line-past-int64"])
def test_cmd_solve_dimension_numpy_cannot_size_is_rejected(tmp_path, capsys, source, code):
    # Each is rejected when the matrix is built, before anything is allocated.
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 10000000000000000000 1\n1 1 1.0\n")
    assert run(["solve", *source.format(path=path).split()]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid shape" in err


def test_cmd_solve_usage_errors():
    assert run(["solve"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "identity:4", "--matrix", "x.mtx"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "nope:4"]) == cli.EXIT_USAGE
    assert run(["nonsense"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "identity:4", "--tol", "-1"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "identity:4", "--max-iter", "0"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "identity:4", "--max-restarts", "-1"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["--gen", "tridiag:4", "--seed", "-1"],
    ["--gen", "tridiag:4", "--rhs", "rand:-1"],
    ["--gen", "randsdd:5,-2"],
])
def test_cmd_solve_negative_seeds_are_usage_errors(capsys, argv):
    assert run(["solve", *argv]) == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "1e400"])
def test_cmd_solve_nonfinite_tol_is_a_usage_error(capsys, tol):
    assert run(["solve", "--gen", "tridiag:12", "--tol", tol]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1 and "Traceback" not in err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cmd_solve_report_is_strict_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run(["solve", "--gen", "tridiag:12", "--report", str(report)]) == cli.EXIT_CONVERGED
    printed = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert json.loads(report.read_text(), parse_constant=_no_constant) == printed
    assert printed["config"] == {"tol": 1e-8, "max_iter": None, "max_restarts": 5,
                                 "breakdown_eps": 1e-12, "seed": 0}


@pytest.mark.parametrize("flag", ["--report", "--history", "--solution"])
def test_cmd_solve_unwritable_output_is_an_input_error(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "out"
    assert run(["solve", "--gen", "identity:4", flag, str(path)]) == cli.EXIT_INPUT
    assert str(path) in capsys.readouterr().err


def test_cmd_solve_from_matrix_market(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n"
        "1 1 2.0\n"
        "2 2 4.0\n"
    )
    report = tmp_path / "r.json"
    code = run(["solve", "--matrix", str(path), "--rhs", "ones", "--report", str(report)])
    assert code == cli.EXIT_CONVERGED
    doc = json.loads(report.read_text())
    assert doc["matrix"]["nnz"] == 2


def test_cmd_solve_matrix_market_file_without_entries_ends_on_breakdown(tmp_path, capsys):
    # A valid file: the zero matrix, whose every bootstrap breaks down.
    path = tmp_path / "empty.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 0\n")
    assert run(["solve", "--matrix", str(path)]) == cli.EXIT_BREAKDOWN == 2
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert json.loads(out)["status"] == "BreakdownExhausted"


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_cmd_verify_consensus(tmp_path, capsys):
    report = tmp_path / "verify.json"
    code = run(["verify", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "all_ok: True" in out
    doc = json.loads(report.read_text())
    by_form = {row["form"]: row for row in doc["forms"]}
    assert by_form["A13"]["exists_consensus"] is True
    assert by_form["A11"]["exists_consensus"] is False
    assert by_form["B13"]["median_residual"] < 1e-8
    assert doc["all_ok"] is True


def test_verify_json_round_trip(tmp_path):
    report = tmp_path / "verify.json"
    run(["verify", "--report", str(report)])
    text = report.read_text().rstrip("\n")
    doc = json.loads(text)
    assert json.dumps(doc, sort_keys=True, indent=2) == text


def test_cmd_verify_without_report_prints_the_json_after_the_table(capsys):
    assert run(["verify"]) == 0
    table, _, text = capsys.readouterr().out.partition("all_ok: True\n")
    assert table.startswith("form ") and len(table.splitlines()) == 1 + len(recurrences.FORMS)
    assert text == json.dumps(cli.run_verification(), sort_keys=True, indent=2) + "\n"


def test_run_verification_with_every_form_skipped():
    # The Hankel systems of 4 x 4 fixtures are singular by degree 5, so every
    # fit is skipped and no form reaches a consensus.
    doc = cli.run_verification(seeds=2, n=4)
    assert doc["fixtures"] == {"count": 2, "n": 4, "degree": cli.VERIFY_DEGREE}
    assert [row["form"] for row in doc["forms"]] == sorted(recurrences.FORMS)
    for row in doc["forms"]:
        assert row == {"form": row["form"], "runs": 0, "skipped": 2, "exists_consensus": None,
                       "median_residual": None, "expected_exists": cli.VERIFY_EXPECTED[row["form"]], "ok": False}
    assert doc["all_ok"] is False
    assert json.loads(json.dumps(doc, sort_keys=True, indent=2), parse_constant=_no_constant) == doc


def test_cmd_verify_unwritable_report_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "verify.json"
    assert run(["verify", "--report", str(path)]) == cli.EXIT_INPUT
    assert str(path) in capsys.readouterr().err


REPORTING_ARGV = [["verify", "--report", "report.json"],
                  ["solve", "--gen", "tridiag:16", "--seed", "3", "--report", "report.json"]]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", REPORTING_ARGV)
def test_a_closed_standard_output_is_an_input_error(tmp_path, argv, unbuffered):
    # A pipe whose read end is closed before the child starts: its first print
    # fails, buffered or not, and the command stops there, before its --report.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "fopsolve", *argv], stdout=write_end, stderr=subprocess.PIPE,
                              cwd=tmp_path, env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == cli.EXIT_INPUT
    assert done.stderr.startswith("input error: standard output: cannot write (")
    assert done.stderr.count("\n") == 1  # no traceback, and no "Exception ignored" at exit
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", REPORTING_ARGV)
def test_a_standard_output_closed_at_start_is_an_input_error(tmp_path, argv):
    # File descriptor 1 closed before exec: Python sets sys.stdout to None,
    # where print would drop the text and the command exit 0.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "fopsolve", *argv],
                          stderr=subprocess.PIPE, cwd=tmp_path, env=env, text=True, timeout=120)
    assert done.returncode == cli.EXIT_INPUT
    assert done.stderr.startswith("input error: standard output: cannot write (")
    assert done.stderr.count("\n") == 1  # no traceback
    assert not (tmp_path / "report.json").exists()


# ---------------------------------------------------------------------------
# Matrix Market fuzz
# ---------------------------------------------------------------------------

MM_HEADER = "%%MatrixMarket matrix coordinate real general"
MM_VALID = [MM_HEADER, "% a 3x3 stencil", "3 3 7",
            "1 1 2.0", "2 2 2.0", "3 3 2.0", "1 2 -1.0", "2 3 -1.0", "2 1 -1.0", "3 2 -1.0"]
MM_SIZE_AT = 2
# Sizes stay at 64 or below, or past what numpy can size, so that no case
# allocates more than a few vectors of 64 rows.
MM_HUGE = np.iinfo(np.intp).max // 8 + 1
MM_SIZES = ["1", "2", "3", "4", "64", "0", "-1", "-3", str(MM_HUGE), str(2**63), str(2**64), str(10**30),
            "3.0", "1e2", "x", "", "0x3", "+3", "3_0"]
MM_INDICES = ["1", "3", "0", "-1", "4", "65", str(2**63), str(2**64), str(10**30), "1.0", "i", "", "-0"]
MM_VALUES = ["nan", "NaN", "inf", "-inf", "1e400", "-1e400", "1e308", "-1e-320", "0", "-0.0", "garbage",
             "1,5", "0x1p3", "1e", "", "1.0.0", "+.5"]
MM_HEADERS = ["", "%%MatrixMarket", "%%MatrixMarket matrix coordinate real symmetric",
              "%%MatrixMarket matrix array real general", "%%matrixmarket matrix coordinate real general",
              "%%MatrixMarket matrix coordinate complex general", "%MatrixMarket matrix coordinate real general",
              " " + MM_HEADER, MM_HEADER + " extra", "\ufeff" + MM_HEADER, "3 3 7"]


def _mutated_matrix_market(rng) -> bytes:
    """The valid file above with one seeded mutation, as bytes."""
    lines = list(MM_VALID)
    kind = int(rng.integers(9))

    def pick(options):
        return options[int(rng.integers(len(options)))]

    if kind == 0:  # header variant
        lines[0] = pick(MM_HEADERS)
    elif kind == 1:  # size-line fields and their count
        fields, change = lines[MM_SIZE_AT].split(), rng.random()
        if change < 0.5:
            fields[int(rng.integers(3))] = pick(MM_SIZES)
        elif change < 0.8:  # square
            fields[:2] = [pick(MM_SIZES)] * 2
        else:
            fields = fields[:int(rng.integers(3))] if change < 0.9 else fields + [pick(MM_SIZES)]
        lines[MM_SIZE_AT] = " ".join(fields)
    elif kind == 2:  # an entry's index
        at = int(rng.integers(MM_SIZE_AT + 1, len(lines)))
        fields = lines[at].split()
        fields[int(rng.integers(2))] = pick(MM_INDICES)
        lines[at] = " ".join(fields)
    elif kind == 3:  # an entry's value
        at = int(rng.integers(MM_SIZE_AT + 1, len(lines)))
        lines[at] = " ".join(lines[at].split()[:2] + [pick(MM_VALUES)])
    elif kind == 4:  # an entry dropped, repeated or given a field more or less
        at = int(rng.integers(MM_SIZE_AT + 1, len(lines)))
        change = int(rng.integers(4))
        if change == 0:
            del lines[at]
        elif change == 1:
            lines.insert(at, lines[at])
        else:
            fields = lines[at].split()
            lines[at] = " ".join(fields[:2] if change == 2 else fields + ["1.0"])
    elif kind == 5:  # blank and comment lines anywhere
        for _ in range(int(rng.integers(1, 4))):
            lines.insert(int(rng.integers(len(lines) + 1)), pick(["", "   ", "\t", "%", "% 1 1 9.0", "%%"]))
    elif kind == 6:  # spacing and line ends
        lines = [pick([" ", "\t", "  "]).join(line.split()) + pick(["", " ", "\r"]) for line in lines]
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if kind == 7:  # bytes that are not UTF-8
        at = int(rng.integers(len(data) + 1))
        data = data[:at] + pick([b"\xff", b"\xe9", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"]) + data[at:]
    elif kind == 8:  # truncated anywhere
        data = data[:int(rng.integers(len(data) + 1))]
    return data


def test_cmd_solve_matrix_market_fuzz_exits_with_a_readme_code(tmp_path, capsys):
    rng = np.random.default_rng(19)
    path = tmp_path / "fuzz.mtx"
    codes = set()
    for case in range(400):
        data = _mutated_matrix_market(rng)
        path.write_bytes(data)
        code = run(["solve", "--matrix", str(path), "--max-iter", "5"])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 64, 65), (case, data)
        assert "Traceback" not in out + err, (case, data)
        codes.add(code)
    assert cli.EXIT_INPUT in codes and codes & {0, 1, 2}
