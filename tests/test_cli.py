import csv
import json

import numpy as np
import pytest

import fopsolve as fs
from fopsolve import cli


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


def test_cmd_solve_missing_matrix_file():
    assert run(["solve", "--matrix", "does_not_exist.mtx"]) == cli.EXIT_INPUT


def test_cmd_solve_usage_errors():
    assert run(["solve"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "identity:4", "--matrix", "x.mtx"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "nope:4"]) == cli.EXIT_USAGE
    assert run(["nonsense"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "identity:4", "--tol", "-1"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "identity:4", "--max-iter", "0"]) == cli.EXIT_USAGE
    assert run(["solve", "--gen", "identity:4", "--max-restarts", "-1"]) == cli.EXIT_USAGE


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


def test_cmd_verify_unwritable_report_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "missing" / "verify.json"
    assert run(["verify", "--report", str(path)]) == cli.EXIT_INPUT
    assert str(path) in capsys.readouterr().err
