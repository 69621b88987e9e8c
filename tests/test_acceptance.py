"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print. Criterion 4 failed while the coefficients were evaluated in the
power basis; see README "Known limitations" for the analysis. It is
asserted as first written, never weakened.
"""
import json
import time

import numpy as np

import fopsolve as fs
from fopsolve import cli
from fopsolve.cli import random_sdd_matrix, ring_spectrum_fixture
from fopsolve.recurrences import EXISTS_TOL, NONEXISTENCE_TOL

from helpers import (
    bridged_scalar_products,
    expand_a13_multipliers,
    expand_b13_multipliers,
    iterate,
    poly_matrix_apply,
)


def report_line(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def test_criterion_1_relation_existence_table():
    t0 = time.perf_counter()
    doc = cli.run_verification()
    elapsed = time.perf_counter() - t0
    rows = {row["form"]: row for row in doc["forms"]}

    ok = elapsed < 10.0
    for name in ("A13", "A14", "B13"):
        row = rows[name]
        ok &= row["exists_consensus"] is True and row["median_residual"] < EXISTS_TOL
    for name in ("A11", "B11"):
        row = rows[name]
        runs = row["runs"]
        ok &= row["exists_consensus"] is False
    # the unrepresentable shapes must miss by a wide margin in >= 95% of runs
    frac = {}
    for name in ("A11", "B11"):
        residuals = []
        for seed in range(cli.VERIFY_SEEDS):
            A, r0, y = ring_spectrum_fixture(cli.VERIFY_N, seed)
            c = fs.compute_moments(A, r0, y, 2 * cli.VERIFY_DEGREE + 2)
            rep = fs.fit_relation(fs.FORMS[name], c, cli.VERIFY_DEGREE)
            residuals.append(rep.relative_residual)
        frac[name] = np.mean([r > NONEXISTENCE_TOL for r in residuals])
        ok &= frac[name] >= 0.95

    detail = (f"A13/A14/B13 exist (medians "
              f"{rows['A13']['median_residual']:.1e}/{rows['A14']['median_residual']:.1e}/"
              f"{rows['B13']['median_residual']:.1e}), A11/B11 residual>1e-3 in "
              f"{frac['A11']:.0%}/{frac['B11']:.0%} of runs, {elapsed:.1f}s")
    report_line(1, ok, detail)
    assert ok, detail


def test_criterion_2_coefficient_agreement():
    worst_agree = 0.0
    worst_zero = 0.0
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        c = fs.compute_moments(A, r0, y, 18)
        for k in range(5, 9):
            sp = bridged_scalar_products(A, r0, y, c, k)

            ca = fs.a13_coefficients(sp)
            quad, cubic = expand_a13_multipliers(ca)
            ra = fs.fit_relation(fs.A13, c, k)
            fitted = np.concatenate(ra.multipliers)
            mapped = np.concatenate([quad, cubic])
            worst_agree = max(worst_agree, np.abs(fitted - mapped).max() / np.abs(mapped).max())
            target_norm = np.linalg.norm(fs.oracle_p(c, k).coeffs)
            worst_zero = max(worst_zero, abs(ra.multipliers[1][0]) / target_norm,
                             abs(ra.multipliers[1][3]) / target_norm)

            cb = fs.b13_coefficients(sp)
            lin, quadb = expand_b13_multipliers(cb)
            rb = fs.fit_relation(fs.B13, c, k)
            fittedb = np.concatenate(rb.multipliers)
            mappedb = np.concatenate([lin, quadb])
            worst_agree = max(worst_agree, np.abs(fittedb - mappedb).max() / np.abs(mappedb).max())
            target_norm1 = np.linalg.norm(fs.oracle_p1(c, k).coeffs)
            worst_zero = max(worst_zero, abs(rb.multipliers[0][2]) / target_norm1,
                             abs(rb.multipliers[0][3]) / target_norm1,
                             abs(rb.multipliers[1][2] - 1.0))

    ok = worst_agree <= 1e-8 and worst_zero <= 1e-8
    detail = (f"closed form vs fit agree to {worst_agree:.1e}, "
              f"derived-zero structure to {worst_zero:.1e} (k=5..8, 3 fixtures n=12)")
    report_line(2, ok, detail)
    assert ok, detail


def test_criterion_3_recurrence_vs_oracle_vectors():
    worst = 0.0
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        c = fs.compute_moments(A, r0, y, 18)
        scale = np.linalg.norm(r0)
        state = fs.bootstrap(A, r0, np.zeros(12), y, tol=1e-14)
        for _ in range(4):
            state = fs.step(state, A)
            k = state.k - 1
            rk = poly_matrix_apply(fs.oracle_p(c, k), A, r0)
            zk = poly_matrix_apply(fs.oracle_p1(c, k), A, r0)
            r_k, _, z_k = iterate(state, k)
            worst = max(worst,
                        np.linalg.norm(r_k - rk) / scale,
                        np.linalg.norm(z_k - zk) / scale)
    ok = worst <= 1e-8
    detail = f"step r_k, z_k match oracle evaluations to {worst:.1e} * ||r0|| (k=5..8)"
    report_line(3, ok, detail)
    assert ok, detail


def test_criterion_4_solver_convergence_tridiag50():
    n = 50
    A = fs.Matrix.tridiagonal(n)
    b = fs.matvec(A, np.ones(n))
    cfg = fs.SolverConfig(tol=1e-8, max_iter=60, max_restarts=3, seed=0)
    t0 = time.perf_counter()
    x, report = fs.solve(A, b, config=cfg)
    elapsed = time.perf_counter() - t0
    x_direct = np.linalg.solve(A.to_dense(), b)
    err = float(np.abs(x - x_direct).max())

    ok = (report.status == "Converged"
          and report.final_relative_residual <= 1e-8
          and report.iterations <= 60
          and report.restarts <= 3
          and err <= 1e-6
          and elapsed < 1.0)
    detail = (f"tridiag(50): status={report.status}, rel={report.final_relative_residual:.1e}, "
              f"iters={report.iterations}, restarts={report.restarts}, "
              f"max error={err:.1e}, {elapsed:.2f}s")
    report_line(4, ok, detail)
    assert ok, (
        detail + " -- the sliding-window moment products lose all significant digits "
        "near degree 25 on this one-sided spectrum, a structural double-precision "
        "limit of the method; see README 'Known limitations'."
    )


def test_criterion_5_finite_termination_proxy():
    A = random_sdd_matrix(6, 0)
    rng = np.random.default_rng(0)
    b = fs.matvec(A, rng.standard_normal(6))
    x, report = fs.solve(A, b, config=fs.SolverConfig(tol=1e-10, seed=0))
    ok = (report.status == "Converged"
          and report.final_relative_residual <= 1e-10
          and report.iterations <= 6)
    detail = (f"diagonally dominant n=6: rel={report.final_relative_residual:.1e} "
              f"by iteration {report.iterations}")
    report_line(5, ok, detail)
    assert ok, detail


def test_criterion_6_orthogonality_and_consistency():
    worst_orth = 0.0
    worst_cons = 0.0
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        bn = np.linalg.norm(r0)
        us = [y.copy()]
        for _ in range(8):
            us.append(fs.transpose_matvec(A, us[-1]))
        state = fs.bootstrap(A, r0, np.zeros(12), y, tol=1e-14)
        r_4, x_4, _ = iterate(state, state.k - 1)
        direct = r0 - fs.matvec(A, x_4)
        worst_cons = max(worst_cons, np.linalg.norm(direct - r_4) / bn)
        for _ in range(4):
            state = fs.step(state, A)
            k = state.k - 1
            r_k, x_k, _ = iterate(state, k)
            worst_orth = max(worst_orth, max(
                abs(float(us[i] @ r_k)) / (np.linalg.norm(us[i]) * np.linalg.norm(r_k))
                for i in range(k)))
            direct = r0 - fs.matvec(A, x_k)
            worst_cons = max(worst_cons, np.linalg.norm(direct - r_k) / bn)
    ok = worst_orth <= 1e-6 and worst_cons <= 1e-6
    detail = (f"left-space orthogonality {worst_orth:.1e} (k<=8), "
              f"residual consistency {worst_cons:.1e} * ||b||")
    report_line(6, ok, detail)
    assert ok, detail


def test_criterion_7_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        report = tmp_path / f"report_{tag}.json"
        history = tmp_path / f"history_{tag}.csv"
        code = cli.main(["solve", "--gen", "tridiag:16", "--rhs", "ones",
                         "--seed", "3", "--report", str(report), "--history", str(history)])
        assert code == 0
        outs.append((report.read_bytes(), history.read_bytes()))
    verify_docs = []
    for tag in ("a", "b"):
        path = tmp_path / f"verify_{tag}.json"
        cli.main(["verify", "--report", str(path)])
        verify_docs.append(path.read_bytes())

    ok = outs[0] == outs[1] and verify_docs[0] == verify_docs[1]
    detail = "same seed gives bit-identical solve reports, histories, and verify tables"
    report_line(7, ok, detail)
    assert ok, detail


def test_acceptance_report_round_trip(tmp_path):
    # emitted JSON parses and re-serializes value-identically
    report = tmp_path / "report.json"
    cli.main(["solve", "--gen", "identity:6", "--rhs", "ones", "--report", str(report)])
    text = report.read_text().rstrip("\n")
    assert json.dumps(json.loads(text), sort_keys=True, indent=2) == text
