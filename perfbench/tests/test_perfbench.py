"""Tests of the benchmark's own code: span accounting, metric names, seeded
workload generation, the counting matrix and the output checks.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibration  # noqa: E402
from fopsolve import cli, linalg, solver  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_excludes_nested_spans():
    ticks = iter([0.0, 2.0, 3.0, 5.0, 6.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")   # t = 0
    inner = tracer.open("inner")   # t = 2
    leaf = tracer.open("leaf")     # t = 3
    tracer.close(leaf)             # t = 5: leaf lasted 2
    tracer.close(inner)            # t = 6: inner lasted 4, 2 of them in leaf
    tracer.close(outer)            # t = 10: outer lasted 10, 4 of them in inner
    assert dict(tracer.self_s) == {"leaf": 2.0, "inner": 2.0, "outer": 6.0}
    assert dict(tracer.calls) == {"leaf": 1, "inner": 1, "outer": 1}


def test_closing_a_span_out_of_order_is_an_error():
    tracer = tracing.Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_products_count_in_the_open_span_and_its_parents():
    tracer = tracing.Tracer()
    A = tracing.CountingMatrix.wrap(linalg.Matrix.tridiagonal(5), tracer)
    outer = tracer.open("outer")
    A.matvec(np.ones(5))
    inner = tracer.open("inner")
    A.matvec(np.ones(5))
    A.rmatvec(np.ones(5))
    tracer.close(inner)
    assert (inner.matvecs, inner.rmatvecs) == (1, 1)
    assert (outer.matvecs, outer.rmatvecs) == (2, 1)
    tracer.close(outer)
    assert tracer.counters["products.matvec"] == 2
    assert tracer.counters["products.matvec.bytes"] == 2 * (24 * 13 + 8 * 10)


@pytest.mark.parametrize("matrix", [
    cli.ring_spectrum_fixture(9, 3)[0],
    linalg.Matrix.tridiagonal(40),
    linalg.Matrix.from_triplets((3, 5), [(0, 4, 1.5), (2, 0, -2.0), (1, 1, 0.25)]),
], ids=["dense", "coo-square", "coo-rectangular"])
def test_counting_matrix_products_equal_matrix_products(matrix):
    rng = np.random.default_rng(0)
    counted = tracing.CountingMatrix.wrap(matrix, tracing.Tracer())
    v = rng.standard_normal(matrix.cols)
    w = rng.standard_normal(matrix.rows)
    assert np.array_equal(counted.matvec(v), matrix.matvec(v))
    assert np.array_equal(counted.rmatvec(w), matrix.rmatvec(w))
    assert np.array_equal(linalg.matvec(counted, v), linalg.matvec(matrix, v))
    assert counted.tracer.counters["products.matvec"] == 2
    assert counted.tracer.counters["products.rmatvec"] == 1


def test_traced_solve_keeps_the_cost_contract_and_the_output():
    A, _ = cli.build_generator("tridiag:30")
    b = np.random.default_rng(1).standard_normal(30)
    x_plain, report_plain = solver.solve(A, b)
    original = solver.solve
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        x, report = solver.solve(tracing.CountingMatrix.wrap(A, tracer), b)
    assert solver.solve is original
    assert np.array_equal(x, x_plain) and report.entries == report_plain.entries
    c = tracer.counters
    assert report.restarts > 0 and c["recurrences.breakdowns.Ghost"] > 0
    assert c["solver.contract_violations"] == 0
    assert c["solver.step.matvecs"] == 6 * c["solver.step.completed"]
    assert c["solver.step.rmatvecs"] == c["solver.step.completed"]
    draws = tracer.calls["solver.draw_left_seed"]
    assert c["products.matvec"] == (6 * c["solver.step.completed"]
                                    + 10 * c["solver.bootstrap.handoffs"] + draws)
    assert c["products.rmatvec"] == c["solver.step.completed"] + 7 * c["solver.bootstrap.handoffs"]


def test_contract_check_flags_a_step_with_an_extra_product():
    tracer = tracing.Tracer()
    A = tracing.CountingMatrix.wrap(linalg.Matrix.tridiagonal(30), tracer)
    b = np.random.default_rng(1).standard_normal(30)
    step = solver.step

    def greedy_step(state, matrix, b, eps=1e-12):
        matrix.matvec(b)
        return step(state, matrix, b, eps)

    solver.step = greedy_step
    try:
        with tracing.instrument(tracer):
            solver.solve(A, b, config=solver.SolverConfig(max_iter=8))
    finally:
        solver.step = step
    assert tracer.counters["solver.step.attempts"] > 0
    assert tracer.counters["solver.contract_violations"] == tracer.counters["solver.step.attempts"]


def _problems(build, seed):
    return [(p.label, p.matrix.to_dense(), p.b, p.config) for p in build(seed)]


def _same(a, b):
    return len(a) == len(b) and all(
        la == lb and np.array_equal(ma, mb) and np.array_equal(ba, bb) and ca == cb
        for (la, ma, ba, ca), (lb, mb, bb, cb) in zip(a, b))


@pytest.mark.parametrize("workload", ["desk", "restart-long", "sparse-1e6"])
def test_workload_inputs_depend_only_on_the_seed(workload, monkeypatch):
    monkeypatch.setattr(workloads, "SPARSE_N", 50)
    build = workloads.BUILDERS[workload]
    assert _same(_problems(build, 7), _problems(build, 7))
    assert not _same(_problems(build, 7), _problems(build, 8))


def test_metric_names_are_well_formed_and_match_the_spec():
    spec = _spec()
    tracer = tracing.Tracer()
    fake = run.Run([object()], calibration=None)
    fake.op_s, fake.speed_scale = [0.5, 0.6], [1.0, 0.9]
    emitted_e2e = run.end_to_end(0.1, fake, 2**20)
    emitted_layer = run.per_layer(tracer, tracer, 1, 1.0)
    emitted_layer.update(run.solver_outcomes([], 1))
    assert [m["name"] for m in spec["end_to_end"]] == list(emitted_e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(emitted_layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
    for emitted in (emitted_e2e, emitted_layer):
        for name, value in emitted.items():
            assert value["unit"] == next(m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
                                         if m["name"] == name)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.BUILDERS)


def test_end_to_end_times_are_scaled_to_the_reference_speed():
    bench = run.Run([object(), object()], calibration=None)
    bench.op_s = [1.0, 2.0, 2.0, 4.0, 1.0, 2.0]   # round 2 ran at half speed
    bench.speed_scale = [1.0, 1.0, 0.5, 0.5, 1.0, 1.0]
    metrics = run.end_to_end(0.1, bench, 3 * 2**20)
    assert metrics["run_peak_mb"]["value"] == 3.0
    assert metrics["run_s"]["value"] == pytest.approx(3.0)
    assert metrics["op_p50_ms"]["value"] == pytest.approx(1500.0)
    assert metrics["op_p90_ms"]["value"] == pytest.approx(1900.0)


def test_each_operation_is_scaled_by_the_calibrations_around_it():
    class Clock:
        reference_s = 1.0

        def __init__(self):
            self.times = iter([1.0, 3.0, 1.0])  # the machine slows down, then recovers

        def __call__(self):
            return next(self.times)

    class Op:
        matrix = None

        def __call__(self):
            return 2.0, None

        def check(self, value):
            return workloads.Verdict(True, "", value)

    bench = run.Run([Op(), Op()], Clock())
    bench.round()
    assert bench.speed_scale == [0.5, 0.5]
    assert bench.scaled_op_s().tolist() == [[1.0, 1.0]]


def test_solve_check_flags_wrong_outputs():
    problem = workloads.build_desk(0)[0]
    op = workloads.SolveOp(problem)
    x, report = solver.solve(problem.matrix, problem.b)
    assert op.check((x, report)).ok
    assert not op.check(RuntimeError("boom")).ok
    assert not op.check((np.full_like(x, np.nan), report)).ok
    lying = solver.SolveReport(report.status, report.iterations, report.restarts,
                               report.restart_causes, report.entries,
                               report.final_relative_residual * 0.5 + 1e-6)
    assert not op.check((x, lying)).ok


def test_run_marks_a_nondeterministic_operation_as_failed():
    class Flaky:
        matrix = None

        def __init__(self):
            self.calls = 0

        def __call__(self):
            self.calls += 1
            return 0.001, self.calls

        def check(self, value):
            return workloads.Verdict(True, "", value)

    bench = run.Run([Flaky()], Calibration("interp"))
    bench.until(0.0, 2)
    assert [v.ok for v in bench.verdicts] == [True, False]
    bench.peak_bytes()
    assert [v.ok for v in bench.verdicts] == [True, False, False]


def test_peak_bytes_counts_the_arrays_a_round_allocates():
    class Allocating:
        matrix = None

        def __call__(self):
            held = np.ones(2**20)  # 8 MiB, released before the next operation
            return 0.0, float(held.sum())

        def check(self, value):
            return workloads.Verdict(True, "", value)

    bench = run.Run([Allocating(), Allocating()], Calibration("interp"))
    peak = bench.peak_bytes()
    assert 8 * 2**20 <= peak < 9 * 2**20
    assert [v.ok for v in bench.verdicts] == [True, True]


def test_each_import_of_fopsolve_is_fresh():
    loaded = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "fopsolve"}
    try:
        times = run.import_fopsolve(Calibration("interp"))
        assert len(times) == run.IMPORT_REPEATS and all(t > 0 for t in times)
        assert sys.modules["fopsolve"] is not loaded["fopsolve"]
    finally:
        sys.modules.update(loaded)


def test_benchmark_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
