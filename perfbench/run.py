"""Closed-loop benchmark of fopsolve.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: fopsolve is imported from its
`src/` directory and nowhere else. One caller issues each operation only
after the previous one returned, in rounds over the workload's fixed
operation list, until `--seconds` have passed (and at least two rounds, so
every operation is also checked for determinism). Every output is checked.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run, per round.
Earlier lines are a readable summary and the environment.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc

# One BLAS thread, set before numpy loads its BLAS: with two OpenBLAS threads on
# a two-vCPU machine, a 100x100 QR took 0.14 s in some processes and 0.001 s in
# others, which made whole runs bimodal. fopsolve itself runs on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  the harness's own dependency, imported before the timed import

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("desk", "restart-long", "sparse-1e6", "verify")
IMPORT_REPEATS = 5
SETUP_REPEATS = 5
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 1


def import_fopsolve(calibration) -> list[float]:
    """Import fopsolve from this checkout's src/ IMPORT_REPEATS times, each
    time afresh, and return each import's time at the reference speed.

    Its dependencies, numpy and the standard library, stay imported, and only
    the first import compiles the sources when no bytecode is cached yet."""
    if not os.path.isfile(os.path.join(SRC, "fopsolve", "__init__.py")):
        raise SystemExit(f"perfbench: no fopsolve sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [m for m in sys.modules if m == "fopsolve" or m.startswith("fopsolve.")]:
            del sys.modules[name]
        times.append(scaled_time(calibration, importlib.import_module, "fopsolve")[0])
    package = sys.modules["fopsolve"]
    if os.path.dirname(os.path.dirname(os.path.abspath(package.__file__))) != SRC:
        raise SystemExit(f"perfbench: fopsolve was imported from {package.__file__}, not {SRC}")
    return times


def scaled_time(calibration, fn, *args):
    """Call fn(*args) after a garbage collection; return its time at the
    reference speed, scaled by the calibrations taken just before and just
    after it, and its result."""
    gc.collect()
    before = calibration()
    t0 = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - t0
    return elapsed * 2 * calibration.reference_s / (before + calibration()), result


def set_up(build, seed: int, calibration):
    """Build the inputs SETUP_REPEATS times; return the last inputs and each
    build's time at the reference speed."""
    times = []
    problems = None
    for _ in range(SETUP_REPEATS):
        problems = None  # release the previous inputs before building again
        seconds, problems = scaled_time(calibration, build, seed)
        times.append(seconds)
    return problems, times


class Run:
    """Rounds over a fixed operation list, with every output checked."""

    def __init__(self, ops, calibration, tracer=None):
        self.ops = ops
        self.calibration = calibration
        self.tracer = tracer  # when set, an operation whose spans break the cost contract fails
        self.op_s: list[float] = []
        # Per operation: reference calibration time over the mean of the
        # calibration times measured just before and just after it.
        self.speed_scale: list[float] = []
        self.calibration_s = None
        self.verdicts = []
        self.failures: list[str] = []
        self.fingerprints = [None] * len(ops)

    @property
    def rounds(self) -> int:
        return len(self.op_s) // len(self.ops)

    def round(self) -> None:
        if self.calibration_s is None:
            self.calibration_s = self.calibration()
        values, broke = self._pass(between=self._recalibrate)
        self.op_s.extend(seconds for seconds, _ in values)
        self._check(values, broke)

    def scaled_op_s(self) -> np.ndarray:
        """Operation times at the reference speed, one row per round."""
        return (np.array(self.op_s) * np.array(self.speed_scale)).reshape(self.rounds, len(self.ops))

    def _recalibrate(self) -> None:
        after = self.calibration()
        self.speed_scale.append(2 * self.calibration.reference_s / (self.calibration_s + after))
        self.calibration_s = after

    def peak_bytes(self) -> int:
        """One more round, untimed but checked, under tracemalloc: the peak of
        the bytes it allocated and still held at once. numpy reports its
        array buffers to tracemalloc, so they count. The inputs were allocated
        before the round, so they do not."""
        gc.collect()
        tracemalloc.start()
        try:
            values, broke = self._pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self._check(values, broke)
        return peak

    def _pass(self, between=lambda: None):
        values, broke = [], []
        for op in self.ops:
            before = self.violations()
            values.append(op())
            broke.append(self.violations() > before)
            between()
        return values, broke

    def _check(self, values, broke) -> None:
        for i, (op, (_, value)) in enumerate(zip(self.ops, values)):
            verdict = op.check(value)
            if self.fingerprints[i] is None:
                self.fingerprints[i] = verdict.fingerprint
            elif verdict.fingerprint != self.fingerprints[i]:
                verdict.ok = False
                verdict.reason = "output differs from the same operation's first run"
            if broke[i]:
                verdict.ok = False
                verdict.reason = "matrix products broke the cost contract"
            if not verdict.ok:
                self.failures.append(f"op {i}: {verdict.reason}")
            self.verdicts.append(verdict)

    def violations(self) -> int:
        return self.tracer.counters["solver.contract_violations"] if self.tracer else 0

    def until(self, seconds: float, min_rounds: int) -> None:
        """Run rounds for `seconds`, and at least `min_rounds` of them."""
        t0 = time.perf_counter()
        done = 0
        while done < min_rounds or time.perf_counter() - t0 < seconds:
            self.round()
            done += 1


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup_s: float, run: Run, peak_bytes: int) -> dict:
    """Times are at the reference speed: each operation's time is scaled by
    the reference calibration time over the calibration time measured around
    it (see calibration.py). Each operation then counts with its median over
    the rounds: `run_s` sums them, and the percentiles are taken over them. `run_peak_mb` is the memory one round allocates at its peak;
    `peak_rss_mb` is the process's peak, set-up included."""
    per_op_ms = 1e3 * np.median(run.scaled_op_s(), axis=0)
    p50, p90 = np.percentile(per_op_ms, [50, 90])
    return {
        "setup_s": metric(setup_s, "s"),
        "run_s": metric(per_op_ms.sum() / 1e3, "s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "run_peak_mb": metric(peak_bytes / 2**20, "MB"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def solver_outcomes(verdicts, rounds: int) -> dict:
    """Solver results summed per round; fractions and digits over all solves."""
    solves = [v for v in verdicts if v.digits is not None]
    digits = [v.digits for v in solves]
    return {
        "solver.iterations": metric(sum(v.iterations for v in solves) / rounds, "count"),
        "solver.restarts": metric(sum(v.restarts for v in solves) / rounds, "count"),
        "solver.converged_frac": metric(_ratio(sum(v.converged for v in solves), len(solves)), "ratio"),
        "solver.residual_digits": metric(statistics.median(digits) if digits else 0.0, "digits"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, setup_tracer, rounds: int, overhead_ratio: float) -> dict:
    from tracing import BREAKDOWN_CAUSES

    c = tracer.counters

    def calls(name):
        return metric(tracer.calls[name] / rounds, "count")

    def self_s(name):
        return metric(tracer.self_s[name] / rounds, "s")

    def per_setup(name):
        return metric(setup_tracer.self_s[name] / SETUP_REPEATS, "s")

    out = {
        "linalg.matvec.calls": calls("linalg.matvec"),
        "linalg.matvec.self_s": self_s("linalg.matvec"),
        "linalg.matvec.bytes_computed": metric(c["products.matvec.bytes"] / rounds, "bytes"),
        "linalg.rmatvec.calls": calls("linalg.rmatvec"),
        "linalg.rmatvec.self_s": self_s("linalg.rmatvec"),
        "linalg.solve_dense.calls": calls("linalg.solve_dense"),
        "linalg.solve_dense.self_s": self_s("linalg.solve_dense"),
        "linalg.from_triplets.self_s": per_setup("linalg.from_triplets"),
        "moments.krylov_vectors.self_s": self_s("moments.krylov_vectors"),
        "moments.compute_moments.self_s": self_s("moments.compute_moments"),
        "oracle.calls": calls("oracle"),
        "oracle.self_s": self_s("oracle"),
        "recurrences.scalar_products.self_s": self_s("recurrences.scalar_products"),
        "recurrences.coefficients.self_s": self_s("recurrences.coefficients"),
        "recurrences.fit_relation.calls": calls("recurrences.fit_relation"),
        "recurrences.fit_relation.self_s": self_s("recurrences.fit_relation"),
    }
    for cause in BREAKDOWN_CAUSES:
        out[f"recurrences.breakdowns.{cause}"] = metric(c[f"recurrences.breakdowns.{cause}"] / rounds, "count")
    for name in ("solve", "step", "bootstrap", "restart", "draw_left_seed"):
        out[f"solver.{name}.self_s"] = self_s(f"solver.{name}")
    out.update({
        "solver.step.ok_ratio": metric(_ratio(c["solver.step.completed"], c["solver.step.attempts"]), "ratio"),
        "solver.bootstrap.ok_ratio": metric(
            _ratio(c["solver.bootstrap.ok"], c["solver.bootstrap.attempts"]), "ratio"),
        "solver.matvecs_per_step": metric(_ratio(c["solver.step.matvecs"], c["solver.step.completed"]), "count"),
        "solver.rmatvecs_per_step": metric(_ratio(c["solver.step.rmatvecs"], c["solver.step.completed"]), "count"),
        "solver.matvecs_per_bootstrap": metric(
            _ratio(c["solver.bootstrap.matvecs"], c["solver.bootstrap.handoffs"]), "count"),
        "solver.rmatvecs_per_bootstrap": metric(
            _ratio(c["solver.bootstrap.rmatvecs"], c["solver.bootstrap.handoffs"]), "count"),
        "solver.contract_violations": metric(c["solver.contract_violations"], "count"),
        "cli.build_generator.self_s": per_setup("cli.build_generator"),
        "cli.ring_spectrum_fixture.self_s": self_s("cli.ring_spectrum_fixture"),
        "cli.run_verification.self_s": self_s("cli.run_verification"),
        "trace.overhead_ratio": metric(overhead_ratio, "ratio"),
    })
    return out


def environment(problems) -> dict:
    """What the numbers depend on. Bytes are computed from array sizes: no
    hardware counter is read, so they are not measured bandwidth."""
    from tracing import storage_bytes

    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": _blas(),
        "llc_bytes": _llc_bytes(),
        "hardware_counters": "none read; bytes are computed, not measured bandwidth",
    }
    if problems:
        largest = max(problems, key=lambda p: p.matrix.rows)
        env["largest_problem"] = largest.label
        env["vector_bytes"] = 8 * largest.matrix.rows
        env["matrix_bytes"] = storage_bytes(largest.matrix)
        if env["llc_bytes"]:
            env["arrays_below_4x_llc"] = env["matrix_bytes"] < 4 * env["llc_bytes"]
    return env


def _version(dist: str) -> str:
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _blas() -> dict:
    """numpy's BLAS and the thread count this harness pins it to."""
    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": config.get("name", "unknown"), "threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def _llc_bytes() -> int | None:
    """The largest cache size the kernel reports for CPU 0, or None."""
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                text = fh.read().strip()
        except OSError:
            continue
        value = int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)
        best = value if best is None else max(best, value)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from calibration import Calibration

    # Set-up is Python-heavy (triplet lists, small QR factorisations), so the
    # interpreter calibration, taken around each part of it, scales its times.
    setup_calibration = Calibration("interp")
    import_s = import_fopsolve(setup_calibration)
    import tracing
    import workloads

    build = workloads.BUILDERS[args.workload]
    if args.trace:
        setup_tracer = tracing.Tracer()
        with tracing.instrument(setup_tracer):
            problems, build_s = set_up(build, args.seed, setup_calibration)
    else:
        problems, build_s = set_up(build, args.seed, setup_calibration)
    ops = workloads.operations(args.workload, problems)
    workloads.warm_up()
    calibration = Calibration(workloads.CALIBRATION[args.workload])

    if args.trace:
        tracer = tracing.Tracer()
        run = Run(ops, calibration, tracer)
        # Untraced rounds for the tracing overhead; the first still pays warm-up.
        untraced = 1 + MIN_ROUNDS
        for _ in range(untraced):
            run.round()
        for op in ops:
            if op.matrix is not None:
                op.matrix = tracing.CountingMatrix.wrap(op.matrix, tracer)
        with tracing.instrument(tracer):
            run.until(args.seconds, MIN_TRACED_ROUNDS)
        scaled = run.scaled_op_s().sum(axis=1)
        rounds = run.rounds - untraced
        overhead = np.median(scaled[untraced:]) / np.median(scaled[1:untraced])
        metrics = per_layer(tracer, setup_tracer, rounds, overhead)
        outcomes = solver_outcomes(run.verdicts[untraced * len(ops):], rounds)
        metrics.update(outcomes)
    else:
        run = Run(ops, calibration)
        run.until(args.seconds, MIN_ROUNDS)
        rounds = run.rounds
        peak = run.peak_bytes()
        metrics = end_to_end(statistics.median(import_s) + statistics.median(build_s), run, peak)
        outcomes = solver_outcomes(run.verdicts, rounds + 1)

    attempted = len(run.verdicts)
    failed = sum(not v.ok for v in run.verdicts)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={rounds} ops_per_round={len(ops)} op_samples={len(run.op_s)}")
    print("env:", json.dumps(environment(problems), sort_keys=True))
    print(f"setup at the reference speed: imports {', '.join(f'{s:.4f}' for s in import_s)} s, "
          f"builds {', '.join(f'{s:.4f}' for s in build_s)} s")
    round_s = np.array(run.op_s).reshape(run.rounds, len(ops)).sum(axis=1)
    print(f"operation time, unscaled: round median {np.median(round_s):.4f} s, best "
          f"{round_s.min():.4f} s; op median {1e3 * statistics.median(run.op_s):.3f} ms; "
          f"speed scale median {statistics.median(run.speed_scale):.4f}")
    print("solver:", ", ".join(f"{k.split('.', 1)[1]}={v['value']:.6g}" for k, v in outcomes.items()),
          f"failed_frac={failed}/{attempted}")
    for line in run.failures[:20]:
        print("FAILED", line)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
