"""Per-call times of one degree's scalar path and vector updates, and of
the verify command's layers, in microseconds.

    python3 tools/microbench.py [CHECKOUT]

CHECKOUT is a source checkout whose `src/` fopsolve is timed; it defaults
to the checkout that holds this script, so two checkouts are timed by one
script on the same inputs. On each problem (the ring-spectrum fixture of
n = 60 and `tridiag:100`, fixed seeds) the solver bootstraps and steps to
degree DEGREE; the layers are then timed on that state's own operands:
the functional values (`assemble_scalar_products`), the two coefficient
records, two eliminations (`linalg.eliminate`, named by the shape n x
(n + m) of their augmented rows, n equations and m right-hand sides): the
A13 system as `a13_coefficients` hands it over (3x4) and the bootstrap's
first degree-4 system (4x5), each also on its first call for its shape,
which compiles the shape's kernel; the last fused multiply-add with a
nonzero product and the last with a zero
operand (a structural zero of a coefficient system) that the back
substitutions made on the way to that state, one product with A
(`linalg.matvec`: the dense gemv on `ring:60`, the diagonal-storage
stencil on `tridiag:100`; a step makes six and `_extend_left` one with
A^T), one `linalg.norm` of r_{k-2} (a step takes three, of r_k, z_k and
x_k), the step's two update kernels, one left-window extension and a
whole `step`. A second table times the layers of `fopsolve verify` on
its n = 10 fixture of seed VERIFY_SEED: the fixture
(`cli.ring_spectrum_fixture`), its moments c_0..c_12 (`compute_moments`),
one Hankel solve that misses the memo (`oracle.oracle_p` at k = 6 on a
fresh `MomentSequence` of those moments), the elimination of that Hankel
system with its two right-hand sides (6x8), also on its first call, and
one `fit_relation` of A13 and of B13 at k = 6, whose oracle polynomials
the memo then holds.

Each figure is the minimum over REPEATS runs of NUMBER calls (stdlib
`timeit`), per call; a first call is one call a run, its shape's kernel
dropped from `linalg._kernels` before it. A call that writes into its
operands (the update kernels, `step`) gets a fresh copy of them, made
before each run and outside its timing; the verify layers, of tens of
microseconds, take VERIFY_NUMBER calls a run. BLAS runs on one thread, as in
`tools/digest.py` and `perfbench/run.py`. The traced spans of
`perfbench/run.py` carry a fixed cost per call that is too coarse for
layers of a few microseconds; this is their finer view.
"""
from __future__ import annotations

import copy
import os
import sys
import timeit

# Before numpy loads its BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEGREE = 12  # the degree the timed state produces next
REPEATS = 30
NUMBER = 1000
STEP_NUMBER = 100  # a step takes about ten times as long as a scalar layer
VERIFY_NUMBER = 100  # so does each verify layer
VERIFY_SEED = 3


def per_call_us(f, args=(), fresh=None, number=NUMBER) -> float:
    """Min over REPEATS runs of `number` calls f(*args), in microseconds per
    call; with `fresh`, each call takes its own arguments fresh(), all made
    before the run."""
    space = {"f": f, "args": args}
    if fresh is None:
        timer = timeit.Timer("f(*args)", globals=space)
    else:
        def setup():
            space["calls"] = iter([fresh() for _ in range(number)])
        timer = timeit.Timer("f(*next(calls))", setup=setup, globals=space)
    return min(timer.repeat(REPEATS, number)) / number * 1e6


def first_call_us(linalg, rows, max_abs) -> float:
    """Min over REPEATS runs of one `linalg.eliminate(rows, max_abs)`, the
    kernel of its shape dropped before each run: the compile and the
    solve, in microseconds."""
    shape = len(rows), len(rows[0])
    timer = timeit.Timer(lambda: linalg.eliminate(rows, max_abs), setup=lambda: linalg._kernels.pop(shape, None))
    return min(timer.repeat(REPEATS, 1)) * 1e6


def eliminations(linalg, fn, *args) -> list:
    """The (rows, max_abs) of each `linalg.eliminate` call that fn(*args) makes."""
    systems, eliminate = [], linalg.eliminate
    linalg.eliminate = lambda a, max_abs: systems.append((a, max_abs)) or eliminate(a, max_abs)
    try:
        fn(*args)
    finally:
        linalg.eliminate = eliminate
    return systems


def problems(cli, linalg):
    """(label, A, b, y) of the timed problems."""
    a, r0, y = cli.ring_spectrum_fixture(60, 3)
    yield "ring:60", a, r0, y
    rng = np.random.default_rng(100)
    yield "tridiag:100", linalg.Matrix.tridiagonal(100), rng.standard_normal(100), rng.standard_normal(100)


def layer_times(fs, A, b, y) -> dict:
    """Per-call microseconds of each layer on the state of degree DEGREE."""
    linalg, recurrences, solver = fs.linalg, fs.recurrences, fs.solver
    # The fused multiply-adds of the back substitutions up to the timed state, as made.
    fmas, fma = [], linalg._fma
    linalg._fma = lambda *abc: fmas.append(abc) or fma(*abc)
    try:
        state = solver.bootstrap(A, b, np.zeros(len(b)), y, tol=1e-14)
        while state.k < DEGREE:
            solver.step(state, A)
    finally:
        linalg._fma = fma
    k = state.k
    r2, x2, z3, z2 = state.r[(k - 2) % 2], state.x[(k - 2) % 2], state.z[(k - 3) % 3], state.z[(k - 2) % 3]
    head = (k - 5) % recurrences.WINDOW
    r_products, z2_products = ([*p[head:], *p[:head]] for p in (state.u_window.dot(r2).tolist(),
                                                                 state.u_window.dot(z2).tolist()))
    assembly = (r_products, state.z3_products, z2_products, state.u_columns)
    sp = recurrences.assemble_scalar_products(*assembly)
    ca, cb = recurrences.a13_coefficients(sp), recurrences.b13_coefficients(sp)
    (a13_system,) = eliminations(linalg, recurrences.a13_coefficients, sp)
    degree_4 = next(system for system in eliminations(linalg, solver.bootstrap, A, b, np.zeros(len(b)), y, 1e-14)
                    if len(system[0]) == 4)

    ar, az3, az2 = (linalg.matvec(A, v) for v in (r2, z3, z2))
    a2r, a2z3, a2z2 = (linalg.matvec(A, v) for v in (ar, az3, az2))
    window, newest = state.u_window, (head - 1) % recurrences.WINDOW
    out = np.empty(len(b))
    return {
        "assemble_scalar_products": per_call_us(recurrences.assemble_scalar_products, assembly),
        "a13_coefficients": per_call_us(recurrences.a13_coefficients, (sp,)),
        "b13_coefficients": per_call_us(recurrences.b13_coefficients, (sp,)),
        "eliminate (3x4)": per_call_us(linalg.eliminate, a13_system),
        "eliminate (4x5)": per_call_us(linalg.eliminate, degree_4),
        "eliminate (3x4, 1st call)": first_call_us(linalg, *a13_system),
        "eliminate (4x5, 1st call)": first_call_us(linalg, *degree_4),
        "_fma": per_call_us(fma, next(abc for abc in reversed(fmas) if abc[0] * abc[1])),
        "_fma (zero operand)": per_call_us(fma, next(abc for abc in reversed(fmas) if not (abc[0] and abc[1]))),
        "matvec": per_call_us(linalg.matvec, (A, r2)),
        "norm": per_call_us(linalg.norm, (r2,)),
        "_advance_rx": per_call_us(solver._advance_rx,
                                   fresh=lambda: (r2, z3, x2, ar.copy(), a2r.copy(), az3, a2z3, ca)),
        "_advance_z": per_call_us(solver._advance_z, fresh=lambda: (z3, z2, az3.copy(), az2, a2z2, cb)),
        "_extend_left": per_call_us(solver._extend_left,
                                    (A, window[(head - 2) % recurrences.WINDOW], window[newest], out)),
        "step": per_call_us(solver.step, fresh=lambda: (copy.deepcopy(state), A), number=STEP_NUMBER),
    }


def verify_times(fs, cli) -> dict:
    """Per-call microseconds of the verify command's layers on its fixture of VERIFY_SEED."""
    linalg, moments, oracle, recurrences = fs.linalg, fs.moments, fs.oracle, fs.recurrences
    n, k = cli.VERIFY_N, cli.VERIFY_DEGREE
    fixture = cli.ring_spectrum_fixture(n, VERIFY_SEED)
    c = moments.compute_moments(*fixture, 2 * k)
    (hankel,) = eliminations(linalg, oracle.oracle_p, moments.MomentSequence(c.values), k)
    return {
        "ring_spectrum_fixture": per_call_us(cli.ring_spectrum_fixture, (n, VERIFY_SEED), number=VERIFY_NUMBER),
        "compute_moments": per_call_us(moments.compute_moments, (*fixture, 2 * k), number=VERIFY_NUMBER),
        "oracle_p (memo miss)": per_call_us(oracle.oracle_p, fresh=lambda: (moments.MomentSequence(c.values), k),
                                            number=VERIFY_NUMBER),
        "eliminate (6x8)": per_call_us(linalg.eliminate, hankel),
        "eliminate (6x8, 1st call)": first_call_us(linalg, *hankel),
        "fit_relation (A13)": per_call_us(recurrences.fit_relation, (recurrences.A13, c, k), number=VERIFY_NUMBER),
        "fit_relation (B13)": per_call_us(recurrences.fit_relation, (recurrences.B13, c, k), number=VERIFY_NUMBER),
    }


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    src = os.path.join(os.path.abspath(argv[0] if argv else ROOT), "src")
    if not os.path.isfile(os.path.join(src, "fopsolve", "__init__.py")):
        print(f"microbench: no fopsolve sources under {src}", file=sys.stderr)
        return 65
    sys.path.insert(0, src)  # ahead of an installed fopsolve
    import fopsolve as fs
    from fopsolve import cli

    columns = {label: layer_times(fs, A, b, y) for label, A, b, y in problems(cli, fs.linalg)}
    print(f"us per call, min of {REPEATS} runs (degree {DEGREE})")
    print(f"{'layer':<26}" + "".join(f"{label:>13}" for label in columns))
    for layer in next(iter(columns.values())):
        print(f"{layer:<26}" + "".join(f"{times[layer]:>13.2f}" for times in columns.values()))
    print(f"\nus per call, min of {REPEATS} runs (verify, degree {cli.VERIFY_DEGREE})")
    print(f"{'layer':<26}{f'ring:{cli.VERIFY_N}':>13}")
    for layer, us in verify_times(fs, cli).items():
        print(f"{layer:<26}{us:>13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
