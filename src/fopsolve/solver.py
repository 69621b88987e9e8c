"""Lanczos-type iterative solver driven by the two degree-gap recurrences.

One step advances the residual family and the monic auxiliary family
together:

    r_k = A_k [ (A^2 + B_k A + C_k I) r_{k-2} + (E_k A^2 + F_k A) z_{k-3} ]
    x_k = x_{k-2} - A_k [ (A + B_k I) r_{k-2} + (E_k A + F_k I) z_{k-3} ]
    z_k = (C_k A + D_k I) z_{k-3} + (A^2 + F_k A + G_k I) z_{k-2}

with coefficients computed from inner products against a sliding window
of bounded left vectors v_j = N_j(A^T) y: v_0 = y / ||y|| and

    A^T v_j = beta_j v_{j-1} + alpha_j v_j + gamma_j v_{j+1},

each v_{j+1} a unit vector with v_{j-1} and then v_j projected out. The
test functions N_j span the same polynomials as the powers x^j, so the
orthogonality conditions, and the coefficients in exact arithmetic, are
those of the power basis u_j = (A^T)^j y, whose vectors grow like
rho(A)^j. Degrees 1..4 are bootstrapped from the same conditions applied
to Krylov vectors, the closed-form recurrences take over at k = 5.
Breakdowns are caught and answered by a minimal restart policy: keep the
best iterate, reseed y, bootstrap again.

Cost contract per step: 6 applications of A (A*r_{k-2} and A*z_{k-3}
products are reused between the r and x updates) plus one of A^T to
advance the left window. Bootstrap costs 10 applications of A plus 7 of
A^T.

The element-wise vector work (a step's r_k, x_k and z_k, the
left-window projections, the bootstrap's combinations of Krylov vectors)
runs through `linalg.blockwise`, which writes it in place, a step's over
r_{k-3}, x_{k-3} and z_{k-4}. On vectors longer than `linalg.BLOCK` rows it
runs one block of rows at a time, the blocks split across the usable
CPUs. Each element sees the same operations in the same order, so
iterates and reports are bit-identical at any block size and CPU count,
at a fixed BLAS thread count. Inner products stay whole-vector BLAS
calls, which a multithreaded BLAS may split and round differently. This
module takes each once and hands `recurrences` only the products: a step
takes two window gemvs and keeps the one with z_{k-2} for the next step,
the bootstrap the one with z_2 for the first. On long vectors
`linalg.parallel_map` runs them, and the bootstrap's Gram products, side
by side, each the same BLAS call as alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, moments, recurrences
from .errors import (
    BootstrapBreakdown,
    BreakdownError,
    DimensionMismatch,
    KrylovOverflow,
    NumericOverflow,
    RestartsExhausted,
    SingularSystem,
)
from .recurrences import WINDOW

BOOTSTRAP_DEGREE = 4
_LEFT_SEED_TRIES = 1000  # draws of y before `_draw_left_seed` gives up

STATUS_CONVERGED = "Converged"
STATUS_MAX_ITERATIONS = "MaxIterations"
STATUS_BREAKDOWN_EXHAUSTED = "BreakdownExhausted"


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int | None = None  # defaults to 2n + 10 at solve time
    max_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        for name in ("max_iter", "max_restarts", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer)) or name == "max_iter" and value is None):
                raise ValueError(f"{name} must be an integer")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class SolverState:
    """Iteration state positioned to produce degree k next.

    It holds what one combined step consumes. The iterates sit in slots
    indexed by degree, r_j in `r[j % 3]`, x_j in `x[j % 3]` and z_j in
    `z[j % 4]` (None until filled). The left vectors v_{k-4}..v_{k+2} sit
    in the (7, n) `u_window` cyclically from row (k - 5) % 7 on; row s of
    the (7, 3) `u_columns` holds (beta_j, alpha_j, gamma_j) of the v_j in
    row s (the newest row's is not yet known). `z3_products` holds the
    window's products with z_{k-3}, in row order, as the bootstrap or the
    step before took them; the row of v_{k+2}, written since, is not
    read. `step` advances the state in place. `history` is append-only
    across restarts, and `iterations` counts its bootstrap and step
    entries of degree k >= 1. `best_x`, the iterate of least residual
    norm, is the solution once `converged`.
    """

    k: int
    r: list | None = None
    x: list | None = None
    z: list | None = None
    u_window: np.ndarray | None = None
    u_columns: np.ndarray | None = None
    z3_products: np.ndarray | None = None
    history: list = field(default_factory=list)
    iterations: int = 0
    best_x: np.ndarray | None = None
    best_resnorm: float = np.inf
    restart_causes: list = field(default_factory=list)
    converged: bool = False

    @property
    def restarts(self) -> int:
        return len(self.restart_causes)


@dataclass(frozen=True)
class SolveReport:
    status: str
    iterations: int
    restarts: int
    restart_causes: tuple
    entries: tuple  # (k, residual_norm, event)
    final_relative_residual: float


def bootstrap(A: linalg.Matrix, b, x0, y, tol: float = SolverConfig.tol) -> SolverState:
    """Set up the iteration by solving the degree 1..4 orthogonality conditions directly.

    Builds the Krylov vectors A^i r0 once, and the left window v_1..v_7
    from v_0 = y / ||y|| with seven transpose products. For each degree
    j, P_j and P1_j solve their conditions against v_0..v_{j-1} (those of
    P1_j through A^T v_i = beta_i v_{i-1} + alpha_i v_i + gamma_i v_{i+1})
    applied to the Krylov vectors; r_j, z_j and x_j are linear
    combinations of them (no further matvecs), formed block by block on
    long vectors, into the state's slots (z_1, which no step reads, is
    not formed). The 25 Gram products (v_m, A^i r0), m, i = 0..4, run one
    call per Krylov vector, side by side on long vectors; one more gemv
    gives `z3_products`. Early convergence (some ||r_j|| <= tol * ||b||)
    short-circuits; a singular degree-j system raises BootstrapBreakdown(j).
    """
    bv = linalg.as_vector(b)
    x0v = linalg.as_vector(x0)
    yv = linalg.as_vector(y)
    if A.rows != A.cols or A.rows != len(bv) or len(x0v) != len(bv) or len(yv) != len(bv):
        raise DimensionMismatch("bootstrap: inconsistent dimensions")
    if not np.any(yv):
        raise ValueError("left seed y must be nonzero")
    bn = float(np.linalg.norm(bv))
    conv_floor = tol * bn

    r0 = bv - linalg.matvec(A, x0v)
    state = SolverState(k=0, best_x=x0v.copy(), best_resnorm=float(np.linalg.norm(r0)))
    state.history.append((0, state.best_resnorm, "bootstrap"))
    if state.best_resnorm <= conv_floor:
        state.converged = True
        return state

    # A^0..A^4 r0 are read; A^5..A^9 r0 only keep the 10 + 7 product contract, so none is kept.
    powers = moments.krylov_vectors(A, r0, 2 * BOOTSTRAP_DEGREE + 1)[:BOOTSTRAP_DEGREE + 1]
    n = len(bv)
    window = np.empty((WINDOW, n))
    left = [yv / np.linalg.norm(yv), *window]  # v_0..v_7, the window rows as views
    recurrence = [_extend_left(A, left[j - 1] if j else None, left[j], left[j + 1]) for j in range(WINDOW)]
    columns = np.zeros((WINDOW, 3))
    columns[:-1] = recurrence[1:]  # row s holds the column of v_{s+1}
    # c(N_m x^i) = (v_m, A^i r0) and c1(N_m x^i) = (A^T v_m, A^i r0), m = 0..3. `v.dot(p)`, not
    # `v @ p`, which holds the GIL on two vectors and so would run the calls one after another.
    gram = np.array([*zip(*linalg.parallel_map(lambda p: [float(v.dot(p)) for v in left[:len(powers)]], powers))])
    shifted = np.array([beta * (gram[m - 1] if m else 0.0) + alpha * gram[m] + gamma * gram[m + 1]
                        for m, (beta, alpha, gamma) in enumerate(recurrence[:BOOTSTRAP_DEGREE])])

    r, x, z = [None] * 3, [None] * 3, [None] * 4  # SolverState's slots
    for j in range(1, BOOTSTRAP_DEGREE + 1):
        try:
            a = linalg.solve_dense(gram[:j, 1:j + 1], -gram[:j, 0])
            c = linalg.solve_dense(shifted[:j, :j], -shifted[:j, j])
        except SingularSystem as exc:
            raise BootstrapBreakdown(j) from exc
        r[(j + 1) % 3] = x[(j + 1) % 3] = None  # degree j - 2, which no step reads
        r_j, x_j, z_j = np.empty(n), np.empty(n), np.empty(n) if j > 1 else None
        r[j % 3], x[j % 3], z[j % 4] = r_j, x_j, z_j
        linalg.blockwise(_degree_vectors, r_j, x_j, z_j, x0v, a, c, *powers[:j + 1])
        rn = float(np.linalg.norm(r_j))
        if not np.isfinite(rn):
            raise NumericOverflow("bootstrap residual overflowed")
        state.history.append((j, rn, "bootstrap"))
        state.iterations += 1
        if rn < state.best_resnorm:
            state.best_resnorm, state.best_x = rn, x_j
        if rn <= conv_floor:
            state.converged = True
            state.k = j + 1
            return state

    state.k = BOOTSTRAP_DEGREE + 1
    state.r, state.x, state.z = r, x, z
    state.u_window, state.u_columns = window, columns
    state.z3_products = window.dot(z[2])  # z_2, the first step's z_{k-3}
    return state


def _degree_vectors(r, x, z, x0, a, c, *p):
    """Write r_j, x_j and z_j of bootstrap degree j = len(a), combined from
    x0 and the Krylov vectors p = (r0, A r0, ..., A^j r0), into r, x and z:

        r = p[0] + sum(a[i - 1] * p[i] for i in range(1, j + 1))
        x = x0 - sum(a[i - 1] * p[i - 1] for i in range(1, j + 1))
        z = p[j] + sum(c[i] * p[i] for i in range(j))

    each sum added left to right from the 0 that `sum` starts from. z is
    None for j = 1: z_1, which no step reads, is not formed."""
    j = len(a)
    np.add(p[0], _sum_into(r, a, p[1:]), out=r)
    np.subtract(x0, _sum_into(x, a, p), out=x)
    if z is not None:
        np.add(p[j], _sum_into(z, c, p[:j]), out=z)


def _sum_into(out, coefficients, vectors) -> np.ndarray:
    """Write sum(c * v for c, v in zip(coefficients, vectors)) into `out`,
    added left to right, and return it."""
    total = 0
    for coefficient, vector in zip(coefficients, vectors):
        total = np.add(total, np.multiply(coefficient, vector), out=out)
    return out


def _extend_left(A: linalg.Matrix, v_prev, v, out) -> tuple[float, float, float]:
    """Write v_{j+1} = (A^T v_j - beta_j v_{j-1} - alpha_j v_j) / gamma_j into `out`.

    beta_j and alpha_j project out v_{j-1}, then v_j; gamma_j makes v_{j+1}
    a unit vector (a zero remainder stays zero). One transpose product.
    Each projection and the division run through `linalg.blockwise`; the
    dot products stay whole-vector calls, whose summation order a blocked
    reduction would change. Returns (beta_j, alpha_j, gamma_j).
    """
    w = linalg.transpose_matvec(A, v)
    beta = 0.0
    if v_prev is not None:
        beta = float(v_prev.dot(w))
        linalg.blockwise(_subtract_multiple, w, v_prev, beta)
    alpha = float(v.dot(w))
    linalg.blockwise(_subtract_multiple, w, v, alpha)
    gamma = math.sqrt(float(w.dot(w)))
    linalg.blockwise(np.divide, w, gamma if gamma > 0.0 else 1.0, out)
    return beta, alpha, gamma


def _subtract_multiple(w, u, coefficient) -> None:
    """w -= coefficient * u, in place in w."""
    w -= np.multiply(coefficient, u)


def _advance(r, x, z, r2, z3, z2, x2, ar, a2r, az3, a2z3, az2, a2z2, ca, cb):
    """Write r_k, x_k and z_k, from the vectors of degree k - 2 and k - 3 and
    their products, into r, x and z:

        r = ca.a_k * (a2r + ca.b_k * ar + ca.c_k * r2 + ca.e_k * a2z3 + ca.f_k * az3)
        x = x2 - ca.a_k * (ar + ca.b_k * r2 + ca.e_k * az3 + ca.f_k * z3)
        z = cb.c_k * az3 + cb.d_k * z3 + a2z2 + cb.f_k * az2 + cb.g_k * z2
    """
    add, multiply = np.add, np.multiply
    add(a2r, multiply(ca.b_k, ar), out=r)
    add(r, multiply(ca.c_k, r2), out=r)
    add(r, multiply(ca.e_k, a2z3), out=r)
    add(r, multiply(ca.f_k, az3), out=r)
    multiply(ca.a_k, r, out=r)
    add(ar, multiply(ca.b_k, r2), out=x)
    add(x, multiply(ca.e_k, az3), out=x)
    add(x, multiply(ca.f_k, z3), out=x)
    np.subtract(x2, multiply(ca.a_k, x, out=x), out=x)
    multiply(cb.c_k, az3, out=z)
    add(z, multiply(cb.d_k, z3), out=z)
    add(z, a2z2, out=z)
    add(z, multiply(cb.f_k, az2), out=z)
    add(z, multiply(cb.g_k, z2), out=z)


def step(state: SolverState, A: linalg.Matrix) -> SolverState:
    """Advance one degree in place: new r, x, z and one new left vector.

    Exactly 6 applications of A plus 1 of A^T. First come two window
    gemvs, with r_{k-2} and z_{k-2}, the latter kept as the next step's
    `z3_products`, then all six matrix products; r_k, x_k and z_k are then
    formed together, block by block on long vectors, the blocks split
    across the usable CPUs, over r_{k-3}, x_{k-3} and z_{k-4}; a slot
    still empty or holding `best_x` gets a new vector. Returns `state`
    itself. Breakdowns from the coefficient computation and
    overflow of the new iterates propagate before any live vector or
    field is modified. The new left vector v_{k+3} overwrites v_{k-4},
    the oldest row of the window.
    """
    k = state.k
    if k < BOOTSTRAP_DEGREE + 1 or state.u_window is None:
        raise ValueError("state is not positioned for recurrence steps")
    r2, x2, z3, z2 = state.r[(k - 2) % 3], state.x[(k - 2) % 3], state.z[(k - 3) % 4], state.z[(k - 2) % 4]
    head = (k - 5) % WINDOW  # the row of v_{k-4}
    r_products, z2_products = linalg.parallel_map(state.u_window.dot, (r2, z2))
    sp = recurrences.assemble_scalar_products(r_products, state.z3_products, z2_products, state.u_columns, head)
    ca = recurrences.a13_coefficients(sp)
    cb = recurrences.b13_coefficients(sp)

    ar = linalg.matvec(A, r2)
    a2r = linalg.matvec(A, ar)
    az3 = linalg.matvec(A, z3)
    a2z3 = linalg.matvec(A, az3)
    az2 = linalg.matvec(A, z2)
    a2z2 = linalg.matvec(A, az2)
    n = len(ar)
    r_k, x_k, z_k = (np.empty(n) if slot is None or slot is state.best_x else slot
                     for slot in (state.r[k % 3], state.x[k % 3], state.z[k % 4]))
    linalg.blockwise(_advance, r_k, x_k, z_k, r2, z3, z2, x2, ar, a2r, az3, a2z3, az2, a2z2, ca, cb)

    rn = math.sqrt(float(r_k.dot(r_k)))  # np.linalg.norm's arithmetic, without its dispatch
    if not (math.isfinite(rn) and np.isfinite(z_k).all() and np.isfinite(x_k).all()):
        raise NumericOverflow(f"iterate overflowed at degree {k}")

    window, newest = state.u_window, (head - 1) % WINDOW
    state.u_columns[newest] = _extend_left(A, window[(head - 2) % WINDOW], window[newest], window[head])
    state.history.append((k, rn, "step"))
    state.iterations += 1
    state.k = k + 1
    state.r[k % 3], state.x[k % 3], state.z[k % 4] = r_k, x_k, z_k
    state.z3_products = z2_products
    if rn < state.best_resnorm:
        state.best_resnorm, state.best_x = rn, x_k
    return state


def restart(state: SolverState, A: linalg.Matrix, b, config: SolverConfig, cause: str, rng) -> SolverState:
    """Answer a breakdown: keep the best iterate, reseed y, bootstrap again.

    The left seeds come from `rng`, the run's generator, which `solve`
    builds once from `config.seed`. Every bootstrap attempt consumes one
    unit of the restart budget and is recorded on `state` (history entry
    and cause); a failed attempt, including one whose seed draw
    overflows, names its cause to the next.
    When the budget runs out, or after the first attempt whose Krylov
    vectors overflow (KrylovOverflow), which no other seed changes, the
    failure that ends the run is recorded as an `exhausted:<cause>`
    history entry and RestartsExhausted is raised. Otherwise the run
    record (history, restart causes, iteration count, best iterate) moves
    on to the fresh bootstrap state, history append-only.
    """
    bv = linalg.as_vector(b)
    fresh = None
    k_at_failure = state.k
    while fresh is None and state.restarts < config.max_restarts:
        state.restart_causes.append(cause)
        state.history.append((k_at_failure, state.best_resnorm, f"restart:{cause}"))
        try:
            y = _draw_left_seed(rng, A, bv, state.best_x)
            fresh = bootstrap(A, bv, state.best_x, y, tol=config.tol)
        except (BreakdownError, NumericOverflow) as exc:
            cause = exc.cause
            k_at_failure = 0
            if isinstance(exc, KrylovOverflow):
                break  # the same products fail again with any other seed
    if fresh is None:
        state.history.append((k_at_failure, state.best_resnorm, f"exhausted:{cause}"))
        raise RestartsExhausted(f"{state.restarts} restarts used without convergence")

    state.history.extend(fresh.history)
    fresh.history = state.history
    fresh.restart_causes = state.restart_causes
    fresh.iterations += state.iterations
    if state.best_resnorm < fresh.best_resnorm:
        fresh.best_resnorm, fresh.best_x = state.best_resnorm, state.best_x
    return fresh


def solve(A: linalg.Matrix, b, x0=None, config: SolverConfig | None = None):
    """Run the solver until convergence, iteration cap, or restart exhaustion.

    Returns (x, SolveReport). Never raises on numerical failure, whatever
    numpy's error settings; every failure mode lands in the report status.
    The convergence test is ||r_k|| <= tol * ||b||.

    The iteration runs on b and x0 scaled by 2^-e, e the binary exponent
    of max|b|, so that norms of b near the ends of the double range
    neither overflow nor underflow; x and the residual norms of the
    report are scaled back. Power-of-two scaling is exact, so the result
    is the unit-scale solve times 2^e, bit for bit.
    """
    cfg = config if config is not None else SolverConfig()
    bv = linalg.as_vector(b)
    n = A.rows
    if A.cols != n or len(bv) != n:
        raise DimensionMismatch("solve needs a square matrix matching b")
    x0v = None if x0 is None else linalg.as_vector(x0)
    if x0v is not None and len(x0v) != n:
        raise DimensionMismatch(f"solve needs x0 of length {n} to match b, got length {len(x0v)}")
    with np.errstate(all="ignore"):  # every failure is read off the values computed
        exponent = math.frexp(max(float(bv.max()), -float(bv.min())))[1]  # of max|b|; b is finite
        bv = np.ldexp(bv, -exponent)
        x0v = np.zeros(n) if x0v is None else np.ldexp(x0v, -exponent)
        max_iter = cfg.max_iter if cfg.max_iter is not None else 2 * n + 10
        rng = np.random.default_rng(cfg.seed)
        bn = float(np.linalg.norm(bv))
        conv_floor = cfg.tol * bn

        cause = None
        try:
            y = _draw_left_seed(rng, A, bv, x0v)
            state = bootstrap(A, bv, x0v, y, tol=cfg.tol)
        except (BreakdownError, NumericOverflow) as exc:
            r0n = float(np.linalg.norm(bv - linalg.matvec(A, x0v)))
            state = SolverState(k=0, best_x=x0v.copy(), best_resnorm=r0n, history=[(0, r0n, "bootstrap")])
            cause = exc.cause
        y = x0v = None  # neither is read again; at n = 1e6 they hold 16 MB

        while True:
            if cause is not None:
                try:
                    state = restart(state, A, bv, cfg, cause=cause, rng=rng)
                except RestartsExhausted:
                    status = STATUS_BREAKDOWN_EXHAUSTED
                    break
                cause = None
            if state.converged:
                status = STATUS_CONVERGED
                break
            if state.iterations >= max_iter:
                status = STATUS_MAX_ITERATIONS
                break
            try:
                state = step(state, A)
            except (BreakdownError, NumericOverflow) as exc:
                cause = exc.cause
            else:
                state.converged = state.history[-1][1] <= conv_floor
        return np.ldexp(state.best_x, exponent), _report(state, status, bn, exponent)


def _draw_left_seed(rng, A, b, x0) -> np.ndarray:
    """Unit-normal y, rejected while nearly orthogonal to the current residual
    (a zero residual takes the first draw).

    Raises KrylovOverflow when that residual is not finite.
    """
    r0 = b - linalg.matvec(A, x0)
    r0n = float(np.linalg.norm(r0))
    if not math.isfinite(r0n):
        raise KrylovOverflow("residual of the starting iterate overflowed")
    for _ in range(_LEFT_SEED_TRIES):
        y = rng.standard_normal(len(b))
        if abs(float(y @ r0)) >= 1e-10 * float(np.linalg.norm(y)) * r0n:
            return y
    raise RuntimeError("could not draw a usable left seed")


def _report(state: SolverState, status: str, bn: float, exponent: int) -> SolveReport:
    """The run record, residual norms scaled by 2^exponent back to the caller's b.

    The history entries are rescaled in place, one at a time, so a long
    history is never held twice. A norm past the double range at the
    caller's scale is reported as inf.
    """
    denom = bn if bn > 0 else 1.0
    history = state.history
    for i, (k, rn, ev) in enumerate(history):
        try:
            rn = math.ldexp(rn, exponent)
        except OverflowError:
            rn = math.inf
        history[i] = (k, rn, ev)
    return SolveReport(
        status=status,
        iterations=state.iterations,
        restarts=state.restarts,
        restart_causes=tuple(state.restart_causes),
        entries=tuple(history),
        final_relative_residual=state.best_resnorm / denom,
    )
