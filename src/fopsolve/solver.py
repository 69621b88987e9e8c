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
best iterate, reseed y, bootstrap again, as the first start does (`_start`).
An iterate has overflowed where its 2-norm, `linalg.norm`'s, is not
finite: one rule for a step's r_k, x_k and z_k, the bootstrap's r0 and
r_j and the r0 of a seed draw.

Cost contract per step: 6 applications of A (A*r_{k-2} and A*z_{k-3}
products are reused between the r and x updates) plus one of A^T to
advance the left window. Bootstrap costs 10 applications of A plus 7 of
A^T.

On long vectors memory is a count of n-vectors, so each is dropped once
nothing reads it again: the scaled b lives through a (re)start's seed
draw and bootstrap only, the bootstrap forms x_j only for the iterates it
hands on, over Krylov vectors no x left to form reads, and a step forms
r_k and x_k before it takes the products of z_{k-2}, so at most five of
its products are alive at once. Which vectors a solve allocates and
frees, and in what order, does not depend on b: the best iterate is
copied into one vector of the solve's own, `SolverState.kept`, when the
slot that held it moves on, rather than keeping that slot's vector alive,
and the solution is scaled into `kept` too. A solve then leaves the heap
the same whichever iterate was best.

The element-wise vector work (a step's r_k, x_k and z_k, the left-window
projections, the bootstrap's combinations of Krylov vectors) runs through
`linalg.blockwise`, which writes it in place, a step's over three of its
own products, so no iterate is written once formed. On vectors longer than
`linalg.BLOCK` rows it runs one block of rows at a time, the blocks split
across the usable CPUs. Each element sees the same operations in the same
order, so iterates and reports are bit-identical at any block size and CPU
count, at a fixed BLAS thread count. Inner products stay whole-vector BLAS
calls, which a multithreaded BLAS may split and round differently.

This module holds the vectors and takes their products; `recurrences`
holds the coefficients and decides the breakdowns. It takes each product
once and hands `recurrences` only the products: a step takes two window
gemvs and keeps the one with z_{k-2} for the next step, the bootstrap
the one with z_2 for the first. On long vectors
`linalg.parallel_map` runs them, and the bootstrap's Gram products, side
by side, each the same BLAS call as alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, moments, recurrences
from .errors import BreakdownError, DimensionMismatch, KrylovOverflow, NumericOverflow, RestartsExhausted
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
        if isinstance(self.tol, (bool, np.bool_)) or not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        for name in ("max_iter", "max_restarts", "seed"):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (integer or name == "max_iter" and value is None):
                raise ValueError(f"{name} must be an integer")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(eq=False)
class SolverState:
    """Iteration state positioned to produce degree k next.

    It holds what one combined step consumes. The iterates sit in slots
    indexed by degree, r_j in `r[j % 2]`, x_j in `x[j % 2]` and z_j in
    `z[j % 3]` (None until filled); none is written once formed, so
    `best_x` may be one of them. The left vectors v_{k-4}..v_{k+2} sit
    in the (7, n) `u_window` cyclically from row (k - 5) % 7 on.
    `u_columns` lists the tuples (beta_j, alpha_j, gamma_j) of
    j = k-4..k+1, and `z3_products` the products of v_{k-4}..v_{k+1} with
    z_{k-3}, both in degree order, as the bootstrap or the step before left
    them. `step` advances the state in place. `history` is append-only
    across restarts, and `iterations` counts its bootstrap and step
    entries of degree k >= 1. `best_x`, the iterate of least residual
    norm, is the solution once `converged`. `solve` sets `kept`, a vector
    of its own: once no x slot holds best_x, best_x is copied into it, so
    no other vector stays alive for it. A state without one (from
    `bootstrap` alone) keeps the vector that held best_x alive instead.
    States compare by identity: `==` on their vectors would give arrays,
    not a truth value.
    """

    k: int
    r: list | None = None
    x: list | None = None
    z: list | None = None
    u_window: np.ndarray | None = None
    u_columns: list | None = None
    z3_products: list | None = None
    history: list = field(default_factory=list)
    iterations: int = 0
    best_x: np.ndarray | None = None
    best_resnorm: float = np.inf
    kept: np.ndarray | None = None
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
    from v_0 = y / ||y|| with seven transpose products; r0 whose
    `linalg.norm` is not finite raises KrylovOverflow, as the seed draw
    does. For each degree j, the coefficients of P_j and P1_j are
    `recurrences.bootstrap_coefficients`', drawn one degree at a time, so
    a degree's systems are formed only while the degree before has not
    converged. r_j, z_j and x_j are linear
    combinations of them (no further matvecs), formed block by block on
    long vectors, into the state's slots. r_j and z_j are formed degree by
    degree (z_1, which no step reads, is not). x_j is formed only where it
    is handed on, after the degree loop: x_4, then x_3, then the best x_j
    if that is x_1 or x_2; on early convergence (some ||r_j|| <= tol *
    ||b||) only x_j, the best. ||b||, ||y|| and each ||r_j|| are
    `linalg.norm`'s, so a norm whose square overflows or underflows is
    neither a convergence floor of inf nor an overflowed residual, and v_0
    is the same at any power-of-two scale of y. Each x_j reads
    r0..A^{j-1} r0, so they are written over A^4 r0, A^3 r0 and A^2 r0 in
    turn, which no x left to form reads: forming them allocates nothing.
    The 25 Gram products (v_m, A^i r0), m, i = 0..4, Python floats, run
    one call per Krylov vector, side by side on long vectors; one more
    gemv, with z_2, gives `z3_products`. The breakdowns and overflows of
    the coefficients (BootstrapBreakdown(j), NumericOverflow) are
    `bootstrap_coefficients`' and propagate; a failed bootstrap forms no
    x at all.
    """
    bv, x0v, yv = map(linalg.as_vector, (b, x0, y))
    if A.rows != A.cols or A.rows != len(bv) or len(x0v) != len(bv) or len(yv) != len(bv):
        raise DimensionMismatch("bootstrap: inconsistent dimensions")
    if not np.any(yv):
        raise ValueError("left seed y must be nonzero")
    conv_floor = tol * linalg.norm(bv)

    r0 = bv - linalg.matvec(A, x0v)
    state = SolverState(k=0, best_x=x0v, best_resnorm=linalg.norm(r0))
    if not math.isfinite(state.best_resnorm):
        raise KrylovOverflow("residual of the starting iterate overflowed")
    state.history.append((0, state.best_resnorm, "bootstrap"))
    if state.best_resnorm <= conv_floor:
        state.converged = True
        return state

    # A^0..A^4 r0 are read; A^5..A^9 r0 only keep the 10 + 7 product contract, so none is kept.
    powers = moments.krylov_vectors(A, r0, 2 * BOOTSTRAP_DEGREE + 1)[:BOOTSTRAP_DEGREE + 1]
    n = len(bv)
    window = np.empty((WINDOW, n))
    left = [yv / linalg.norm(yv), *window]  # v_0..v_7, the window rows as views
    recurrence = [_extend_left(A, left[j - 1] if j else None, left[j], left[j + 1]) for j in range(WINDOW)]
    # c(N_m x^i) = (v_m, A^i r0) and c1(N_m x^i) = (A^T v_m, A^i r0), m = 0..3. `v.dot(p)`, not
    # `v @ p`, which holds the GIL on two vectors and so would run the calls one after another.
    gram = [*zip(*linalg.parallel_map(lambda p: [float(v.dot(p)) for v in left[:len(powers)]], powers))]
    left = None  # frees v_0, which nothing reads again

    r, z = [None] * 2, [None] * 3  # SolverState's slots of r_j and z_j
    solutions, best = [None], 0  # a of each degree, read by x_j; the degree of least ||r_j||
    for j, (a, c) in enumerate(recurrences.bootstrap_coefficients(gram, recurrence[:BOOTSTRAP_DEGREE]), 1):
        r[j % 2] = None  # r_{j-2}, which no step reads
        r[j % 2], z[j % 3] = np.empty(n), np.empty(n) if j > 1 else None
        linalg.blockwise(_degree_vectors, r[j % 2], z[j % 3], a, c, *powers[:j + 1])
        rn = linalg.norm(r[j % 2])
        if not math.isfinite(rn):
            raise NumericOverflow("bootstrap residual overflowed")
        state.history.append((j, rn, "bootstrap"))
        state.iterations += 1
        solutions.append(a)
        if rn < state.best_resnorm:
            state.best_resnorm, best = rn, j
        if rn <= conv_floor:
            state.converged = True
            break
    state.k = j + 1

    # Only the x_j handed on are formed, newest first, as each reads r0..A^{j-1} r0:
    # the best alone on convergence, else x_4 and x_3 for the steps, then the best.
    handed_on = {best} if state.converged else {BOOTSTRAP_DEGREE, BOOTSTRAP_DEGREE - 1, best}
    formed = {0: x0v}
    for j, over in zip(sorted(handed_on - {0}, reverse=True), (4, 3, 2)):
        formed[j] = powers[over]  # A^over r0, which no x left to form reads
        linalg.blockwise(_degree_x, formed[j], x0v, solutions[j], *powers[:j])
    state.best_x = formed[best]
    if state.converged:
        return state
    state.r, state.x, state.z = r, [formed[4], formed[3]], z  # x_j in slot j % 2
    state.u_window, state.u_columns = window, recurrence[1:]  # the columns of v_1..v_6
    state.z3_products = window.dot(z[2]).tolist()[:6]  # z_2, the first step's z_{k-3}, against v_1..v_6
    return state


def _degree_vectors(r, z, a, c, *p):
    """Write r_j and z_j of bootstrap degree j = len(a), combined from the
    Krylov vectors p = (r0, A r0, ..., A^j r0), into r and z:

        r = p[0] + sum(a[i - 1] * p[i] for i in range(1, j + 1))
        z = p[j] + sum(c[i] * p[i] for i in range(j))

    each sum added left to right from the 0 that `sum` starts from. z is
    None for j = 1: z_1, which no step reads, is not formed. x_j is
    `_degree_x`'s, formed after the degree loop and only where handed on."""
    j = len(a)
    np.add(p[0], _sum_into(r, a, p[1:]), out=r)
    if z is not None:
        np.add(p[j], _sum_into(z, c, p[:j]), out=z)


def _degree_x(x, x0, a, *p):
    """Write x_j of bootstrap degree j = len(a), from x0 and the Krylov
    vectors p = (r0, A r0, ..., A^{j-1} r0), into x:

        x = x0 - sum(a[i - 1] * p[i - 1] for i in range(1, j + 1))

    the sum added as `_degree_vectors` adds its own."""
    np.subtract(x0, _sum_into(x, a, p), out=x)


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
    reduction would change. gamma_j is `linalg.norm` of the remainder w.
    Returns (beta_j, alpha_j, gamma_j).
    """
    w = linalg.transpose_matvec(A, v)
    beta = 0.0
    if v_prev is not None:
        beta = float(v_prev.dot(w))
        linalg.blockwise(_subtract_multiple, w, v_prev, beta)
    alpha = float(v.dot(w))
    linalg.blockwise(_subtract_multiple, w, v, alpha)
    gamma = linalg.norm(w)
    linalg.blockwise(np.divide, w, gamma if gamma > 0.0 else 1.0, out)
    return beta, alpha, gamma


def _subtract_multiple(w, u, coefficient) -> None:
    """w -= coefficient * u, in place in w."""
    w -= np.multiply(coefficient, u)


def _advance_rx(r2, z3, x2, ar, a2r, az3, a2z3, ca):
    """Write r_k over a2r and x_k over ar, products that die with the step,
    from the vectors of degree k - 2 and k - 3 and their products:

        r_k = a_k * (a2r + b_k * ar + c_k * r2 + e_k * a2z3 + f_k * az3)
        x_k = x2 - a_k * (ar + b_k * r2 + e_k * az3 + f_k * z3)

    In that order, since r_k still reads ar. The coefficients of `ca` are
    made 0-d arrays once per call, which numpy multiplies by faster than
    by Python floats, with the same bits; four of the five are read twice.
    The ufunc calls are those into new vectors, so the bits are too."""
    add, multiply, r, x = np.add, np.multiply, a2r, ar
    a_k, b_k, c_k, e_k, f_k = map(np.array, ca[:5])
    add(a2r, multiply(b_k, ar), out=r)
    add(r, multiply(c_k, r2), out=r)
    add(r, multiply(e_k, a2z3), out=r)
    add(r, multiply(f_k, az3), out=r)
    multiply(a_k, r, out=r)
    add(ar, multiply(b_k, r2), out=x)
    add(x, multiply(e_k, az3), out=x)
    add(x, multiply(f_k, z3), out=x)
    np.subtract(x2, multiply(a_k, x, out=x), out=x)


def _advance_z(z3, z2, az3, az2, a2z2, cb):
    """Write z_k over az3, the last product of z_{k-3} left, from the vectors
    of degree k - 2 and k - 3 and their products:

        z_k = cb.c_k * az3 + cb.d_k * z3 + a2z2 + cb.f_k * az2 + cb.g_k * z2

    The ufunc calls are those into a new vector, so the bits are too. The
    coefficients stay Python floats: each is read once, and making it a
    0-d array costs more than the multiplication saves."""
    add, multiply, z = np.add, np.multiply, az3
    multiply(cb.c_k, az3, out=z)
    add(z, multiply(cb.d_k, z3), out=z)
    add(z, a2z2, out=z)
    add(z, multiply(cb.f_k, az2), out=z)
    add(z, multiply(cb.g_k, z2), out=z)


def step(state: SolverState, A: linalg.Matrix) -> SolverState:
    """Advance one degree in place: new r, x, z and one new left vector.

    Exactly 6 applications of A plus 1 of A^T. First come two window gemvs,
    with r_{k-2} and z_{k-2}, put in degree order; the latter's last six
    are the next step's `z3_products`. The new iterates are then formed in
    two stages, block by block on long vectors, the blocks split across
    the usable CPUs: after the four products with r_{k-2} and z_{k-3}, r_k
    and x_k are written over A^2 r_{k-2} and A r_{k-2}, and A^2 z_{k-3} is
    dropped; then, after the two with z_{k-2}, z_k is written over
    A z_{k-3}. So at most five products are alive at once. The new
    iterates overflow where `linalg.norm` of one, ||r_k||, ||z_k|| or
    ||x_k||, is not finite, the rule of the bootstrap's r_j and the seed
    draw's r0 too. That takes one BLAS dot product per vector and no
    boolean temporary. r_k, x_k and z_k take the slots of r_{k-2}, x_{k-2}
    and z_{k-3}. Returns `state`
    itself. Breakdowns from the coefficient computation and overflow of
    the new iterates, read after both stages, propagate before any live
    vector or field is modified, an overflow after the six products with A
    and before the one with A^T. The new left vector v_{k+3} overwrites
    v_{k-4}, the oldest row of the window, after the products not reused
    are freed, and the column of v_{k+2} replaces that of v_{k-4}. If
    x_{k-2}, which leaves its slot, is still `best_x`, it is copied into
    `state.kept` (see `SolverState`).
    """
    k = state.k
    if k < BOOTSTRAP_DEGREE + 1 or state.u_window is None:
        raise ValueError("state is not positioned for recurrence steps")
    r2, x2, z3, z2 = state.r[(k - 2) % 2], state.x[(k - 2) % 2], state.z[(k - 3) % 3], state.z[(k - 2) % 3]
    head = (k - 5) % WINDOW  # the row of v_{k-4}
    r_products, z2_products = (p[head:] + p[:head]  # v_{k-4}..v_{k+2}, in degree order
                               for p in map(np.ndarray.tolist, linalg.parallel_map(state.u_window.dot, (r2, z2))))
    sp = recurrences.assemble_scalar_products(r_products, state.z3_products, z2_products, state.u_columns)
    ca = recurrences.a13_coefficients(sp)
    cb = recurrences.b13_coefficients(sp)

    ar = linalg.matvec(A, r2)
    a2r = linalg.matvec(A, ar)
    az3 = linalg.matvec(A, z3)
    a2z3 = linalg.matvec(A, az3)
    linalg.blockwise(_advance_rx, r2, z3, x2, ar, a2r, az3, a2z3, ca)
    r_k, x_k, a2z3 = a2r, ar, None  # frees A^2 z_{k-3} before the products of z_{k-2}
    az2 = linalg.matvec(A, z2)
    a2z2 = linalg.matvec(A, az2)
    linalg.blockwise(_advance_z, z3, z2, az3, az2, a2z2, cb)
    z_k, az2, a2z2 = az3, None, None  # frees the two products not reused

    rn = linalg.norm(r_k)
    if not (math.isfinite(rn) and math.isfinite(linalg.norm(z_k)) and math.isfinite(linalg.norm(x_k))):
        raise NumericOverflow(f"iterate overflowed at degree {k}")

    window, newest = state.u_window, (head - 1) % WINDOW
    column = _extend_left(A, window[(head - 2) % WINDOW], window[newest], window[head])  # of v_{k+2}
    state.u_columns = [*state.u_columns[1:], column]  # a new list: the one handed to the assembly stays as it was
    state.history.append((k, rn, "step"))
    state.iterations += 1
    state.k = k + 1
    state.r[k % 2], state.x[k % 2], state.z[k % 3] = r_k, x_k, z_k
    state.z3_products = z2_products[1:]
    if rn < state.best_resnorm:
        state.best_resnorm, state.best_x = rn, x_k
    elif state.best_x is x2:
        _keep_best(state)
    return state


def _keep_best(state: SolverState) -> None:
    """Copy `best_x` into `state.kept`, if any, once no x slot holds it; name it best_x."""
    if state.kept is not None and state.best_x is not state.kept and not any(state.best_x is x for x in state.x or ()):
        np.copyto(state.kept, state.best_x)
        state.best_x = state.kept


def _start(record: SolverState, A: linalg.Matrix, bv, rng, tol: float) -> SolverState:
    """Draw y and bootstrap from `record.best_x`; the fresh state takes over
    the run record (history, causes, iterations, `kept`, a better best
    iterate) and keeps its best_x. A failure leaves `record` untouched."""
    y = _draw_left_seed(rng, A, bv, record.best_x)
    fresh = bootstrap(A, bv, record.best_x, y, tol=tol)
    record.history.extend(fresh.history)
    fresh.history = record.history
    fresh.restart_causes = record.restart_causes
    fresh.kept = record.kept
    fresh.iterations += record.iterations
    if record.best_resnorm < fresh.best_resnorm:
        fresh.best_resnorm, fresh.best_x = record.best_resnorm, record.best_x
    _keep_best(fresh)
    return fresh


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
    history entry and RestartsExhausted is raised. Otherwise each attempt
    is `solve`'s own first start, `_start`: the fresh bootstrap state
    takes over the run record, history append-only. `state` keeps only
    that record: its iterates, window and window products are dropped
    before the first draw, so no bootstrap runs beside them, and the best
    iterate is held in `kept` first, which the fresh state takes over.
    """
    state.r = state.x = state.z = state.u_window = state.u_columns = state.z3_products = None
    _keep_best(state)
    bv = linalg.as_vector(b)
    k_at_failure = state.k
    while state.restarts < config.max_restarts:
        state.restart_causes.append(cause)
        state.history.append((k_at_failure, state.best_resnorm, f"restart:{cause}"))
        try:
            return _start(state, A, bv, rng, config.tol)
        except (BreakdownError, NumericOverflow) as exc:
            cause = exc.cause
            k_at_failure = 0
            if isinstance(exc, KrylovOverflow):
                break  # the same products fail again with any other seed
    state.history.append((k_at_failure, state.best_resnorm, f"exhausted:{cause}"))
    raise RestartsExhausted(f"{state.restarts} restarts used without convergence")


def solve(A: linalg.Matrix, b, x0=None, config: SolverConfig | None = None):
    """Run the solver until convergence, iteration cap, or restart exhaustion.

    Returns (x, SolveReport). Never raises on numerical failure, whatever
    numpy's error settings; every failure mode lands in the report status.
    The convergence test is ||r_k|| <= tol * ||b||.

    The iteration runs on b and x0 scaled by 2^-e, e the binary exponent
    of max|b| (or the least e that keeps the scaled x0 finite, if larger),
    so that norms of b near the ends of the double range neither overflow
    nor underflow; x and the residual norms of the report are scaled back.
    Power-of-two scaling is exact, so the result is the unit-scale solve
    times 2^e, bit for bit. The scaled b is held per (re)start, through
    its seed draw and bootstrap: each restart gets a fresh np.ldexp(b, -e),
    and no step holds one. The scaled x0 is the state's `kept` vector, and
    x is scaled back into it.
    """
    cfg = config if config is not None else SolverConfig()
    b = linalg.as_vector(b)
    n = A.rows
    if A.cols != n or len(b) != n:
        raise DimensionMismatch("solve needs a square matrix matching b")
    x0v = None if x0 is None else linalg.as_vector(x0)
    if x0v is not None and len(x0v) != n:
        raise DimensionMismatch(f"solve needs x0 of length {n} to match b, got length {len(x0v)}")
    with np.errstate(all="ignore"):  # every failure is read off the values computed
        exponent = math.frexp(max(float(b.max()), -float(b.min())))[1]  # of max|b|; b is finite
        if x0v is not None:  # raised only where 2^-e would scale x0 past the double range
            exponent = max(exponent, math.frexp(max(float(x0v.max()), -float(x0v.min())))[1] - 1024)
        bv = np.ldexp(b, -exponent)
        x0v = np.zeros(n) if x0v is None else np.ldexp(x0v, -exponent)
        max_iter = cfg.max_iter if cfg.max_iter is not None else 2 * n + 10
        rng = np.random.default_rng(cfg.seed)
        bn = linalg.norm(bv)
        conv_floor = cfg.tol * bn

        cause = None
        state = SolverState(k=0, best_x=x0v, kept=x0v)
        try:
            state = _start(state, A, bv, rng, cfg.tol)
        except (BreakdownError, NumericOverflow) as exc:
            state.best_resnorm = linalg.norm(bv - linalg.matvec(A, x0v))
            state.history.append((0, state.best_resnorm, "bootstrap"))
            cause = exc.cause
        # Not read again (x0v lives on as `kept`; a restart scales b afresh); at n = 1e6 each holds 8 MB.
        bv = x0v = None

        while True:
            if cause is not None:
                try:
                    state = restart(state, A, np.ldexp(b, -exponent), cfg, cause=cause, rng=rng)
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
        # x goes into `kept`, which best_x then names, so the vectors freed here are the same whichever was best.
        x = state.best_x = np.ldexp(state.best_x, exponent, out=state.kept)
        report, state = _report(state, status, bn, exponent), None  # frees the vectors
        return x, report


def _draw_left_seed(rng, A, b, x0) -> np.ndarray:
    """Unit-normal y, rejected while nearly orthogonal to the current residual
    (a zero residual takes the first draw).

    Raises KrylovOverflow when that residual is not finite.
    """
    r0 = b - linalg.matvec(A, x0)
    r0n = linalg.norm(r0)
    if not math.isfinite(r0n):
        raise KrylovOverflow("residual of the starting iterate overflowed")
    for _ in range(_LEFT_SEED_TRIES):
        y = rng.standard_normal(len(b))
        if abs(float(y.dot(r0))) >= 1e-10 * linalg.norm(y) * r0n:
            return y
    raise RuntimeError("could not draw a usable left seed")


def _report(state: SolverState, status: str, bn: float, exponent: int) -> SolveReport:
    """The run record, residual norms scaled by 2^exponent back to the caller's b.

    The history entries are rescaled in place, one at a time, so a long
    history is never held twice. A norm past the double range at the
    caller's scale is reported as inf.
    """
    denom = bn if bn > 0 else 1.0
    for i, (k, rn, ev) in enumerate(state.history):
        try:
            rn = math.ldexp(rn, exponent)
        except OverflowError:
            rn = math.inf
        state.history[i] = (k, rn, ev)
    return SolveReport(
        status=status,
        iterations=state.iterations,
        restarts=state.restarts,
        restart_causes=tuple(state.restart_causes),
        entries=tuple(state.history),
        final_relative_residual=state.best_resnorm / denom,
    )
