import math

import numpy as np
import pytest

import fopsolve as fs
from fopsolve.cli import ring_spectrum_fixture
from fopsolve.errors import (
    DimensionMismatch,
    DivisorBreakdown,
    GhostBreakdown,
    NormalizationBreakdown,
    NumericOverflow,
    RankDeficient,
    TrueBreakdown,
)
from fopsolve import recurrences
from fopsolve.recurrences import EXISTS_TOL, NONEXISTENCE_TOL

from helpers import (
    PURE_SHIFT,
    a13_closed_form_check,
    apply_functional,
    assert_same_coefficient_path,
    b13_closed_form_check,
    bridged_scalar_products,
    d3b_fixture,
    expand_a13_multipliers,
    expand_b13_multipliers,
    iterate,
    poly_matrix_apply,
    power_scalar_products,
    power_window,
    reconstruct_from_relation,
    reference_scalar_products,
    window_products,
)


def sp_from_values(cr, cz, dz):
    return recurrences._expand((*cr, *cz, *dz), PURE_SHIFT)


# ---------------------------------------------------------------------------
# scalar products
# ---------------------------------------------------------------------------

def test_assemble_window_length_contract():
    # Each of the three product arrays and the columns must hold a row per
    # window vector.
    for short in range(4):
        inputs = [np.ones(7), np.ones(7), np.ones(7), np.ones((7, 3))]
        inputs[short] = inputs[short][:3]
        with pytest.raises(DimensionMismatch):
            fs.assemble_scalar_products(*inputs)


def test_assemble_matches_functional_on_d3b():
    A, ones, c = d3b_fixture()
    k = 5
    window, columns = power_window(A, ones, k)
    p_km2 = fs.oracle_p(c, k - 2)
    q_km3 = fs.oracle_p1(c, k - 3)
    q_km2 = fs.oracle_p1(c, k - 2)
    r_km2, z_km3, z_km2 = (poly_matrix_apply(p, A, ones) for p in (p_km2, q_km3, q_km2))
    sp = fs.assemble_scalar_products(*window_products(window, r_km2, z_km3, z_km2), columns=columns)
    expected = [
        apply_functional(c, p_km2, 0, k - 2 + i) for i in range(4)
    ] + [
        apply_functional(c, q_km3, 1, k - 3 + i) for i in range(4)
    ] + [
        apply_functional(c, q_km2, 1, k - 2 + i) for i in range(4)
    ]
    for got, want in zip(sp.values, expected):
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_assemble_zero_residual_degenerate_case():
    ones = np.ones(4)
    r1 = np.zeros(4)  # converged residual
    sp = fs.assemble_scalar_products(*window_products(np.full((7, 4), 2.0), r1, ones, ones),
                                     columns=np.array(PURE_SHIFT[:1] * 7))
    assert sp.values[0] == 0.0 and sp.values[3] == 0.0


def test_assemble_symmetric_matrix_reduces_to_power_products():
    a = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    A = fs.Matrix.from_dense(a)
    r0 = np.array([1.0, 0.5, -0.25])
    window, columns = power_window(A, r0, 4)  # u_0..u_6, so c(x^{k-2+i} .) is u_{2+i}
    r_m = np.array([0.1, -0.2, 0.3])
    sp = fs.assemble_scalar_products(*window_products(window, r_m, r_m, r_m), columns=columns)
    for i in range(4):
        direct = float((np.linalg.matrix_power(a, i + 2) @ r0) @ r_m)
        assert abs(sp.values[i] - direct) <= 1e-12 * max(1.0, abs(direct))


def test_pure_shift_window_matches_power_products_at_every_head():
    # The power basis is the left window whose columns are the pure shift;
    # the window rows are stored cyclically from `head` on.
    for seed in range(3):
        A, _, y = ring_spectrum_fixture(12, seed)
        r_km2, z_km3, z_km2 = np.random.default_rng(seed).standard_normal((3, 12))
        window, columns = power_window(A, y, 6)
        ref = power_scalar_products(window[2:], r_km2, z_km3, z_km2)
        for head in range(7):
            sp = fs.assemble_scalar_products(*window_products(np.roll(window, head, axis=0), r_km2, z_km3, z_km2),
                                             columns=np.roll(columns, head, axis=0), head=head)
            assert sp.columns == PURE_SHIFT
            for got, want in zip(sp.values, ref.values):
                assert abs(got - want) <= 1e-12 * ref.scale


def random_window_case(rng, mode, n=4):
    """A random (7, n) window, three vectors and (7, 3) columns.

    Mode 0 is standard normal; mode 1 draws small integers, whose exact
    cancellations make every breakdown class appear; mode 2 spreads the
    binary exponents over +-60; mode 3 zeroes random column entries."""
    shapes = ((7, n), (n,), (n,), (n,), (7, 3))
    if mode == 1:
        return [rng.integers(-2, 3, size=s).astype(float) for s in shapes]
    parts = [rng.standard_normal(s) for s in shapes]
    if mode == 2:
        parts = [np.ldexp(x, rng.integers(-60, 61, size=x.shape)) for x in parts]
    if mode == 3:
        parts[4][rng.random((7, 3)) < 0.3] = 0.0
    return parts


def test_flat_float_path_matches_the_reference_on_random_windows():
    rng = np.random.default_rng(2024)
    seen = set()
    for i in range(20000):
        window, r_km2, z_km3, z_km2, columns = random_window_case(rng, i % 4)
        head = int(rng.integers(7))
        products = window_products(window, r_km2, z_km3, z_km2)
        sp = fs.assemble_scalar_products(*products, columns=columns, head=head)
        ref = reference_scalar_products(*products, columns, head)
        seen.update(assert_same_coefficient_path(sp, ref))
    assert seen == {"ok", TrueBreakdown, GhostBreakdown, NormalizationBreakdown, DivisorBreakdown}


@pytest.mark.parametrize("field", range(12))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_functional_value_is_numeric_overflow(field, bad):
    values = [1.0] * 12
    values[field] = bad
    sp = recurrences._expand(tuple(values), PURE_SHIFT)
    with pytest.raises(NumericOverflow):
        fs.a13_coefficients(sp)
    with pytest.raises(NumericOverflow):
        fs.b13_coefficients(sp)


def test_finite_values_whose_cube_overflows_are_numeric_overflow():
    # Finite functional values of about 2.6e120: max|a_ij|^3 in the
    # determinant test overflows, which a Python float power raises as
    # OverflowError instead of returning inf.
    sp = recurrences._expand((2.0**400,) * 12, PURE_SHIFT)
    assert math.isfinite(sp.scale)
    with pytest.raises(NumericOverflow):
        fs.a13_coefficients(sp)
    with pytest.raises(NumericOverflow):
        fs.b13_coefficients(sp)


def _rows_with_an_overflowing_right_hand_side(p0, p1, q0, s0, s1):
    """Hand-built rows, every entry finite, whose first 3x3 right-hand side
    entry overflows in both recurrences: c(N_(k-4) x^2 P_(k-2)) and
    c1(N_(k-4) x^2 P1_(k-2)) are 1e298 against a shared denominator of
    1e297, so E_k = C_k = -10, times c1(N_(k-3) x P1_(k-3)) = 1e308."""
    x2 = (1e298, 1.0, 1.0, 1.0)
    q1 = (1e297, 1e308, 1.0, 1.0)
    rows = (p0, p1, x2, q0, q1, s0, s1, x2)
    return recurrences.ScalarProducts((), (), rows, max(map(abs, sum(rows, ()))))


def test_an_overflowing_right_hand_side_is_numeric_overflow():
    # Each 3x3 system is nonsingular with O(1) entries, and only -p2[1] -
    # e_k * q1[1] (A13) or -s2[1] - c_k * q1[1] (B13) is not finite. A13
    # used to reach solve_dense, whose ValueError escaped `solve`; B13's
    # back-substitution divisors underflow that scale, so it used to read
    # DivisorBreakdown. A non-finite value is NumericOverflow first.
    a13 = _rows_with_an_overflowing_right_hand_side(  # rows (p1[i], p0[i], q0[i]) = identity
        p0=(0.0, 0.0, 1.0, 0.0), p1=(0.0, 1.0, 0.0, 0.0), q0=(0.0, 0.0, 0.0, 1.0),
        s0=(0.0,) * 4, s1=(0.0,) * 4)
    b13 = _rows_with_an_overflowing_right_hand_side(  # rows (q0[i], s1[i], s0[i]) = unit upper bidiagonal
        p0=(0.0,) * 4, p1=(0.0,) * 4, q0=(0.0, 1.0, 0.0, 0.0),
        s0=(0.0, 0.0, 1.0, 1.0), s1=(0.0, 1.0, 1.0, 0.0))
    for sp, coefficients in ((a13, fs.a13_coefficients), (b13, fs.b13_coefficients)):
        assert sp.scale == 1e308
        with pytest.raises(NumericOverflow, match="right-hand side"):
            coefficients(sp)


# ---------------------------------------------------------------------------
# closed-form coefficients vs the fitted certificate
# ---------------------------------------------------------------------------

def test_a13_coefficients_match_fit_on_d3b_k5():
    A, ones, c = d3b_fixture()
    sp = bridged_scalar_products(A, ones, ones, c, 5)
    coeffs = fs.a13_coefficients(sp)
    quad, cubic = expand_a13_multipliers(coeffs)
    report = fs.fit_relation(fs.A13, c, 5)
    fitted = np.concatenate([report.multipliers[0], report.multipliers[1]])
    mapped = np.concatenate([quad, cubic])
    assert np.abs(fitted - mapped).max() <= 1e-8 * np.abs(mapped).max()


def test_a13_normalization_identity():
    A, ones, c = d3b_fixture()
    sp = bridged_scalar_products(A, ones, ones, c, 5)
    coeffs = fs.a13_coefficients(sp)
    assert abs(coeffs.a_k * coeffs.c_k - 1.0) <= 1e-12


def test_a13_reconstructs_oracle_polynomial():
    A, ones, c = d3b_fixture()
    k = 5
    sp = bridged_scalar_products(A, ones, ones, c, k)
    coeffs = fs.a13_coefficients(sp)
    quad, cubic = expand_a13_multipliers(coeffs)
    rec = reconstruct_from_relation(
        [quad, cubic], [fs.oracle_p(c, k - 2), fs.oracle_p1(c, k - 3)], k)
    target = fs.oracle_p(c, k).coeffs
    assert np.abs(rec - target).max() <= 1e-8 * np.abs(target).max()


def test_b13_coefficients_match_fit_on_d3b_k5():
    A, ones, c = d3b_fixture()
    sp = bridged_scalar_products(A, ones, ones, c, 5)
    coeffs = fs.b13_coefficients(sp)
    lin, quad = expand_b13_multipliers(coeffs)
    report = fs.fit_relation(fs.B13, c, 5)
    fitted = np.concatenate([report.multipliers[0], report.multipliers[1]])
    mapped = np.concatenate([lin, quad])
    assert np.abs(fitted - mapped).max() <= 1e-8 * np.abs(mapped).max()


def test_b13_reconstruction_is_monic_and_orthogonal():
    A, ones, c = d3b_fixture()
    k = 5
    sp = bridged_scalar_products(A, ones, ones, c, k)
    coeffs = fs.b13_coefficients(sp)
    lin, quad = expand_b13_multipliers(coeffs)
    rec = reconstruct_from_relation(
        [lin, quad], [fs.oracle_p1(c, k - 3), fs.oracle_p1(c, k - 2)], k)
    assert abs(rec[k] - 1.0) <= 1e-10
    target = fs.oracle_p1(c, k).coeffs
    assert np.abs(rec - target).max() <= 1e-8 * np.abs(target).max()
    floor = 1e-8 * np.abs(c.values).max()
    for i in range(k):
        assert abs(apply_functional(c, rec, 1, i)) <= floor


def test_closed_forms_match_fit_for_deep_degrees():
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        c = fs.compute_moments(A, r0, y, 18)
        for k in range(5, 9):
            sp = bridged_scalar_products(A, r0, y, c, k)
            ca = fs.a13_coefficients(sp)
            quad, cubic = expand_a13_multipliers(ca)
            ra = fs.fit_relation(fs.A13, c, k)
            fitted = np.concatenate([ra.multipliers[0], ra.multipliers[1]])
            mapped = np.concatenate([quad, cubic])
            assert np.abs(fitted - mapped).max() <= 1e-8 * np.abs(mapped).max()

            cb = fs.b13_coefficients(sp)
            lin, quadb = expand_b13_multipliers(cb)
            rb = fs.fit_relation(fs.B13, c, k)
            fittedb = np.concatenate([rb.multipliers[0], rb.multipliers[1]])
            mappedb = np.concatenate([lin, quadb])
            assert np.abs(fittedb - mappedb).max() <= 1e-8 * np.abs(mappedb).max()


def test_pivoted_solve_agrees_with_cofactor_formulas():
    A_d3b, ones, c_d3b = d3b_fixture()
    fixtures = [(A_d3b, ones, ones, c_d3b)]
    for seed in range(2):
        A, r0, y = ring_spectrum_fixture(12, seed)
        fixtures.append((A, r0, y, fs.compute_moments(A, r0, y, 18)))
    for A, r0, y, c in fixtures:
        for k in (5, 6):
            sp = bridged_scalar_products(A, r0, y, c, k)
            got = fs.a13_coefficients(sp)
            ref = a13_closed_form_check(sp)
            for a, b in zip((got.a_k, got.b_k, got.c_k, got.e_k, got.f_k, got.delta_k), ref):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
            gotb = fs.b13_coefficients(sp)
            refb = b13_closed_form_check(sp)
            for a, b in zip((gotb.c_k, gotb.d_k, gotb.f_k, gotb.g_k, gotb.delta_prime_k), refb):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_bounded_window_coefficients_match_power_basis():
    # same orthogonality conditions, other test functions: same coefficients
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        c = fs.compute_moments(A, r0, y, 18)
        state = fs.bootstrap(A, r0, np.zeros(12), y, tol=1e-14)
        for k in range(5, 9):
            assert state.k == k
            r_km2, _, z_km2 = iterate(state, k - 2)
            z_km3 = iterate(state, k - 3)[2]
            sp = fs.assemble_scalar_products(*window_products(state.u_window, r_km2, z_km3, z_km2),
                                             columns=state.u_columns, head=(k - 5) % 7)
            ref = bridged_scalar_products(A, r0, y, c, k)
            got_a, want_a = fs.a13_coefficients(sp), fs.a13_coefficients(ref)
            got_b, want_b = fs.b13_coefficients(sp), fs.b13_coefficients(ref)
            for name in ("a_k", "b_k", "c_k", "e_k", "f_k"):
                want = getattr(want_a, name)
                assert abs(getattr(got_a, name) - want) <= 1e-8 * max(1.0, abs(want))
            for name in ("c_k", "d_k", "f_k", "g_k"):
                want = getattr(want_b, name)
                assert abs(getattr(got_b, name) - want) <= 1e-8 * max(1.0, abs(want))
            fs.step(state, A)


# ---------------------------------------------------------------------------
# existence certificates
# ---------------------------------------------------------------------------

def test_a13_exists_on_d3b():
    _, _, c = d3b_fixture()
    report = fs.fit_relation(fs.A13, c, 5)
    assert report.exists and report.relative_residual < 1e-8
    fitted = reconstruct_from_relation(report.multipliers, [fs.oracle_p(c, 3), fs.oracle_p1(c, 2)], 5)
    assert abs(fitted[0] - 1.0) <= EXISTS_TOL  # the fitted P_5 keeps P_5(0) = 1
    assert report.classification == "exists"


def test_a14_exists_on_d3b():
    _, _, c = d3b_fixture()
    report = fs.fit_relation(fs.A14, c, 5)
    assert report.exists


def test_a11_b11_nonexistent_on_seeded_fixtures():
    hits = {"A11": 0, "B11": 0}
    runs = 20
    for seed in range(runs):
        A, r0, y = ring_spectrum_fixture(10, seed)
        c = fs.compute_moments(A, r0, y, 14)
        for name in hits:
            report = fs.fit_relation(fs.FORMS[name], c, 6)
            if report.relative_residual > NONEXISTENCE_TOL:
                hits[name] += 1
    assert hits["A11"] >= 19
    assert hits["B11"] >= 19


def test_fit_raises_rank_deficient_on_a_two_dimensional_null_space():
    # A term listed twice repeats its two columns: 4 columns of rank 2, so the
    # solution family is two-dimensional and has no sparsest member to pick.
    twice = fs.RelationForm("P(k-1) twice", fs.FAMILY_P, ((fs.FAMILY_P, -1, 1), (fs.FAMILY_P, -1, 1)))
    c = fs.compute_moments(*ring_spectrum_fixture(10, 0), 12)
    with pytest.raises(RankDeficient, match="rank 2 < 4 columns"):
        fs.fit_relation(twice, c, 6)


def test_derived_zero_structure():
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        c = fs.compute_moments(A, r0, y, 18)
        for k in range(5, 9):
            target_norm = np.linalg.norm(fs.oracle_p(c, k).coeffs)
            ra = fs.fit_relation(fs.A13, c, k)
            cubic = ra.multipliers[1]
            assert abs(cubic[0]) <= 1e-8 * target_norm  # constant of the P1 block
            assert abs(cubic[3]) <= 1e-8 * target_norm  # x^3 of the P1 block
            target_norm1 = np.linalg.norm(fs.oracle_p1(c, k).coeffs)
            rb = fs.fit_relation(fs.B13, c, k)
            lin = rb.multipliers[0]
            assert abs(lin[2]) <= 1e-8 * target_norm1
            assert abs(lin[3]) <= 1e-8 * target_norm1
            assert abs(rb.multipliers[1][2] - 1.0) <= 1e-8  # monic carrier


def test_residual_homogeneous_under_moment_scaling():
    A, r0, y = ring_spectrum_fixture(10, 1)
    c = fs.compute_moments(A, r0, y, 14)
    c_pow2 = fs.MomentSequence(c.values * 1024.0)
    c_dec = fs.MomentSequence(c.values * 1000.0)
    for name in ("A11", "A13", "B11", "B13", "A14"):
        base = fs.fit_relation(fs.FORMS[name], c, 6).relative_residual
        # power-of-two scaling reproduces every float exactly
        assert fs.fit_relation(fs.FORMS[name], c_pow2, 6).relative_residual == base
    for name in ("A11", "B11"):
        base = fs.fit_relation(fs.FORMS[name], c, 6).relative_residual
        dec = fs.fit_relation(fs.FORMS[name], c_dec, 6).relative_residual
        assert abs(dec - base) <= 1e-10 * base


# ---------------------------------------------------------------------------
# breakdown detection
# ---------------------------------------------------------------------------

def test_a13_true_breakdown_on_vanishing_denominator():
    sp = sp_from_values([1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(TrueBreakdown):
        fs.a13_coefficients(sp)


def test_a13_ghost_breakdown_on_singular_system():
    sp = sp_from_values([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(GhostBreakdown):
        fs.a13_coefficients(sp)


def test_a13_singular_pivot_below_the_determinant_test_is_ghost(monkeypatch):
    # det = 1e-14 passes the determinant test at a threshold of 1e-15, but the
    # second elimination pivot (-1e-14) falls below solve_dense's 1e-13 floor.
    monkeypatch.setattr(recurrences, "BREAKDOWN_EPS", 1e-15)
    sp = sp_from_values([0.0, 1e-7, 1.0, 0.0], [1.0, 0.0, 0.5, 0.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(GhostBreakdown, match="pivot 1"):
        fs.a13_coefficients(sp)


def test_a13_normalization_breakdown():
    # engineered so the 3x3 is regular but its second unknown is exactly zero
    sp = sp_from_values([1.0, 0.0, 1.0, 0.0], [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(NormalizationBreakdown):
        fs.a13_coefficients(sp)


def test_b13_true_breakdown():
    sp = sp_from_values([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(TrueBreakdown):
        fs.b13_coefficients(sp)


def test_b13_ghost_breakdown():
    sp = sp_from_values([1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(GhostBreakdown):
        fs.b13_coefficients(sp)


def test_b13_divisor_breakdown():
    sp = sp_from_values([1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(DivisorBreakdown):
        fs.b13_coefficients(sp)


# ---------------------------------------------------------------------------
# form and report contracts
# ---------------------------------------------------------------------------

def test_relation_form_degree_consistency():
    with pytest.raises(ValueError):
        fs.RelationForm("bad", fs.FAMILY_P, ((fs.FAMILY_P, -2, 1),))


def test_registered_forms_reach_degree_k():
    for form in fs.FORMS.values():
        assert max(off + d for _, off, d in form.terms) == 0


def test_fit_report_classification_bands():
    report = fs.fit_relation(fs.A13, d3b_fixture()[2], 5)
    assert report.relative_residual < EXISTS_TOL
    assert report.exists and report.classification == "exists"
    assert EXISTS_TOL < 1e-5 < NONEXISTENCE_TOL < 0.5
    for residual, band in ((0.5, "nonexistent"), (1e-5, "indeterminate")):
        report = fs.FitReport(fs.A13, 5, ((1.0,),), residual)
        assert not report.exists and report.classification == band
    with pytest.raises(ValueError):
        fs.FitReport(fs.A13, 5, ((1.0,),), -1.0)
