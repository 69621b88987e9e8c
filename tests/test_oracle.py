import numpy as np
import pytest

import fopsolve as fs
from fopsolve import cli, linalg, moments, recurrences
from fopsolve.cli import ring_spectrum_fixture
from fopsolve.errors import MomentRangeExceeded, NonexistentPolynomial

from helpers import apply_functional, d2_fixture, float_bits, poly_matrix_apply, polynomial


def test_oracle_p_degree_zero_is_one():
    _, c = d2_fixture()
    p = fs.oracle_p(c, 0)
    assert np.array_equal(p.coeffs, [1.0])
    assert p.family == fs.FAMILY_P


def test_oracle_p_d2_degree_one():
    _, c = d2_fixture()
    p = fs.oracle_p(c, 1)
    assert np.allclose(p.coeffs, [1.0, -2.0 / 3.0], rtol=1e-15)


def test_oracle_p_d2_degree_two_annihilates_spectrum():
    # vanishes at both eigenvalues 1 and 2: (1 - x)(1 - x/2)
    _, c = d2_fixture()
    p = fs.oracle_p(c, 2)
    assert np.allclose(p.coeffs, [1.0, -1.5, 0.5], atol=1e-14)


def test_oracle_p1_degree_zero_and_one():
    _, c = d2_fixture()
    q0 = fs.oracle_p1(c, 0)
    assert np.array_equal(q0.coeffs, [1.0])
    q1 = fs.oracle_p1(c, 1)
    assert np.allclose(q1.coeffs, [-5.0 / 3.0, 1.0], rtol=1e-15)


def test_oracle_normalizations_exact():
    _, c = d2_fixture()
    assert fs.oracle_p(c, 2).coeffs[0] == 1.0
    assert fs.oracle_p1(c, 2).coeffs[-1] == 1.0


def test_polynomials_compare_and_hash_by_identity():
    p = fs.Polynomial(np.array([1.0, 2.0]), fs.FAMILY_P)
    assert p == p and hash(p) == hash(p) and len({p, p}) == 1
    assert p != fs.Polynomial(np.array([1.0]), fs.FAMILY_P)
    assert p != fs.Polynomial(np.array([1.0, 2.0]), fs.FAMILY_P)  # equal coefficients, another polynomial
    assert repr(p) == "Polynomial(coeffs=array([1., 2.]), family='P')"


def test_orthogonal_sequence_conditions():
    # c(x^i P_k) vanishes for i < k and stays away from zero at i = k
    for seed in range(3):
        A, r0, y = ring_spectrum_fixture(12, seed)
        c = fs.compute_moments(A, r0, y, 12)
        floor = 1e-10 * np.abs(c.values).max()
        for k in range(1, 6):
            p = fs.oracle_p(c, k)
            for i in range(k):
                assert abs(apply_functional(c, p, 0, i)) <= floor
            assert abs(apply_functional(c, p, 0, k)) > floor
            q = fs.oracle_p1(c, k)
            for i in range(k):
                assert abs(apply_functional(c, q, 1, i)) <= floor
            assert abs(apply_functional(c, q, 1, k)) > floor


def test_nonexistent_polynomial_on_identity_fixture():
    A = fs.Matrix.identity(4)
    c = fs.compute_moments(A, np.ones(4), np.ones(4), 6)
    with pytest.raises(NonexistentPolynomial) as info:
        fs.oracle_p(c, 2)
    assert info.value.degree == 2
    with pytest.raises(NonexistentPolynomial):
        fs.oracle_p1(c, 2)


def test_memoized_oracle_matches_a_fresh_hankel_solve():
    # P1 is asked first on odd seeds, so either family may fill the memo.
    for seed in range(4):
        A, r0, y = ring_spectrum_fixture(12, seed)
        c = fs.compute_moments(A, r0, y, 20)
        for k in range(11):
            calls = [fs.oracle_p, fs.oracle_p1][::-1 if seed % 2 else 1]
            got = {fn: fn(c, k).coeffs.tolist() for fn in calls}
            if k == 0:
                want_p, want_p1 = [1.0], [1.0]
            else:
                h = moments.hankel_matrix(c, k)
                want_p = [1.0, *linalg.solve_dense(h, -c.values[:k])]
                want_p1 = [*linalg.solve_dense(h, -c.values[k + 1:2 * k + 1]), 1.0]
            assert float_bits(got[fs.oracle_p]) == float_bits(want_p)
            assert float_bits(got[fs.oracle_p1]) == float_bits(want_p1)
            for fn in calls:  # a repeated call returns the same polynomial
                again = fn(c, k)
                assert float_bits(again.coeffs.tolist()) == float_bits(got[fn])
                assert k == 0 or again is fn(c, k)


def test_memoized_singular_hankel_raises_for_the_asked_family_every_time():
    c = fs.compute_moments(fs.Matrix.identity(4), np.ones(4), np.ones(4), 6)
    for fn, family in [(fs.oracle_p, fs.FAMILY_P), (fs.oracle_p1, fs.FAMILY_P1)] * 2:
        with pytest.raises(NonexistentPolynomial) as info:
            fn(c, 2)
        assert (info.value.degree, info.value.family) == (2, family)


def test_oracle_p_at_the_shortest_moment_range():
    # m = 2k - 1 holds H_k and P_k's right-hand side but not P1_k's.
    A, r0, y = ring_spectrum_fixture(10, 3)
    for k in range(1, 6):
        c = fs.compute_moments(A, r0, y, 2 * k - 1)
        want = [1.0, *linalg.solve_dense(moments.hankel_matrix(c, k), -c.values[:k])]
        assert float_bits(fs.oracle_p(c, k).coeffs.tolist()) == float_bits(want)
        with pytest.raises(MomentRangeExceeded):
            fs.oracle_p1(c, k)
        assert float_bits(fs.oracle_p(c, k).coeffs.tolist()) == float_bits(want)


def test_fits_on_a_shared_moment_sequence_match_fits_on_fresh_copies():
    # The verify fixtures: every form fitted on one MomentSequence (one memo)
    # gives the bits of fits that each start from an empty memo.
    k = cli.VERIFY_DEGREE
    for seed in range(cli.VERIFY_SEEDS):
        A, r0, y = ring_spectrum_fixture(cli.VERIFY_N, seed)
        shared = fs.compute_moments(A, r0, y, 2 * k)
        for form in recurrences.FORMS.values():
            fresh = fs.MomentSequence(shared.values.copy())
            got = recurrences.fit_relation(form, shared, k)
            want = recurrences.fit_relation(form, fresh, k)
            assert repr(got) == repr(want)
            assert float_bits([got.relative_residual, *sum(got.multipliers, ())]) == \
                float_bits([want.relative_residual, *sum(want.multipliers, ())])
        assert len(shared.hankel_solutions) == 4  # H_3..H_6, each eliminated once


def test_oracle_degree_cap():
    _, c = d2_fixture()
    with pytest.raises(ValueError):
        fs.oracle_p(c, 11)


def test_poly_matrix_apply_constant():
    A = fs.Matrix.diagonal([1.0, 2.0])
    v = np.array([3.0, -1.0])
    assert np.array_equal(poly_matrix_apply(polynomial([1.0]), A, v), v)


def test_poly_matrix_apply_d2_first_residual():
    A, c = d2_fixture()
    p1 = fs.oracle_p(c, 1)
    got = poly_matrix_apply(p1, A, [1.0, 1.0])
    assert np.allclose(got, [1.0 / 3.0, -1.0 / 3.0], rtol=1e-14)


def test_poly_matrix_apply_diagonal_square():
    A = fs.Matrix.diagonal([1.0, 2.0])
    got = poly_matrix_apply(polynomial([0.0, 0.0, 1.0]), A, [1.0, 1.0])
    assert np.allclose(got, [1.0, 4.0], atol=0)


def test_poly_matrix_apply_matches_power_accumulation():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((7, 7)) / 3.0
    A = fs.Matrix.from_dense(a)
    v = rng.standard_normal(7)
    for deg in range(7):
        coeffs = rng.standard_normal(deg + 1)
        naive = np.zeros(7)
        power = v.copy()
        for cj in coeffs:
            naive += cj * power
            power = a @ power
        got = poly_matrix_apply(fs.Polynomial(coeffs), A, v)
        assert np.allclose(got, naive, rtol=1e-12, atol=1e-12 * np.linalg.norm(naive))


def test_poly_matrix_apply_eigen_identity():
    lams = np.array([0.5, 1.0, 2.5, -1.0])
    A = fs.Matrix.diagonal(lams)
    v = np.array([1.0, -2.0, 0.5, 3.0])
    p = polynomial([2.0, -1.0, 0.25, 1.0])
    got = poly_matrix_apply(p, A, v)
    expected = np.polynomial.polynomial.polyval(lams, p.coeffs) * v
    assert np.allclose(got, expected, rtol=1e-12)


def test_polynomial_family_invariants():
    with pytest.raises(ValueError):
        fs.Polynomial(np.array([0.5, 1.0]), fs.FAMILY_P)
    with pytest.raises(ValueError):
        fs.Polynomial(np.array([1.0, 0.5]), fs.FAMILY_P1)
    assert polynomial([1.0, 0.5, 0.0]).coeffs.tolist() == [1.0, 0.5]
