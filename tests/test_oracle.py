import numpy as np
import pytest

import fopsolve as fs
from fopsolve.cli import ring_spectrum_fixture
from fopsolve.errors import NonexistentPolynomial

from helpers import apply_functional, d2_fixture


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


def test_oracle_degree_cap():
    _, c = d2_fixture()
    with pytest.raises(ValueError):
        fs.oracle_p(c, 11)


def test_poly_matrix_apply_constant():
    A = fs.Matrix.diagonal([1.0, 2.0])
    v = np.array([3.0, -1.0])
    assert np.array_equal(fs.poly_matrix_apply(fs.polynomial([1.0]), A, v), v)


def test_poly_matrix_apply_d2_first_residual():
    A, c = d2_fixture()
    p1 = fs.oracle_p(c, 1)
    got = fs.poly_matrix_apply(p1, A, [1.0, 1.0])
    assert np.allclose(got, [1.0 / 3.0, -1.0 / 3.0], rtol=1e-14)


def test_poly_matrix_apply_diagonal_square():
    A = fs.Matrix.diagonal([1.0, 2.0])
    got = fs.poly_matrix_apply(fs.polynomial([0.0, 0.0, 1.0]), A, [1.0, 1.0])
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
        got = fs.poly_matrix_apply(fs.Polynomial(coeffs), A, v)
        assert np.allclose(got, naive, rtol=1e-12, atol=1e-12 * np.linalg.norm(naive))


def test_poly_matrix_apply_eigen_identity():
    lams = np.array([0.5, 1.0, 2.5, -1.0])
    A = fs.Matrix.diagonal(lams)
    v = np.array([1.0, -2.0, 0.5, 3.0])
    p = fs.polynomial([2.0, -1.0, 0.25, 1.0])
    got = fs.poly_matrix_apply(p, A, v)
    expected = np.polynomial.polynomial.polyval(lams, p.coeffs) * v
    assert np.allclose(got, expected, rtol=1e-12)


def test_polynomial_family_invariants():
    with pytest.raises(ValueError):
        fs.Polynomial(np.array([0.5, 1.0]), fs.FAMILY_P)
    with pytest.raises(ValueError):
        fs.Polynomial(np.array([1.0, 0.5]), fs.FAMILY_P1)
    assert fs.polynomial([1.0, 0.5, 0.0]).degree == 1
