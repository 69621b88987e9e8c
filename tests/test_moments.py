import numpy as np
import pytest

import fopsolve as fs
from fopsolve.errors import DimensionMismatch, MomentRangeExceeded

from helpers import apply_functional, d2_fixture, polynomial


def test_identity_matrix_moments_all_equal():
    A = fs.Matrix.identity(3)
    r0 = np.array([1.0, -2.0, 0.5])
    y = np.array([2.0, 1.0, 1.0])
    c = fs.compute_moments(A, r0, y, 4)
    assert np.allclose(c.values, float(y @ r0))


def test_d2_moments():
    _, c = d2_fixture()
    assert np.allclose(c.values, [2.0, 3.0, 5.0, 9.0, 17.0], atol=0)


def test_d3_moments():
    A = fs.Matrix.diagonal([1.0, 2.0, 3.0])
    c = fs.compute_moments(A, np.ones(3), np.ones(3), 3)
    assert np.allclose(c.values, [3.0, 6.0, 14.0, 36.0], atol=0)


def test_moments_match_direct_inner_products():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    A = fs.Matrix.from_dense(a)
    r0 = rng.standard_normal(6)
    y = rng.standard_normal(6)
    c = fs.compute_moments(A, r0, y, 6)
    for i in range(7):
        direct = float(y @ (np.linalg.matrix_power(a, i) @ r0))
        assert abs(c[i] - direct) <= 1e-12 * max(1.0, abs(direct))


def test_moment_sequences_compare_and_hash_by_identity():
    _, c = d2_fixture()
    twin = fs.MomentSequence(c.values)
    assert c == c and hash(c) == hash(c) and {c: 1}[c] == 1
    assert c != twin  # equal moments, another sequence with a memo of its own
    assert repr(c) == repr(twin) == "MomentSequence(values=array([ 2.,  3.,  5.,  9., 17.]))"


def test_compute_moments_dimension_checks():
    with pytest.raises(DimensionMismatch):
        fs.compute_moments(fs.Matrix.identity(3), np.ones(2), np.ones(3), 2)


def test_apply_functional_d2_values():
    _, c = d2_fixture()
    one = polynomial([1.0])
    assert apply_functional(c, one) == 2.0
    assert apply_functional(c, one, shift=1) == 3.0
    p1 = fs.oracle_p(c, 1)
    assert abs(apply_functional(c, p1)) <= 1e-14


def test_apply_functional_accepts_plain_coefficients():
    _, c = d2_fixture()
    assert apply_functional(c, [1.0, 1.0]) == 5.0  # c0 + c1


def test_apply_functional_linearity():
    _, c = d2_fixture()
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = rng.standard_normal(3)
        q = rng.standard_normal(3)
        al, be = rng.standard_normal(2)
        lhs = apply_functional(c, al * p + be * q, shift=0, power=1)
        rhs = al * apply_functional(c, p, 0, 1) + be * apply_functional(c, q, 0, 1)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_apply_functional_shift_identity():
    _, c = d2_fixture()
    p = [0.5, -2.0, 1.0]
    for power in range(2):
        assert apply_functional(c, p, 1, power) == apply_functional(c, p, 0, power + 1)


def test_apply_functional_range_error():
    _, c = d2_fixture()
    with pytest.raises(MomentRangeExceeded) as info:
        apply_functional(c, [1.0, 1.0], shift=1, power=3)
    assert info.value.required_index == 5


def test_compute_moments_overflow():
    from fopsolve.errors import NumericOverflow
    A = fs.Matrix.diagonal([1e308, 1.0])
    with np.errstate(over="ignore"), pytest.raises(NumericOverflow):
        fs.compute_moments(A, np.ones(2), np.ones(2), 3)


def test_moment_sequence_spot_reevaluation():
    # cached values agree with a fresh inner-product evaluation
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 5))
    A = fs.Matrix.from_dense(a)
    r0 = rng.standard_normal(5)
    y = rng.standard_normal(5)
    c = fs.compute_moments(A, r0, y, 5)
    v = r0.copy()
    for i in range(6):
        direct = float(y @ v)
        assert abs(c[i] - direct) <= 1e-12 * max(1.0, abs(direct))
        v = fs.matvec(A, v)


def test_moment_sequence_keeps_its_own_read_only_copy():
    # The oracle memoizes on the sequence, so its values must not change.
    base = np.arange(1.0, 6.0)
    c = fs.MomentSequence(base[1:])
    base[2] = 7.0
    assert c.values.tolist() == [2.0, 3.0, 4.0, 5.0]
    assert base.flags.writeable and not c.values.flags.writeable
