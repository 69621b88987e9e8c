import numpy as np
import pytest

import fopsolve as fs
from fopsolve.errors import DimensionMismatch, SingularSystem


def test_matvec_identity():
    assert np.array_equal(fs.matvec(fs.Matrix.identity(2), [3.0, 4.0]), [3.0, 4.0])


def test_matvec_diagonal_scaling():
    assert np.array_equal(fs.matvec(fs.Matrix.diagonal([1.0, 2.0]), [1.0, 1.0]), [1.0, 2.0])


def test_matvec_tridiagonal_row_sums():
    got = fs.matvec(fs.Matrix.tridiagonal(3), [1.0, 1.0, 1.0])
    assert np.allclose(got, [1.0, 0.0, 1.0], atol=0)


def test_matvec_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fs.matvec(fs.Matrix.identity(3), [1.0, 2.0])


def test_transpose_matvec_identity():
    assert np.array_equal(fs.transpose_matvec(fs.Matrix.identity(2), [3.0, 4.0]), [3.0, 4.0])


def test_transpose_matvec_symmetric_equals_matvec():
    m = fs.Matrix.from_dense([[2.0, -1.0], [-1.0, 2.0]])
    v = np.array([0.3, -1.2])
    assert np.array_equal(fs.transpose_matvec(m, v), fs.matvec(m, v))


def test_transpose_matvec_hand_expansion():
    m = fs.Matrix.from_dense([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(fs.transpose_matvec(m, [1.0, 0.0]), [0.0, 1.0])


@pytest.mark.parametrize("sparse", [False, True])
def test_adjoint_identity(sparse):
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows, cols = rng.integers(1, 9, size=2)
        dense = rng.standard_normal((rows, cols))
        if sparse:
            trips = [(i, j, dense[i, j]) for i in range(rows) for j in range(cols)]
            m = fs.Matrix.from_triplets((rows, cols), trips)
        else:
            m = fs.Matrix.from_dense(dense)
        u = rng.standard_normal(rows)
        v = rng.standard_normal(cols)
        left = float(fs.transpose_matvec(m, u) @ v)
        right = float(u @ fs.matvec(m, v))
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left), abs(right))


def test_sparse_coo_matches_dense():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((5, 4))
    trips = [(i, j, dense[i, j]) for i in range(5) for j in range(4) if (i + j) % 2 == 0]
    m = fs.Matrix.from_triplets((5, 4), trips)
    ref = np.zeros((5, 4))
    for i, j, v in trips:
        ref[i, j] = v
    v = rng.standard_normal(4)
    assert np.allclose(fs.matvec(m, v), ref @ v, rtol=1e-14)
    assert np.allclose(m.to_dense(), ref)


def test_matrix_duplicate_triplets_forbidden():
    with pytest.raises(ValueError):
        fs.Matrix.from_triplets((2, 2), [(0, 0, 1.0), (0, 0, 2.0)])


def test_matrix_triplet_index_range():
    with pytest.raises(DimensionMismatch):
        fs.Matrix.from_triplets((2, 2), [(0, 2, 1.0)])


def test_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        fs.Matrix.from_dense([[np.nan, 0.0], [0.0, 1.0]])


def test_vector_validation():
    with pytest.raises(ValueError):
        fs.as_vector([1.0, np.inf])
    with pytest.raises(DimensionMismatch):
        fs.as_vector([])


def test_solve_dense_identity():
    assert np.allclose(fs.solve_dense(fs.Matrix.identity(2), [5.0, 7.0]), [5.0, 7.0])


def test_solve_dense_diagonal():
    x = fs.solve_dense(fs.Matrix.from_dense([[2.0, 0.0], [0.0, 4.0]]), [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0])


def test_solve_dense_hilbert_row_sums():
    h = np.array([[1.0 / (i + j + 1) for j in range(3)] for i in range(3)])
    x = fs.solve_dense(fs.Matrix.from_dense(h), h.sum(axis=1))
    assert np.allclose(x, [1.0, 1.0, 1.0], atol=1e-10)


def test_solve_dense_residual_on_random_systems():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 11))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        x_true = rng.standard_normal(n)
        b = a @ x_true
        x = fs.solve_dense(fs.Matrix.from_dense(a), b)
        norm = np.linalg.norm(a, ord=np.inf) * np.linalg.norm(x) + np.linalg.norm(b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * norm


def test_solve_dense_singular_reports_pivot():
    with pytest.raises(SingularSystem) as info:
        fs.solve_dense(fs.Matrix.from_dense([[1.0, 1.0], [1.0, 1.0]]), [1.0, 2.0])
    assert info.value.pivot_index == 1


def test_solve_dense_size_cap():
    with pytest.raises(DimensionMismatch):
        fs.solve_dense(fs.Matrix.identity(11), np.ones(11))

