"""Unit tests for the sparse kernels and weighted norms."""

import math

import numpy as np
import pytest

from conic_pdhg.linalg import (
    NumericalError,
    SparseMatrix,
    WeightedNormContext,
    inf_norm,
    n_norm,
    omega_norm,
    one_norm,
    two_norm,
)


def test_matvec_identity():
    a = SparseMatrix(np.eye(3))
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(a.matvec(x), x)


def test_matvec_hand_example():
    a = SparseMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
    np.testing.assert_allclose(a.matvec(np.array([1.0, 1.0])), [3.0, 3.0])
    np.testing.assert_allclose(a.rmatvec(np.array([1.0, 1.0])), [1.0, 5.0])


def test_matvec_against_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        dense = rng.standard_normal((50, 40)) * (rng.random((50, 40)) < 0.3)
        a = SparseMatrix(dense)
        x = rng.standard_normal(40)
        y = rng.standard_normal(50)
        assert np.max(np.abs(a.matvec(x) - dense @ x)) <= 1e-12
        assert np.max(np.abs(a.rmatvec(y) - dense.T @ y)) <= 1e-12


def test_matvec_agrees_with_the_csr_of_its_triplets():
    rng = np.random.default_rng(1)
    dense = rng.standard_normal((30, 20)) * (rng.random((30, 20)) < 0.4)
    a = SparseMatrix(dense)
    x = rng.standard_normal(20)
    np.testing.assert_allclose(a.matvec(x), a.tocoo().tocsr() @ x, atol=1e-12)


def test_callers_csr_left_unchanged():
    # sum_duplicates sorts column indices in place
    import scipy.sparse as sp

    csr = sp.csr_matrix((np.array([3.0, 1.0, 2.0]), np.array([2, 0, 1]), np.array([0, 3])),
                        shape=(1, 3))
    a = SparseMatrix(csr)
    np.testing.assert_array_equal(csr.indices, [2, 0, 1])
    np.testing.assert_array_equal(csr.data, [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(a.toarray(), [[1.0, 2.0, 3.0]])


def test_adjoint_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dense = rng.standard_normal((12, 9))
        a = SparseMatrix(dense)
        x = rng.standard_normal(9)
        y = rng.standard_normal(12)
        lhs = float(np.dot(a.matvec(x), y))
        rhs = float(np.dot(x, a.rmatvec(y)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_dimension_mismatch():
    a = SparseMatrix(np.eye(3))
    with pytest.raises(ValueError):
        a.matvec(np.zeros(4))
    with pytest.raises(ValueError):
        a.rmatvec(np.zeros(4))


def test_matvec_counters():
    a = SparseMatrix(np.eye(2))
    a.matvec(np.zeros(2))
    a.matvec(np.zeros(2))
    a.rmatvec(np.zeros(2))
    assert (a.n_matvec, a.n_rmatvec) == (2, 1)
    a.reset_counters()
    assert (a.n_matvec, a.n_rmatvec) == (0, 0)


def random_sparse(rng, m, n, density=0.3):
    return rng.standard_normal((m, n)) * (rng.random((m, n)) < density)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_products_into_out_are_the_csr_products():
    # G x runs on the CSC arrays: each row still sums from 0.0 in ascending
    # column order, as the CSR kernel does, so the bits are the CSR product's
    import scipy.sparse as sp

    rng = np.random.default_rng(7)
    for _ in range(20):
        m, n = (int(k) for k in rng.integers(1, 40, 2))
        dense = random_sparse(rng, m, n) * 10.0 ** rng.uniform(-30, 30, (m, n))
        a = SparseMatrix(dense)
        csr = sp.csr_matrix(dense)
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        out_x, out_y = np.full(m, np.nan), np.full(n, np.nan)
        assert a.matvec(x, out=out_x) is out_x
        assert a.rmatvec(y, out=out_y) is out_y
        assert (a.n_matvec, a.n_rmatvec) == (1, 1)
        np.testing.assert_array_equal(bits(out_x), bits(csr @ x))
        np.testing.assert_array_equal(bits(out_y), bits(csr.T.tocsr() @ y))
        np.testing.assert_array_equal(bits(a.matvec(x)), bits(out_x))
        np.testing.assert_array_equal(bits(a.rmatvec(y)), bits(out_y))
        assert (a.n_matvec, a.n_rmatvec) == (2, 2)


def products_reference(a, d_row, d_col):
    """diag(d_row) @ A @ diag(d_col) through two scipy sparse products."""
    import scipy.sparse as sp

    return SparseMatrix(sp.diags(d_row) @ sp.csr_matrix(a.toarray()) @ sp.diags(d_col))


def assert_same_arrays(g, w):
    np.testing.assert_array_equal(g.indptr, w.indptr)
    np.testing.assert_array_equal(g.indices, w.indices)
    np.testing.assert_array_equal(bits(g.data), bits(w.data))


def assert_same_matrix(got, want):
    assert_same_arrays(got._csc, want._csc)


def test_scaled_equals_the_sparse_products_bit_for_bit():
    rng = np.random.default_rng(8)
    dropped = 0
    for _ in range(40):
        m, n = (int(k) for k in rng.integers(1, 30, 2))
        a = SparseMatrix(random_sparse(rng, m, n) * 10.0 ** rng.uniform(-200, 100, (m, n)))
        d_row, d_col = 10.0 ** rng.uniform(-150, 50, m), 10.0 ** rng.uniform(-150, 50, n)
        got = a.scaled(d_row, d_col)
        assert_same_matrix(got, products_reference(a, d_row, d_col))
        dropped += a.nnz - got.nnz
    assert dropped > 0


def test_scaled_drops_one_underflowing_entry():
    a = SparseMatrix(np.array([[1e-300, 2.0], [3.0, 0.0]]))
    d_row, d_col = np.array([1e-20, 1.0]), np.array([1e-10, 0.5])
    got = a.scaled(d_row, d_col)
    assert got.nnz == 2  # (1e-300 * 1e-20) * 1e-10 rounds to zero
    assert_same_matrix(got, products_reference(a, d_row, d_col))
    np.testing.assert_array_equal(got.toarray(), [[0.0, 1e-20], [3.0 * 1e-10, 0.0]])
    # the operand is left as it was
    np.testing.assert_array_equal(a.toarray(), [[1e-300, 2.0], [3.0, 0.0]])


def test_matrix_max_abs():
    a = SparseMatrix(np.array([[1.0, -4.0], [2.0, 0.0]]))
    assert a.max_abs() == 4.0
    with pytest.raises(NumericalError):
        SparseMatrix(np.zeros((2, 2))).max_abs()


def test_matrix_max_abs_random_dense_scan():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((15, 11))
    assert SparseMatrix(dense).max_abs() == np.max(np.abs(dense))


def test_induced_inf_norm():
    a = SparseMatrix(np.array([[1.0, -4.0], [2.0, 0.0]]))
    assert a.induced_inf_norm() == 5.0


def test_induced_inf_norm_has_the_bits_of_the_csr_row_sums():
    # scipy reduces each CSR row with np.add.reduceat; a scatter over the
    # CSC arrays sums the long rows in another order
    import scipy.sparse as sp

    rng = np.random.default_rng(12)
    for _ in range(20):
        dense = random_sparse(rng, 20, 200, 0.5) * 10.0 ** rng.uniform(-8, 8, (20, 200))
        want = float(np.max(np.abs(sp.csr_matrix(dense)).sum(axis=1)))
        assert SparseMatrix(dense).induced_inf_norm() == want


def test_duplicates_sum_as_the_csr_route_sums_them():
    # from_coo sums duplicate triplets in a CSR matrix, then converts it to
    # CSC; building the CSC matrix straight from the triplets sums them in
    # another order, which this test tells apart
    import scipy.sparse as sp

    rng = np.random.default_rng(13)
    direct_differs = 0
    for _ in range(200):
        m, n = (int(k) for k in rng.integers(1, 12, 2))
        cells = rng.choice(m * n, int(rng.integers(1, m * n + 1)), replace=False)
        flat = rng.permutation(np.repeat(cells, rng.integers(3, 7, cells.size)))
        rows, cols = flat // n, flat % n
        vals = rng.standard_normal(flat.size) * 10.0 ** rng.uniform(-8, 8, flat.size)
        coo = sp.coo_matrix((vals, (rows, cols)), shape=(m, n))
        want = coo.tocsr()
        want.sum_duplicates()
        want = want.tocsc()
        assert_same_arrays(SparseMatrix.from_coo(rows, cols, vals, (m, n))._csc, want)
        direct = coo.tocsc()
        direct.sum_duplicates()
        direct_differs += not np.array_equal(bits(direct.data), bits(want.data))
    assert direct_differs > 0


def test_vector_norms():
    v = np.array([1.0, -2.0, 3.0])
    assert one_norm(v) == 6.0
    assert inf_norm(v) == 3.0
    assert two_norm(v) == pytest.approx(math.sqrt(14.0))
    assert inf_norm(np.zeros(0)) == 0.0


def test_omega_norm_examples():
    x = np.array([2.0])
    y = np.array([2.0])
    assert omega_norm(x, y, 4.0) == pytest.approx(math.sqrt(17.0))
    xy = np.array([1.0, -2.0])
    assert omega_norm(xy, np.zeros(0), 1.0) == pytest.approx(np.linalg.norm(xy))


def test_omega_norm_swap_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal(5)
        y = rng.standard_normal(7)
        w = float(rng.uniform(0.1, 10.0))
        assert omega_norm(x, y, w) == pytest.approx(omega_norm(y, x, 1.0 / w), rel=1e-12)


def test_omega_norm_is_a_norm():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
        w = float(rng.uniform(0.1, 10.0))
        lhs = omega_norm(a[0] + b[0], a[1] + b[1], w)
        assert lhs <= omega_norm(a[0], a[1], w) + omega_norm(b[0], b[1], w) + 1e-12
        s = float(rng.standard_normal())
        assert omega_norm(s * a[0], s * a[1], w) == pytest.approx(
            abs(s) * omega_norm(a[0], a[1], w), abs=1e-12
        )


def test_n_norm_identities():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4)
    y = rng.standard_normal(3)
    assert n_norm(x, y, WeightedNormContext(2.0, 1.0)) == pytest.approx(
        omega_norm(x, y, 2.0)
    )
    assert n_norm(x, y, WeightedNormContext(2.0, 4.0)) == pytest.approx(
        omega_norm(x, y, 2.0) / 2.0
    )
    ctx = WeightedNormContext(3.0, 0.7)
    expected = math.sqrt(np.dot(x, x) / ctx.tau + np.dot(y, y) / ctx.sigma)
    assert n_norm(x, y, ctx) == pytest.approx(expected, rel=1e-12)


def test_norm_context_validation():
    with pytest.raises(ValueError):
        WeightedNormContext(-1.0, 1.0)
    with pytest.raises(ValueError):
        WeightedNormContext(1.0, 0.0)
    ctx = WeightedNormContext(4.0, 2.0)
    assert ctx.tau == pytest.approx(0.5)
    assert ctx.sigma == pytest.approx(8.0)
