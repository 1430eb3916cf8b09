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
    shard_cuts,
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
    import scipy.sparse as sp

    rng = np.random.default_rng(1)
    dense = rng.standard_normal((30, 20)) * (rng.random((30, 20)) < 0.4)
    a = SparseMatrix(dense)
    x = rng.standard_normal(20)
    rows, cols, vals = a.triplets()
    csr = sp.csr_matrix((vals, (rows, cols)), shape=a.shape)
    np.testing.assert_allclose(a.matvec(x), csr @ x, atol=1e-12)


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
    # scipy's kernels write out of bounds into a short `out`
    for product in (a.matvec, a.rmatvec):
        for out in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ValueError, match="out must have length 3"):
                product(np.zeros(3), out=out)


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


def test_products_call_scipys_kernels_loaded_with_the_module():
    # the kernels come from the `_sparsetools` extension file in scipy's
    # package directory, loaded when the module is; a scipy that moves the
    # file fails this import, and every test that imports the module,
    # rather than a solve
    import importlib.util
    import os

    import scipy.sparse as sp

    import conic_pdhg.linalg as linalg

    (scipy_dir,) = importlib.util.find_spec("scipy").submodule_search_locations
    path = linalg._sparsetools.__file__
    assert os.path.dirname(path) == os.path.join(scipy_dir, "sparse")
    assert os.path.basename(path).startswith("_sparsetools.")
    assert linalg.csc_matvec is linalg._sparsetools.csc_matvec
    assert linalg.csr_matvec is linalg._sparsetools.csr_matvec
    rng = np.random.default_rng(10)
    dense = random_sparse(rng, 25, 17) * 10.0 ** rng.uniform(-30, 30, (25, 17))
    a, csr = SparseMatrix(dense), sp.csr_matrix(dense)
    x, y = rng.standard_normal(17), rng.standard_normal(25)
    np.testing.assert_array_equal(bits(a.matvec(x)), bits(csr @ x))
    np.testing.assert_array_equal(bits(a.rmatvec(y)), bits(csr.T @ y))


def test_scipy_sparse_imports_as_usual_after_the_kernels_are_loaded():
    # the loader takes the extension back out of sys.modules, so a later
    # `import scipy.sparse` loads and registers it as it would have
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = ("import sys\n"
            "import numpy as np\n"
            "import conic_pdhg.linalg as linalg\n"
            "assert not [m for m in sys.modules if m.startswith('scipy')]\n"
            "import scipy.sparse as sp\n"
            "from scipy.sparse import _sparsetools\n"
            "assert sys.modules['scipy.sparse._sparsetools'] is _sparsetools\n"
            "assert _sparsetools.__file__ == linalg._sparsetools.__file__\n"
            "a = np.array([[1.0, 2.0], [0.0, 3.0]])\n"
            "print(sp.csr_matrix(a) @ np.ones(2), linalg.SparseMatrix(a).matvec(np.ones(2)))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(src))).stdout
    assert out.split() == ["[3.", "3.]", "[3.", "3.]"]


def with_index_dtype(a, dtype):
    """`a`'s entries with index arrays of `dtype`; the constructor narrows
    indices that fit in int32, so the arrays are set afterwards."""
    out = SparseMatrix.__new__(SparseMatrix)
    out._set_arrays(a.shape, a.indptr.astype(dtype), a.indices.astype(dtype), a.data.copy())
    return out


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape, density", [((17, 11), 0.3), ((9, 23), 0.0), ((6, 0), 0.3),
                                            ((0, 5), 0.3), ((1, 1), 1.0)],
                         ids=["random", "nnz 0", "n 0", "m 0", "1x1"])
def test_products_into_nan_filled_out_have_the_bits_of_scipy(dtype, shape, density):
    import scipy.sparse as sp

    rng = np.random.default_rng(9)
    m, n = shape
    for _ in range(5):
        dense = random_sparse(rng, m, n, density) * 10.0 ** rng.uniform(-30, 30, (m, n))
        a = with_index_dtype(SparseMatrix(dense), dtype)
        assert a.indices.dtype == dtype and a.indptr.dtype == dtype
        # a sparse array keeps the index dtype it is given
        csc = sp.csc_array((a.data, a.indices, a.indptr), shape=a.shape)
        assert csc.indices.dtype == dtype
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        out_x, out_y = np.full(m, np.nan), np.full(n, np.nan)
        assert a.matvec(x, out=out_x) is out_x
        assert (a.n_matvec, a.n_rmatvec) == (1, 0)
        assert a.rmatvec(y, out=out_y) is out_y
        assert (a.n_matvec, a.n_rmatvec) == (1, 1)
        np.testing.assert_array_equal(bits(out_x), bits(csc @ x))
        np.testing.assert_array_equal(bits(out_y), bits(csc.T @ y))
        np.testing.assert_array_equal(bits(a.matvec(x)), bits(out_x))
        np.testing.assert_array_equal(bits(a.rmatvec(y)), bits(out_y))
        a.reset_counters()


def random_cuts(rng, lines, count):
    """count + 1 ascending cuts of [0, lines], repeats (empty ranges) included."""
    return [0, *sorted(rng.integers(0, lines + 1, count - 1).tolist()), lines]


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("shape, density", [((37, 53), 0.2), ((9, 23), 0.0), ((6, 0), 0.3),
                                            ((0, 5), 0.3), ((1, 1), 1.0), ((300, 200), 0.05)],
                         ids=["random", "nnz 0", "n 0", "m 0", "1x1", "300x200"])
def test_range_products_make_up_the_whole_products_bitwise(dtype, shape, density):
    # a sharded step forms G x by row ranges and G^T y by column ranges on
    # its threads; the ranges together must give the whole products' bits
    rng = np.random.default_rng(31)
    m, n = shape
    for _ in range(10):
        dense = random_sparse(rng, m, n, density) * 10.0 ** rng.uniform(-30, 30, (m, n))
        a = with_index_dtype(SparseMatrix(dense), dtype)
        indptr, indices, data = a.rows()
        assert a.rows()[0] is indptr  # built once
        # the transposition narrows indices that fit to int32, as scipy's
        assert indptr.dtype == indices.dtype == np.int32
        a._rows = indptr.astype(dtype), indices.astype(dtype), data
        x, y = rng.standard_normal(n), rng.standard_normal(m)
        whole_x, whole_y = a.matvec(x), a.rmatvec(y)
        a.reset_counters()
        for count in (1, 2, 3, 5):
            out_x, out_y = np.full(m, np.nan), np.full(n, np.nan)
            rows, cols = random_cuts(rng, m, count), random_cuts(rng, n, count)
            for lo, hi in zip(rows, rows[1:]):
                a.matvec_rows(x, lo, hi, out_x)
            for lo, hi in zip(cols, cols[1:]):
                a.rmatvec_cols(y, lo, hi, out_y)
            np.testing.assert_array_equal(bits(out_x), bits(whole_x))
            np.testing.assert_array_equal(bits(out_y), bits(whole_y))
        assert (a.n_matvec, a.n_rmatvec) == (0, 0)  # the caller counts


def test_range_products_check_their_operands():
    a = SparseMatrix(np.arange(12.0).reshape(3, 4))
    x, y = np.ones(4), np.ones(3)
    for args in ((np.ones(3), 0, 3, np.zeros(3)), (x, 0, 3, np.zeros(4)), (x, 2, 1, np.zeros(3)),
                 (x, 0, 4, np.zeros(3)), (x, -1, 2, np.zeros(3))):
        with pytest.raises(ValueError):
            a.matvec_rows(*args)
    for args in ((np.ones(4), 0, 4, np.zeros(4)), (y, 0, 4, np.zeros(3)), (y, 3, 5, np.zeros(4))):
        with pytest.raises(ValueError):
            a.rmatvec_cols(*args)


def test_shard_cuts_balance_entries_and_keep_blocks_whole():
    indptr = np.array([0, 4, 4, 8, 9, 10, 16])  # 6 lines, 16 entries
    assert shard_cuts(indptr, 1) == [0, 6]
    assert shard_cuts(indptr, 2) == [0, 3, 6]  # lines 0-2 hold 8 entries
    assert shard_cuts(indptr, 4) == [0, 1, 3, 6, 6]
    # a cut inside a block moves to the nearer end, to the start at the middle
    assert shard_cuts(indptr, 2, np.array([[1, 4]])) == [0, 4, 6]
    assert shard_cuts(indptr, 2, np.array([[2, 4]])) == [0, 2, 6]
    assert shard_cuts(indptr, 2, np.array([[0, 3]])) == [0, 3, 6]
    assert shard_cuts(indptr, 4, np.array([[0, 6]])) == [0, 0, 0, 6, 6]
    assert shard_cuts(indptr, 2, np.zeros((0, 2), np.int64)) == [0, 3, 6]
    # no entries: every range but the last is empty
    assert shard_cuts(np.zeros(4, np.int32), 3) == [0, 0, 0, 3]
    rng = np.random.default_rng(5)
    for _ in range(200):
        lines, count = int(rng.integers(0, 40)), int(rng.integers(1, 6))
        indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 5, lines))])
        ends = np.unique(rng.integers(0, lines + 1, 8))
        whole = np.array([(a, b) for a, b in zip(ends[:-1:2], ends[1::2])], np.int64).reshape(-1, 2)
        cuts = shard_cuts(indptr, count, whole)
        assert len(cuts) == count + 1 and cuts[0] == 0 and cuts[-1] == lines
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))
        assert not any(start < cut < stop for cut in cuts for start, stop in whole)


def products_reference(a, d_row, d_col):
    """diag(d_row) @ A @ diag(d_col) through two scipy sparse products."""
    import scipy.sparse as sp

    return SparseMatrix(sp.diags(d_row) @ sp.csr_matrix(a.toarray()) @ sp.diags(d_col))


def assert_same_arrays(g, w):
    """The same CSC (or CSR) arrays, dtypes and bits included."""
    assert g.shape == w.shape
    assert g.indptr.dtype == w.indptr.dtype and g.indices.dtype == w.indices.dtype
    assert g.data.dtype == w.data.dtype == np.float64
    np.testing.assert_array_equal(g.indptr, w.indptr)
    np.testing.assert_array_equal(g.indices, w.indices)
    np.testing.assert_array_equal(bits(g.data), bits(w.data))



def test_scaled_equals_the_sparse_products_bit_for_bit():
    rng = np.random.default_rng(8)
    dropped = 0
    for _ in range(40):
        m, n = (int(k) for k in rng.integers(1, 30, 2))
        a = SparseMatrix(random_sparse(rng, m, n) * 10.0 ** rng.uniform(-200, 100, (m, n)))
        d_row, d_col = 10.0 ** rng.uniform(-150, 50, m), 10.0 ** rng.uniform(-150, 50, n)
        got = a.scaled(d_row, d_col)
        assert_same_arrays(got, products_reference(a, d_row, d_col))
        dropped += a.nnz - got.nnz
    assert dropped > 0


def test_scaled_drops_one_underflowing_entry():
    a = SparseMatrix(np.array([[1e-300, 2.0], [3.0, 0.0]]))
    d_row, d_col = np.array([1e-20, 1.0]), np.array([1e-10, 0.5])
    got = a.scaled(d_row, d_col)
    assert got.nnz == 2  # (1e-300 * 1e-20) * 1e-10 rounds to zero
    assert_same_arrays(got, products_reference(a, d_row, d_col))
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
    # empty rows, whose sums reduceat must not be given
    for _ in range(20):
        dense = random_sparse(rng, 20, 200, 0.5) * 10.0 ** rng.uniform(-8, 8, (20, 200))
        dense[rng.random(20) < 0.4] = 0.0
        dense[0] = dense[-1] = 0.0
        want = float(np.max(np.abs(sp.csr_matrix(dense)).sum(axis=1)))
        assert SparseMatrix(dense).induced_inf_norm() == want
    # repeated triplets, summed (in scipy's order) before the row sums
    for _ in range(20):
        cells = rng.choice(20 * 200, 1500, replace=False)
        flat = rng.permutation(np.repeat(cells, rng.integers(1, 4, cells.size)))
        rows, cols = flat // 200, flat % 200
        vals = rng.standard_normal(flat.size) * 10.0 ** rng.uniform(-8, 8, flat.size)
        csr = sp.coo_matrix((vals, (rows, cols)), shape=(20, 200)).tocsr()
        csr.sum_duplicates()
        want = float(np.max(np.abs(csr).sum(axis=1)))
        assert SparseMatrix.from_coo(rows, cols, vals, (20, 200)).induced_inf_norm() == want


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
        assert_same_arrays(SparseMatrix.from_coo(rows, cols, vals, (m, n)), want)
        direct = coo.tocsc()
        direct.sum_duplicates()
        direct_differs += not np.array_equal(bits(direct.data), bits(want.data))
    assert direct_differs > 0


# ---------------------------------------------------------------------------
# Construction against scipy.sparse's own path
# ---------------------------------------------------------------------------


def scipy_path(matrix):
    """G's CSC arrays as scipy.sparse builds them: a CSR matrix, made
    canonical on a copy where it is not, then its CSC conversion."""
    import scipy.sparse as sp

    csr = sp.csr_matrix(matrix)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
    return csr.tocsc()


def random_triplets(rng, index_dtype):
    """Triplets of a small matrix, in random order, with explicit zeros and
    entries repeated up to five times (one at least three times)."""
    m, n = (int(k) for k in rng.integers(1, 15, 2))
    cells = rng.choice(m * n, int(rng.integers(1, m * n + 1)), replace=False)
    counts = rng.integers(1, 6, cells.size)
    counts[0] = max(counts[0], 3)
    flat = rng.permutation(np.repeat(cells, counts))
    vals = rng.standard_normal(flat.size) * 10.0 ** rng.uniform(-8, 8, flat.size)
    vals[rng.random(flat.size) < 0.2] = 0.0
    return (flat // n).astype(index_dtype), (flat % n).astype(index_dtype), vals, (m, n)


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_triplets_give_scipys_arrays(index_dtype):
    import scipy.sparse as sp

    rng = np.random.default_rng(14)
    zeros_kept = 0
    for _ in range(100):
        rows, cols, vals, shape = random_triplets(rng, index_dtype)
        got = SparseMatrix.from_coo(rows, cols, vals, shape)
        assert_same_arrays(got, scipy_path(sp.coo_matrix((vals, (rows, cols)), shape=shape)))
        assert got.indices.dtype == np.int32
        zeros_kept += int(np.sum(got.data == 0.0))
    assert zeros_kept > 0  # summed and explicit zeros stay, as in scipy


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_scipy_coo_and_csc_input_give_scipys_arrays(index_dtype):
    # sparse arrays keep int64 indices that sparse matrices would narrow
    import scipy.sparse as sp

    rng = np.random.default_rng(15)
    for _ in range(60):
        rows, cols, vals, shape = random_triplets(rng, index_dtype)
        coo = sp.coo_array((vals, (rows, cols)), shape=shape)
        assert coo.coords[0].dtype == index_dtype
        # compressed arrays straight from the triplets: unsorted, duplicated
        by_row, by_col = np.argsort(rows, kind="stable"), np.argsort(cols, kind="stable")
        raw_csr = sp.csr_array((vals[by_row], cols[by_row], np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))), shape=shape)
        raw_csc = sp.csc_array((vals[by_col], rows[by_col], np.concatenate(
            ([0], np.cumsum(np.bincount(cols, minlength=shape[1]))))), shape=shape)
        assert not (raw_csr.has_canonical_format or raw_csc.has_canonical_format)
        for matrix in (coo, coo.tocsc(), coo.tocsr(), sp.coo_matrix(coo), sp.csc_matrix(coo),
                       raw_csr, raw_csc):
            assert_same_arrays(SparseMatrix(matrix), scipy_path(matrix))
        # the caller's arrays are left as they were
        np.testing.assert_array_equal(raw_csr.indices, cols[by_row])


def test_dense_input_gives_scipys_arrays():
    rng = np.random.default_rng(16)
    for _ in range(60):
        m, n = (int(k) for k in rng.integers(0, 15, 2))
        dense = random_sparse(rng, m, n, float(rng.uniform(0.0, 1.0)))
        dense[rng.random((m, n)) < 0.1] = -0.0
        assert_same_arrays(SparseMatrix(dense), scipy_path(dense))
        assert_same_arrays(SparseMatrix((m, n)), scipy_path((m, n)))
        np.testing.assert_array_equal(SparseMatrix(dense).toarray(), dense)


class CountingKernels:
    """`linalg._sparsetools` with the number of calls of each kernel."""

    def __init__(self, kernels):
        self.kernels, self.calls = kernels, {}

    def __getattr__(self, name):
        kernel = getattr(self.kernels, name)

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            return kernel(*args)

        return counted


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_every_input_form_is_converted_as_its_triplets(index_dtype, monkeypatch):
    # the constructor reads each form as triplets and converts them as
    # from_coo does; with no entry given more than twice (a sum of two terms
    # does not depend on their order) the arrays are also those of scipy's
    # tocsc() and sum_duplicates(), and without a repeat nothing is transposed
    import scipy.sparse as sp
    from conic_pdhg import linalg

    kernels = CountingKernels(linalg._sparsetools)
    monkeypatch.setattr(linalg, "_sparsetools", kernels)
    rng = np.random.default_rng(22)
    seen = dict(repeats=0, zeros=0, unsorted=0)
    for trial in range(40):
        m, n = (int(k) for k in rng.integers(1, 15, 2))
        cells = rng.choice(m * n, int(rng.integers(1, m * n + 1)), replace=False)
        dense = np.zeros((m, n))
        dense.flat[cells] = rng.standard_normal(cells.size)
        flat = rng.permutation(np.repeat(cells, rng.integers(1, 2 + trial % 2, cells.size)))
        rows, cols = (flat // n).astype(index_dtype), (flat % n).astype(index_dtype)
        vals = rng.standard_normal(flat.size)
        vals[rng.random(flat.size) < 0.2] = 0.0
        by_row, by_col = np.argsort(rows, kind="stable"), np.argsort(cols, kind="stable")
        raw_csr = sp.csr_matrix((vals[by_row], cols[by_row], np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=m))))), shape=(m, n))
        raw_csc = sp.csc_matrix((vals[by_col], rows[by_col], np.concatenate(
            ([0], np.cumsum(np.bincount(cols, minlength=n))))), shape=(m, n))
        repeated = flat.size > cells.size
        forms = [(dense, (*dense.nonzero(), dense[dense != 0.0]), False),
                 ((m, n), ((), (), ()), False),
                 (sp.coo_matrix((vals, (rows, cols)), shape=(m, n)), (rows, cols, vals), repeated),
                 (raw_csr, (rows[by_row], cols[by_row], vals[by_row]), repeated),
                 (raw_csc, (rows[by_col], cols[by_col], vals[by_col]), repeated)]
        for form, triplets, form_repeats in forms:
            kernels.calls.clear()
            got = SparseMatrix(form)
            assert kernels.calls.get("csr_tocsc", 0) == form_repeats
            assert_same_arrays(got, SparseMatrix.from_coo(*triplets, (m, n)))
            want = sp.csc_matrix(form, copy=True)
            want.sum_duplicates()
            assert_same_arrays(got, want)
        seen["repeats"] += repeated
        seen["zeros"] += int(np.any(vals == 0.0))
        seen["unsorted"] += not raw_csr.has_sorted_indices
    assert all(seen.values()), seen


def pattern_triplets(rng, index_dtype, repeated):
    """Triplets in random order on a random pattern that leaves some rows
    and columns empty, with explicit zeros; where `repeated`, some entries
    come 3 to 6 times."""
    m, n = (int(k) for k in rng.integers(1, 15, 2))
    used_rows = rng.choice(m, int(rng.integers(1, m + 1)), replace=False)
    used_cols = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
    cells = np.unique(rng.choice(used_rows, 40) * n + rng.choice(used_cols, 40))
    cells = cells[: int(rng.integers(1, cells.size + 1))]
    counts = np.ones(cells.size, dtype=np.int64)
    if repeated:
        counts[rng.random(cells.size) < 0.5] = rng.integers(3, 7)
        counts[0] = rng.integers(3, 7)
    flat = rng.permutation(np.repeat(cells, counts))
    vals = rng.standard_normal(flat.size) * 10.0 ** rng.uniform(-8, 8, flat.size)
    vals[rng.random(flat.size) < 0.2] = 0.0
    return (flat // n).astype(index_dtype), (flat % n).astype(index_dtype), vals, (m, n)


@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_triplets_sort_only_when_an_entry_repeats(index_dtype, repeated, monkeypatch):
    # the CSC arrays are written straight from the triplets and are canonical
    # once sorted when no entry repeats; a repeat takes scipy's canonical
    # sequence on the CSR arrays, which sorts and sums, and their conversion
    import scipy.sparse as sp
    from conic_pdhg import linalg

    kernels = CountingKernels(linalg._sparsetools)
    monkeypatch.setattr(linalg, "_sparsetools", kernels)
    rng = np.random.default_rng(17)
    empty_rows = empty_cols = zeros = 0
    for _ in range(100):
        rows, cols, vals, shape = pattern_triplets(rng, index_dtype, repeated)
        kernels.calls.clear()
        got = SparseMatrix.from_coo(rows, cols, vals, shape)
        assert_same_arrays(got, scipy_path(sp.coo_matrix((vals, (rows, cols)), shape=shape)))
        assert (kernels.calls.get("csr_sum_duplicates", 0) == 1) == repeated
        assert kernels.calls["coo_tocsr"] == 1 + repeated
        assert kernels.calls.get("csr_tocsc", 0) == repeated
        empty_rows += int(np.setdiff1d(np.arange(shape[0]), rows).size > 0)
        empty_cols += int(np.any(np.diff(got.indptr) == 0))
        zeros += int(np.sum(got.data == 0.0))
    assert empty_rows and empty_cols and zeros


def triplet_orders(rows, cols, rng):
    """The triplets' positions in column-major order (as
    `problem_to_document` writes them), in row-major order, and shuffled."""
    return {"column-major": np.lexsort((rows, cols)), "row-major": np.lexsort((cols, rows)),
            "shuffled": rng.permutation(rows.size)}


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_from_coo_gives_the_arrays_of_scipys_csc_conversion(index_dtype):
    # without a repeat, or with no entry given more than twice (a sum of two
    # terms does not depend on their order), from_coo's arrays are those of
    # scipy's coo_matrix(...).tocsc(), whatever the order of the triplets
    import scipy.sparse as sp

    rng = np.random.default_rng(20)
    seen = dict(repeats=0, zeros=0, empty_rows=0, empty_cols=0)
    for trial in range(60):
        m, n = (int(k) for k in rng.integers(1, 20, 2))
        cells = rng.choice(m * n, int(rng.integers(1, m * n // 2 + 2)), replace=False)
        if trial % 2:
            cells = np.repeat(cells, rng.integers(1, 3, cells.size))
        rows, cols = (cells // n).astype(index_dtype), (cells % n).astype(index_dtype)
        vals = rng.standard_normal(cells.size) * 10.0 ** rng.uniform(-8, 8, cells.size)
        vals[rng.random(cells.size) < 0.2] = 0.0
        for order in triplet_orders(rows, cols, rng).values():
            r, c, v = rows[order], cols[order], vals[order]
            got = SparseMatrix.from_coo(r, c, v, (m, n))
            assert_same_arrays(got, sp.coo_matrix((v, (r, c)), shape=(m, n)).tocsc())
        seen["repeats"] += cells.size > np.unique(cells).size
        seen["zeros"] += int(np.any(got.data == 0.0))
        seen["empty_rows"] += np.unique(rows).size < m
        seen["empty_cols"] += np.unique(cols).size < n
    assert all(seen.values()), seen


def test_from_coo_matches_scipy_on_an_lp_sized_pattern():
    # int64 triplets as the parser gives them, eight rows a column, read in
    # each order; one run of the same triplets with a repeat sums it as the
    # CSR route does
    import scipy.sparse as sp

    rng = np.random.default_rng(21)
    m, n = 400, 800
    rows = np.concatenate([rng.choice(m, 8, replace=False) for _ in range(n)]).astype(np.int64)
    cols = np.repeat(np.arange(n, dtype=np.int64), 8)
    vals = rng.standard_normal(rows.size)
    for name, order in triplet_orders(rows, cols, rng).items():
        r, c, v = rows[order], cols[order], vals[order]
        want = sp.coo_matrix((v, (r, c)), shape=(m, n)).tocsc()
        assert want.indices.dtype == np.int32, name
        assert_same_arrays(SparseMatrix.from_coo(r, c, v, (m, n)), want)
    r, c, v = (np.concatenate((x, x[:3], x[:1])) for x in (rows, cols, vals))
    assert_same_arrays(SparseMatrix.from_coo(r, c, v, (m, n)),
                       scipy_path(sp.coo_matrix((v, (r, c)), shape=(m, n))))


def test_triplets_out_of_range_are_rejected():
    for rows, cols in (([0, 2], [0, 0]), ([0, -1], [0, 0]), ([0, 0], [0, 3])):
        with pytest.raises(ValueError, match="must lie in"):
            SparseMatrix.from_coo(rows, cols, [1.0, 2.0], (2, 3))


@pytest.mark.parametrize("repeated", [False, True], ids=["distinct", "repeated"])
def test_triplets_out_of_range_name_their_axis(repeated):
    # from_coo converts the transposed triplets, but names the caller's axes
    for rows, cols, message in (([0, 2], [0, 0], r"row indices must lie in \[0, 2\)"),
                                ([0, -1], [0, 0], r"row indices must lie in \[0, 2\)"),
                                ([0, 1], [0, 3], r"column indices must lie in \[0, 3\)"),
                                ([0, 1], [-1, 0], r"column indices must lie in \[0, 3\)")):
        rows, cols = rows + rows[:repeated], cols + cols[:repeated]
        with pytest.raises(ValueError, match=message):
            SparseMatrix.from_coo(rows, cols, [1.0] * len(rows), (2, 3))


def test_vector_norms():
    v = np.array([1.0, -2.0, 3.0])
    assert one_norm(v) == 6.0
    assert inf_norm(v) == 3.0
    assert two_norm(v) == pytest.approx(math.sqrt(14.0))
    assert inf_norm(np.zeros(0)) == 0.0


def test_two_norm_has_the_bits_of_numpy():
    rng = np.random.default_rng(19)
    for size in (0, 1, 2, 7, 64, 1000):
        for scale in (1e-300, 1.0, 1e150):
            v = rng.standard_normal(size) * scale
            assert two_norm(v) == float(np.linalg.norm(v))


def test_two_norm_rescales_only_when_the_dot_overflows():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert two_norm(np.array([1e200, 1.0])) == 1e200
        assert two_norm(np.array([-1e308, 1e308])) == pytest.approx(math.sqrt(2.0) * 1e308)
        assert two_norm(np.array([3e200, 4e200])) == pytest.approx(5e200)
    with np.errstate(invalid="ignore"):
        assert two_norm(np.array([math.inf, 1.0])) == math.inf
        assert math.isnan(two_norm(np.array([math.nan, 1e200])))


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
