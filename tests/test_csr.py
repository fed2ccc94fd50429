"""The array kernels of ``ddimine.csr`` against scipy: the same structure, dtype and bits.

Matrices are drawn with empty rows, no rows or columns at all, repeated cells,
and uint8, int32, bool and float values, -0.0 among them.  A repeated cell's
sum is exact only for integer values, so :func:`csr.from_cells` gets integer
values in every dtype; the products, a gather and a stack take any float.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine import csr
from helpers import csr_of

DTYPES = (np.uint8, np.int32, np.float64, np.bool_)


def same(M: csr.CSR, S) -> bool:
    """M holds what the scipy matrix S holds, index types and value bits included."""
    S = sp.csr_matrix(S)
    return (
        M.shape == S.shape and M.indptr.dtype == S.indptr.dtype and M.indices.dtype == S.indices.dtype
        and np.array_equal(M.indptr, S.indptr) and np.array_equal(M.indices, S.indices)
        and M.data.dtype == S.data.dtype and M.data.tobytes() == S.data.tobytes()
    )


def integers(dtype):
    """Values of ``dtype``: small integers, -0.0 among the floats."""
    if dtype == np.bool_:
        return st.booleans()
    if dtype == np.float64:
        return st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, 3.0, -5.0, 7.0])
    return st.integers(0, 200) if dtype == np.uint8 else st.integers(-9, 9)


@st.composite
def cells(draw, shape=None, dtype=None, values=None):
    """(row, col, values, shape, dtype): up to 30 cells of a matrix up to 7 x 7, a cell possibly drawn again."""
    shape = shape or (draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    dtype = dtype or draw(st.sampled_from(DTYPES))
    count = draw(st.integers(0, 30)) if shape[0] and shape[1] else 0
    row, col = (np.array(draw(st.lists(st.integers(0, max(size - 1, 0)), min_size=count, max_size=count)),
                         dtype=np.int64) for size in shape)
    values = integers(dtype) if values is None else values
    vals = np.array(draw(st.lists(values, min_size=count, max_size=count)), dtype=dtype)
    return row, col, vals, shape, dtype


def scipy_of(row, col, vals, shape):
    """scipy's matrix of these cells, a repeated cell summed."""
    M = sp.coo_matrix((vals, (row, col)), shape=shape).tocsr()
    M.sum_duplicates()
    return M


@settings(deadline=None)
@given(cells())
def test_from_cells_sums_repeated_cells_as_scipy_does(drawn):
    row, col, vals, shape, _ = drawn
    assert same(csr.from_cells(row, col, vals, shape), scipy_of(row, col, vals, shape))


@settings(deadline=None)
@given(st.data())
def test_product_equals_scipy(data):
    n, k, m = (data.draw(st.integers(0, 7)) for _ in range(3))
    a = data.draw(cells((n, k)))
    b = data.draw(cells((k, m)))
    A, B = csr.from_cells(*a[:4]), csr.from_cells(*b[:4])
    want = scipy_of(*a[:4]) @ scipy_of(*b[:4])
    want.sort_indices()
    assert same(csr.product(A, B), want)


floats = st.floats(allow_nan=False, width=64) | st.sampled_from([-0.0, 0.0])
finite = st.floats(-1e6, 1e6) | st.sampled_from([-0.0, 0.0])  # sums that round, and no inf - inf


@settings(deadline=None)
@given(st.data())
def test_float_products_add_in_scipys_order(data):
    """A cell's terms are added from 0.0 in A's stored order, as scipy adds them: a sum that rounds has its bits."""
    n, k, m = (data.draw(st.integers(0, 7)) for _ in range(3))
    a, b = data.draw(cells((n, k), np.float64, finite)), data.draw(cells((k, m), np.float64, finite))
    A, B = (csr_of(scipy_of(*drawn[:4])) for drawn in (a, b))  # canonical: scipy's sum of a repeated cell
    SA, SB = A.scipy(), B.scipy()
    want = SA @ SB
    want.sort_indices()
    assert same(csr.product(A, B), want)
    x, r = (np.array(data.draw(st.lists(finite, min_size=size, max_size=size))) for size in (k, n))
    assert csr.matvec(A, x).tobytes() == (SA @ x).tobytes()
    assert csr.rmatvec(A, r).tobytes() == (SA.T @ r).tobytes()
    assert csr.matvec(A, x, csr.cells(A)).tobytes() == (SA @ x).tobytes()
    assert csr.rmatvec(A, r, csr.cells(A)).tobytes() == (SA.T @ r).tobytes()


def test_long_sums_are_not_pairwise():
    """numpy's reductions add more than 8 terms pairwise; scipy and these kernels add them one at a time."""
    rng = np.random.default_rng(4)
    SA = sp.random(30, 200, density=0.5, format="csr", random_state=rng)
    SB = sp.random(200, 20, density=0.5, format="csr", random_state=rng)
    SA.data, SB.data = rng.normal(size=SA.nnz) * 1e3, rng.normal(size=SB.nnz)
    A, B = csr_of(SA), csr_of(SB)
    want = SA @ SB
    want.sort_indices()
    x, r = rng.normal(size=200), rng.normal(size=30)
    assert same(csr.product(A, B), want)
    assert csr.matvec(A, x).tobytes() == (SA @ x).tobytes() and csr.rmatvec(A, r).tobytes() == (SA.T @ r).tobytes()


def test_product_works_through_blocks_of_rows(monkeypatch):
    monkeypatch.setattr(csr, "_ROWS", 3)
    rng = np.random.default_rng(5)
    A, B = (sp.random(n, m, density=0.3, format="csr", random_state=rng) for n, m in ((20, 9), (9, 11)))
    A.data, B.data = (rng.integers(1, 4, M.nnz).astype(float) for M in (A, B))
    want = A @ B
    want.sort_indices()
    assert same(csr.product(csr_of(A), csr_of(B)), want)


@settings(deadline=None)
@given(st.data())
def test_row_gather_by_positions_or_mask_equals_scipy(data):
    row, col, vals, shape, _ = data.draw(cells(dtype=np.float64, values=floats))
    S = scipy_of(row, col, vals, shape)
    M = csr_of(S)
    positions = np.array(data.draw(st.lists(st.integers(0, shape[0] - 1), max_size=12)) if shape[0] else [],
                         dtype=np.int64)
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0])), dtype=bool)
    assert same(csr.rows(M, positions), S[positions])
    assert same(csr.rows(M, mask), S[mask])


def test_row_gather_works_through_blocks_of_rows(monkeypatch):
    monkeypatch.setattr(csr, "_ROWS", 3)
    S = sp.random(20, 6, density=0.4, format="csr", random_state=np.random.default_rng(2))
    index = np.random.default_rng(3).integers(0, 20, 25)
    assert same(csr.rows(csr_of(S), index), S[index])


@settings(deadline=None)
@given(st.data())
def test_stack_equals_scipy_vstack_and_empties_the_list(data):
    width = data.draw(st.integers(0, 6))
    drawn = [data.draw(cells((data.draw(st.integers(0, 4)), width), np.int32))
             for _ in range(data.draw(st.integers(1, 4)))]
    blocks = [csr.from_cells(*d[:4]) for d in drawn]
    want = sp.vstack([scipy_of(*d[:4]) for d in drawn], format="csr")
    assert same(csr.stack(blocks), want)
    assert blocks == []


@settings(deadline=None)
@given(st.data())
def test_dense_product_equals_scipy_bit_for_bit(data):
    dtype = data.draw(st.sampled_from([np.uint8, np.float64]))
    row, col, vals, shape, _ = data.draw(cells(dtype=dtype, values=floats if dtype == np.float64 else None))
    width = data.draw(st.integers(0, 4))
    D = np.array(data.draw(st.lists(floats, min_size=shape[1] * width, max_size=shape[1] * width)),
                 dtype=np.float64).reshape(shape[1], width)
    S = scipy_of(row, col, vals, shape)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan on both sides
        got, want = csr.dense_product(csr_of(S), D), S @ D
    assert got.dtype == want.dtype and got.tobytes() == np.asarray(want).tobytes()


def test_dense_product_adds_long_rows_in_stored_order():
    rng = np.random.default_rng(8)
    S = sp.random(40, 300, density=0.3, format="csr", random_state=rng)  # 90 cells a row: past any pairwise block
    S.data = rng.normal(size=S.nnz)
    D = rng.normal(size=(300, 3))
    assert csr.dense_product(csr_of(S), D).tobytes() == (S @ D).tobytes()


def test_scipy_wraps_the_arrays_without_a_copy():
    M = csr.of(np.array([0, 2, 3]), np.array([0, 4, 1]), np.array([1.0, 2.0, 3.0]), (2, 5))
    assert M.indices.dtype == M.indptr.dtype == np.int32  # scipy's index type
    S = M.scipy()
    assert all(np.shares_memory(getattr(S, name), getattr(M, name)) for name in ("indptr", "indices", "data"))
