"""Sparse matrices as plain numpy arrays, and the chain's products over them.

A :class:`CSR` is scipy's compressed sparse row layout with no scipy: row i's
column indices are ``indices[indptr[i] : indptr[i + 1]]`` and its values the
same slice of ``data``.  The index arrays are int32, or int64 once a size or
the cell count passes 2**31 - 1, as scipy holds them, so :meth:`CSR.scipy`
wraps a matrix for scipy without a copy.  Only the operations the chain uses
are here:

* :func:`rows`, a row gather by positions or by a mask;
* :func:`stack`, row blocks one above the other;
* :func:`from_cells`, the matrix of (row, column, value) cells, a repeated cell
  summed: a transpose is its cells with row and column swapped;
* :func:`product`, A @ B: each cell's terms are expanded, stable-sorted on
  row * width + column and summed, integers exactly and floats from 0.0 in
  scipy's order (A's cells in stored order, each meeting B's row in stored
  order), so X = A @ P has scipy's bits;
* :func:`dense_product`, A @ D for a dense D in scipy's order, each row's sum
  from 0.0 over its cells in stored order, which embeddings and the solver's
  block of new columns need bit for bit;
* :func:`matvec` and :func:`rmatvec`, M @ x and M' @ x by ``bincount``, which
  adds in array order from 0.0, as scipy's compiled loops add: the solver's
  products through the factors, bit for bit.

A gather and a product work on blocks of :data:`_ROWS` rows, so no temporary
grows with the whole matrix.  scipy is left to train over large factors
(:data:`ddimine.learn._SCIPY_CELLS`), to the hinge solver's linear program
and to the benchmark's ``FeatureMatrix.X``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_ROWS = 4096  # rows per block of a gather or a product


class CSR(NamedTuple):
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def scipy(self):
        """This matrix as a ``scipy.sparse.csr_matrix`` over the same arrays; scipy is imported here alone."""
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def _index(shape: tuple[int, int], nnz: int) -> type:
    """scipy's index type for a matrix of this shape and cell count."""
    return np.int32 if max(*shape, nnz) < 2**31 else np.int64


def of(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, shape: tuple[int, int]) -> CSR:
    """The matrix of these arrays, its index arrays as scipy's index type."""
    index = _index(shape, len(indices))
    return CSR(indptr.astype(index, copy=False), indices.astype(index, copy=False), data,
               (int(shape[0]), int(shape[1])))


def rows(M: CSR, index) -> CSR:
    """M's rows at ``index``, positions or a mask, in that order."""
    index = np.asarray(index)
    index = np.flatnonzero(index) if index.dtype == bool else index.astype(np.int64, copy=False)
    starts = M.indptr[index].astype(np.int64)
    lengths = M.indptr[index + 1] - starts
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices, data = np.empty(indptr[-1], M.indices.dtype), np.empty(indptr[-1], M.data.dtype)
    for a in range(0, len(index), _ROWS):
        b = min(a + _ROWS, len(index))
        cells = np.repeat(starts[a:b] - indptr[a:b], lengths[a:b]) + np.arange(indptr[a], indptr[b])
        indices[indptr[a] : indptr[b]], data[indptr[a] : indptr[b]] = M.indices[cells], M.data[cells]
    return of(indptr, indices, data, (len(index), M.shape[1]))


def stack(blocks: list[CSR], column: np.ndarray | None = None) -> CSR:
    """The row blocks of ``blocks`` (one or more, all as wide), one above the other, each cell's column sent through
    the map ``column`` when given.

    Each block is taken off the list once it is copied, so its arrays go then,
    unless the caller holds them: the stack and all the blocks are never held
    at once.
    """
    width = blocks[0].shape[1]
    indptr = np.cumsum(np.concatenate([[0], *(np.diff(M.indptr) for M in blocks)]))
    indices = np.empty(indptr[-1], np.result_type(*(M.indices for M in blocks)))
    data = np.empty(indptr[-1], np.result_type(*(M.data for M in blocks)))
    cell = 0
    while blocks:
        M = blocks.pop(0)
        indices[cell : cell + M.nnz] = M.indices if column is None else column[M.indices]
        data[cell : cell + M.nnz] = M.data
        cell += M.nnz
    return of(indptr, indices, data, (len(indptr) - 1, width))


def _sorted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of the nonnegative ``keys``, and the keys in it.  Where each key shifted left by the bits of
    a position still fits in int64, that is one sort of key << bits | position, several times faster than a stable
    argsort; else the argsort."""
    bits = max(len(keys) - 1, 1).bit_length()
    if len(keys) and int(keys.max()) >> (63 - bits):
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = np.sort(keys << bits | np.arange(len(keys)))
    return packed & ((1 << bits) - 1), packed >> bits


def _cells(keys: np.ndarray, col: np.ndarray, values: np.ndarray, shape: tuple[int, int], product: bool) -> CSR:
    """The ``shape`` matrix of the cells at ``keys``, row * max(width, 1) + column, with columns ``col`` and values
    ``values``: a repeated key's values summed in the given order, in their dtype (for bool, whether any is true).
    For a ``product``, float sums start from 0.0 and add one term at a time, as scipy's product adds them, and a cell
    whose sum is zero is dropped, as scipy drops it."""
    order, keys = _sorted(keys)
    col, values = col[order], values[order]
    if len(keys) > 1 and not (new := keys[1:] != keys[:-1]).all():
        first = np.flatnonzero(np.concatenate([[True], new]))
        if product and values.dtype.kind == "f":
            values = np.bincount(np.concatenate([[0], np.cumsum(new)]), values, len(first))  # the terms' groups
        else:
            values = np.add.reduceat(values, first, dtype=values.dtype)
        keys, col = keys[first], col[first]
    if product and not values.all():
        kept = values != 0
        keys, col, values = keys[kept], col[kept], values[kept]
    return of(np.searchsorted(keys, np.arange(shape[0] + 1) * max(shape[1], 1)), col, values, shape)


def from_cells(row: np.ndarray, col: np.ndarray, values: np.ndarray, shape: tuple[int, int]) -> CSR:
    """The ``shape`` matrix holding ``values[k]`` at (``row[k]``, ``col[k]``), a repeated cell the sum of its values
    in their dtype (for bool, whether any is true); each row's columns ascend, and no cell is dropped."""
    col = np.asarray(col)
    return _cells(np.asarray(row, dtype=np.int64) * max(shape[1], 1) + col, col, np.asarray(values), shape, False)


def product(A: CSR, B: CSR) -> CSR:
    """A @ B, in their values' common dtype, with scipy's cells and bits.

    Each of A's cells (i, k, a) meets row k of B, giving a term a * b at
    (i, j) for each of its cells (k, j, b).  The terms of a cell are summed in
    that order, floats from 0.0, as scipy sums them, and a cell whose sum is
    zero is dropped, as scipy drops it.  A is taken
    :data:`_ROWS` rows at a time, each block's cells written into arrays
    sized for every term: the tail that summing and dropping leave unwritten
    is never touched, so it holds no memory.
    """
    shape = (A.shape[0], B.shape[1])
    width, lengths_of = max(B.shape[1], 1), np.diff(B.indptr)
    total = int(lengths_of[A.indices].sum())
    indptr = np.zeros(A.shape[0] + 1, np.int64)
    indices, data = np.empty(total, _index(shape, total)), np.empty(total, np.result_type(A.data, B.data))
    for start in range(0, A.shape[0], _ROWS):
        stop = min(start + _ROWS, A.shape[0])
        lo, hi = A.indptr[start], A.indptr[stop]
        k = A.indices[lo:hi]  # each cell of A meets the row of B its column names
        lengths = lengths_of[k]
        ends = np.cumsum(lengths, dtype=np.int64)
        cells = np.repeat(B.indptr[k] - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)
        row = np.repeat(np.arange(stop - start) * width, np.diff(A.indptr[start : stop + 1]))
        col = B.indices[cells]
        terms = np.repeat(A.data[lo:hi], lengths) * B.data[cells]
        M = _cells(np.repeat(row, lengths) + col, col, terms, (stop - start, B.shape[1]), True)
        nnz = indptr[start]
        indptr[start + 1 : stop + 1] = M.indptr[1:] + nnz
        indices[nnz : nnz + M.nnz], data[nnz : nnz + M.nnz] = M.indices, M.data
    return of(indptr, indices[: indptr[-1]], data[: indptr[-1]], shape)


def dense_product(M: CSR, D: np.ndarray) -> np.ndarray:
    """M @ D for a dense float D, as a float array: row i is 0.0 plus each of its cells' value times D's row, added in
    the cells' stored order, as scipy adds them (unsummed, v + v + v is not 3 * v in general).

    Step j adds the j-th cell of every row that has one: with the rows ordered
    longest first, those rows are a prefix, so each step adds one block.
    """
    lengths = np.diff(M.indptr)
    rows = np.argsort(-lengths, kind="stable")
    starts = M.indptr[rows].astype(np.int64)
    having = np.searchsorted(-lengths[rows], -np.arange(lengths.max(initial=0)), side="left")  # rows longer than j
    sums = np.zeros((M.shape[0], D.shape[1]))
    for j, n in enumerate(having.tolist()):
        cell = starts[:n] + j
        sums[:n] += M.data[cell, None] * D[M.indices[cell]]
    out = np.empty_like(sums)
    out[rows] = sums
    return out


def cells(M: CSR) -> tuple[np.ndarray, np.ndarray]:
    """The row and the column of each of M's cells, in stored order, as ``intp``: the positions :func:`matvec` and
    :func:`rmatvec` read, which numpy would otherwise cast from int32 at every product."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)), M.indices.astype(np.intp)


def matvec(M: CSR, x: np.ndarray, at: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """M @ x for a float vector x: row i is 0.0 plus each of its cells' value times x's entry, in stored order, as
    scipy adds them.  ``at`` is :func:`cells`, given when M is multiplied often."""
    rows, cols = cells(M) if at is None else at
    return np.bincount(rows, M.data * x[cols], M.shape[0])


def rmatvec(M: CSR, x: np.ndarray, at: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """M' @ x for a float vector x: column j is 0.0 plus each of its cells' value times x's entry, rows ascending, as
    scipy adds them.  ``at`` is :func:`cells`, given when M is multiplied often."""
    rows, cols = cells(M) if at is None else at
    return np.bincount(cols, M.data * x[rows], M.shape[1])
