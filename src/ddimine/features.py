"""Per-sample features: summed word counts and tf-weighted embedding sums.

A sample's row is the sum of its abstracts' rows, so both feature kinds are one
product X = A @ P of the binary sample x abstract incidence matrix A (made by
:func:`ddimine.splitting.incidence`) and the part rows P.  A's columns are the
abstracts the samples reference, in sorted-id order; as the split gives each
abstract to one split, each abstract's row is built once per stage.  The kept
corpus holds each abstract's word counts C over its sorted word list
(:class:`ddimine.corpus.AbstractColumns`), so the vocabulary is a column sum
(:func:`build_vocab`, a ``(word, frequency)`` list).  One 0/1 map M, words x
columns (:func:`column_map`), sends each word to its column: the vocabulary's,
or the embedding table's sorted non-stopword words (:func:`load_embeddings`,
which gives their vectors V too).  P is C @ M for counts and C @ (M @ V) for
embeddings (:func:`build_count_matrix`): integer sums for counts, exact; for
embeddings, each word's tf * v added in sorted-word order, and a sample's
abstract vectors in sorted-id order.

:class:`FeatureMatrix` holds the factors, and no stage forms X: training and
scoring go through A and P (:class:`ddimine.learn.Design`).  A feature file
holds the factors too, so no sample x word matrix is ever written.  Its text
header carries ``rows``, ``parts``, ``dims`` and ``kind``; the body is seven
records of the codec in :mod:`ddimine.artifacts`, in :data:`_RECORDS` order:
P's indptr, columns and values, A's indptr and part indices, the labels, and
the sample keys.  Counts are stored as the smallest unsigned type; other values
stay float64, so -0.0, NaN payloads and fractions are kept.  ``ddimine show``
prints a file as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Sequence

import numpy as np

from . import artifacts, csr
from .config import FEATURE_KINDS
from .corpus import referenced
from .errors import ValidationError
from .labeling import InteractionSample
from .rng import Rng

_UNDERSAMPLE_STREAM = 21
# a feature file's body, in order, and each record's form
_RECORDS = {
    "part indptr": artifacts.INTEGERS, "part columns": artifacts.INTEGERS, "part values": artifacts.NUMBERS,
    "row indptr": artifacts.INTEGERS, "row part indices": artifacts.INTEGERS, "labels": artifacts.INTEGERS,
    "keys": artifacts.STRINGS,
}


def build_vocab(
    counts: csr.CSR, words: Sequence[str], top_k: int | None = None, dropped: np.ndarray | bool = False
) -> list[tuple[str, int]]:
    """Sum the train abstracts' word counts (rows of ``counts``, over the sorted ``words``) and keep the top k.

    Returns ``(word, frequency)`` by frequency, descending, ties in column
    order, which is lexicographic.  It must see train-split abstracts only.
    Unused words and the ``dropped`` ones (a mask) are left out.
    ``top_k=None`` keeps everything; ``top_k=0`` gives no words.
    """
    if top_k is not None and top_k < 0:
        raise ValidationError(f"top_k must be nonnegative, got {top_k}")
    freq = np.bincount(counts.indices, weights=counts.data, minlength=len(words))  # exact: float64 holds 2**53
    freq[dropped] = 0
    order = np.argsort(-freq, kind="stable")[: np.count_nonzero(freq)][:top_k]
    return [(words[j], int(freq[j])) for j in order.tolist()]


def encode_vocab(vocab: Sequence[tuple[str, int]]) -> artifacts.Encoded:
    return "vocabulary", {}, "".join(f"{tok}\t{freq}\n" for tok, freq in vocab)


def load_embeddings(path: Path | str, stopwords: Collection[str]) -> tuple[list[str], np.ndarray]:
    """Read the plain-text vector format, ``token v1 v2 ... vd`` per line, all of one width.

    Returns the non-stopword tokens in sorted order, and V, their vectors in
    that order.  A repeated token, a bad, missing or non-finite component, a
    width unlike the first line's, and an empty table are refused.
    """
    vectors: dict[str, np.ndarray] = {}
    with artifacts.input_lines(path) as lines:
        for line in lines:
            tok, *parts = line.split()
            if tok in vectors:
                raise ValidationError(f"duplicate token {tok!r}")
            try:
                vec = vectors[tok] = np.array([float(x) for x in parts], dtype=float)
            except ValueError as exc:
                raise ValidationError("bad vector component") from exc
            if vec.size == 0:
                raise ValidationError(f"token {tok!r} has no components")
            width = len(next(iter(vectors.values())))  # the first token's
            if vec.size != width:
                raise ValidationError(f"token {tok!r} has {vec.size} components, expected {width}")
            if not np.isfinite(vec).all():
                raise ValidationError(f"token {tok!r} has a non-finite component")
    if not vectors:
        raise ValidationError(f"{path}: embedding table is empty")
    words = sorted(tok for tok in vectors if tok not in stopwords)
    return words, np.array([vectors[tok] for tok in words]).reshape(len(words), width)


def column_map(words: Sequence[str], columns: Sequence[str]) -> csr.CSR:
    """M, the 0/1 ``words`` x ``columns`` map: row i holds a 1 in the column of ``words[i]``, if it is a column."""
    index = {word: j for j, word in enumerate(columns)}
    column = np.array([index.get(word, -1) for word in words], dtype=np.int64)
    known = np.flatnonzero(column >= 0)
    return csr.from_cells(known, column[known], np.ones(len(known)), (len(words), len(columns)))


@dataclass
class FeatureMatrix:
    """Aligned sample keys, feature rows as factors, and binary labels.

    ``parts`` holds the part rows P (an abstract's counts or embedding) as
    float CSR, each row's columns ascending and distinct, and ``A`` the binary
    sample x part incidence, so a sample's row is the sum of its parts, added
    in ascending part order.  The solver and the scores read A and P alone.
    ``X = A @ P`` is formed only on a read of :attr:`X`, which no stage makes
    (the benchmark does), and kept, as scipy's float CSC with sorted row
    indices: the transpose of the CSR product P' @ A', which writes X's arrays
    once, with no intermediate of X's size.  A feature file stores the CSR
    arrays of P and A (not A's data, all ones), ``y`` and ``keys`` as its
    body's records, narrowed, and ``kind`` in its header; :func:`load_matrix`
    widens them back to these types.
    """

    keys: list[str]
    parts: csr.CSR
    y: np.ndarray
    kind: str  # one of FEATURE_KINDS
    A: csr.CSR

    def __post_init__(self) -> None:
        self.parts = self.parts._replace(data=self.parts.data.astype(float, copy=False))
        if self.A.shape != (len(self.keys), self.parts.shape[0]):
            raise ValidationError(
                f"incidence is {self.A.shape}, expected {len(self.keys)} rows x {self.parts.shape[0]} parts"
            )

    @cached_property
    def X(self):
        X = (self.parts.scipy().T.tocsr() @ self.A.scipy().T.tocsr()).T
        X.sort_indices()
        return X

    @property
    def n_rows(self) -> int:
        return len(self.keys)

    @property
    def dims(self) -> int:
        return self.parts.shape[1]

    def select(self, rows: np.ndarray) -> FeatureMatrix:
        """These rows, in this order, and only the parts they use: the same parts, uncopied, when they use all."""
        A, used = referenced([csr.rows(self.A, rows)])
        parts = self.parts if len(used) == self.parts.shape[0] else csr.rows(self.parts, used)
        return FeatureMatrix([self.keys[i] for i in rows], parts, self.y[rows], self.kind, A)


def build_count_matrix(
    samples: Sequence[InteractionSample],
    A: csr.CSR,
    counts: csr.CSR,
    M: csr.CSR,
    drop_empty: bool = False,
    V: np.ndarray | None = None,
    missable: np.ndarray | bool = True,
) -> tuple[FeatureMatrix, int]:
    """Each abstract a row of ``A`` uses, as its word counts C times the map ``M``: C @ M, or with ``V``, C @ (M @ V).

    Row j of ``counts`` holds the word counts of the abstract behind column j
    of ``A``, and ``M`` sends the words to the columns (:func:`column_map`).
    Returns the matrix, rows in sample order, and with ``V`` the miss count:
    each (sample, abstract) pair's distinct ``missable`` words (a mask) that
    ``M`` sends nowhere.  Counts are integer sums, exact.  C's rows are
    sorted, and :func:`ddimine.csr.dense_product` adds a row's tf * v terms in
    that order, as a loop over the sorted tokens would, bit for bit (unsummed,
    v + v + v is not 3 * v in general); a word sent nowhere adds a zero, which
    leaves the sum as it is.
    """
    A, used = referenced([A])
    counts = csr.rows(counts, used)
    keys, y = [s.key for s in samples], np.array([s.label for s in samples], dtype=np.int64)
    misses = 0
    if V is None:
        parts = csr.product(counts, M)
    else:
        uses = np.bincount(A.indices, minlength=len(used))  # each abstract's samples
        row = np.repeat(np.arange(len(used)), np.diff(counts.indptr))
        outside = (np.diff(M.indptr) == 0) & missable
        misses = int(uses[row] @ (outside[counts.indices] & (counts.data != 0)))
        P = csr.dense_product(counts, csr.dense_product(M, V))  # M @ V: each word's vector, or zeros
        row, col = np.nonzero(P)
        parts = csr.from_cells(row, col, P[row, col], P.shape)
    matrix = FeatureMatrix(keys, parts, y, "counts" if V is None else "embeddings", A)
    if drop_empty:
        matrix = matrix.select(np.flatnonzero(np.diff(A.indptr)))
    return matrix, misses


def undersample(matrix: FeatureMatrix, seed: int) -> FeatureMatrix:
    """Balance labels by sampling the majority class down to the minority count.

    All minority rows survive; majority survivors are drawn without
    replacement by the seeded generator.  Row order is the original order
    restricted to survivors, and the parts no survivor references are
    dropped.  Already-balanced input is returned as-is.
    """
    y = matrix.y
    pos = np.flatnonzero(y == 1)
    neg = np.flatnonzero(y == 0)
    if len(pos) == 0 or len(neg) == 0:
        raise ValidationError("undersample requires both classes present")
    if len(pos) == len(neg):
        return matrix
    minority, majority = (pos, neg) if len(pos) < len(neg) else (neg, pos)
    rng = Rng(seed).derive(_UNDERSAMPLE_STREAM)
    chosen = rng.sample_indices(len(majority), len(minority))
    keep = np.sort(np.concatenate([minority, majority[np.array(chosen, dtype=np.int64)]]))
    return matrix.select(keep)


def encode_matrix(matrix: FeatureMatrix) -> artifacts.Encoded:
    """The sizes and kind as header fields, then the factors as narrowed ``npy`` records (see the module docstring)."""
    P, A = matrix.parts, matrix.A
    fields = {"rows": matrix.n_rows, "parts": P.shape[0], "dims": matrix.dims, "kind": matrix.kind}
    return artifacts.encode_records("feature-matrix", fields, (
        artifacts.narrowed(P.indptr, P.nnz), artifacts.narrowed(P.indices, matrix.dims),
        artifacts.narrowed_values(P.data), artifacts.narrowed(A.indptr, A.nnz),
        artifacts.narrowed(A.indices, P.shape[0]), artifacts.narrowed(matrix.y, 1), matrix.keys,
    ))


def load_matrix(path: Path | str) -> tuple[FeatureMatrix, dict[str, str]]:
    """Inverse of :func:`encode_matrix`; returns the matrix and the header's other fields (the digest).

    The records are read and checked by :func:`ddimine.artifacts.read_records`
    and widened.  Sizes, bounds, labels in {0, 1} and a kind other than the
    header and format promise are refused with the path.
    """
    records, header = artifacts.read_records(path, _RECORDS, "feature file", "featurize")
    try:
        n_rows, n_parts, dims = sizes = [int(header.pop(name)) for name in ("rows", "parts", "dims")]
        kind = header.pop("kind")
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{path}: damaged feature file: a missing or bad header field: {exc}") from exc
    if min(sizes) < 0:
        raise ValidationError(f"{path}: damaged feature file: negative size in {sizes}")
    part_ptr, cols, values, row_ptr, refs, labels, keys = records.values()
    artifacts.check_csr(path, part_ptr, cols, n_parts, dims, "part", "column")
    artifacts.check_csr(path, row_ptr, refs, n_rows, n_parts, "row", "part index")
    if len(keys) != n_rows or len(labels) != n_rows:
        raise ValidationError(f"{path}: header says {n_rows} rows, found {len(keys)} keys and {len(labels)} labels")
    if labels.size and labels.max() > 1:
        raise ValidationError(f"{path}: a label is not 0 or 1")
    if kind not in FEATURE_KINDS:
        raise ValidationError(f"{path}: kind {kind!r} is not one of {FEATURE_KINDS}")
    parts = csr.of(part_ptr, cols, values.astype(np.float64, copy=False), (n_parts, dims))
    A = csr.of(row_ptr, refs, np.ones(refs.size), (n_rows, n_parts))
    return FeatureMatrix(keys, parts, labels.astype(np.int64), kind, A), header
