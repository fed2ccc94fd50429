"""Per-sample features: summed word counts and tf-weighted embedding sums.

A sample's row is the sum of its abstracts' rows, so both feature kinds are one
product X = A @ P of the binary sample x abstract incidence matrix A (made by
:func:`ddimine.splitting.incidence`) and the part rows P: C, each abstract's
word counts over the vocabulary, or E = C' @ V, its counts C' over the
embedding table's words in sorted order times their vectors V.  The kept
corpus holds each abstract's word counts over its sorted word list
(:class:`ddimine.corpus.AbstractColumns`), so the vocabulary is a column sum
(:func:`build_vocab`) and C is a row selection with its columns remapped onto
the vocabulary's: no token is read again.  The table's columns are sorted too,
so C' keeps each row's words in sorted order, and E adds each distinct token's
tf * v in sorted-token order, bit for bit as a loop over the sorted tokens
would (see :func:`build_count_matrix`, the one builder of both).  A's columns
are the abstracts the samples reference, in sorted-id order; as the split
gives each abstract to one split, each abstract's row is built once per stage.
Counts are integers, so A @ C is exact, and the column order makes A @ E add a
sample's abstract vectors in sorted-id order.

:class:`FeatureMatrix` holds the factors; X is formed only when read, as CSC,
straight from them with no intermediate of its size.  A feature file holds the
factors too, so no sample x word matrix is ever written.  Its text header
carries ``rows``, ``parts``, ``dims`` and ``kind``; the body is seven records of
the codec in :mod:`ddimine.artifacts`, in :data:`_RECORDS` order: P's indptr,
columns and values, A's indptr and part indices, the labels, and the sample
keys.  Counts are stored as the smallest unsigned type; other values stay
float64, so -0.0, NaN payloads and fractions are kept.  ``ddimine show``
prints a file as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import artifacts
from .corpus import referenced
from .errors import ValidationError
from .labeling import InteractionSample
from .rng import Rng

_UNDERSAMPLE_STREAM = 21
_KINDS = ("counts", "embeddings")
# a feature file's body, in order, and each record's form
_RECORDS = {
    "part indptr": artifacts.INTEGERS, "part columns": artifacts.INTEGERS, "part values": artifacts.NUMBERS,
    "row indptr": artifacts.INTEGERS, "row part indices": artifacts.INTEGERS, "labels": artifacts.INTEGERS,
    "keys": artifacts.STRINGS,
}


@dataclass
class Vocabulary:
    """Tokens and their columns: by train-corpus frequency (descending, ties
    lexicographic) from :func:`build_vocab`, which must see train-split
    abstracts only; sorted, frequency 0, from :meth:`EmbeddingTable.columns`.
    """

    words: list[tuple[str, int]]
    index: dict[str, int]

    def __len__(self) -> int:
        return len(self.words)


def build_vocab(
    counts: sp.csr_matrix, words: Sequence[str], top_k: int | None = None, stopwords: Collection[str] = frozenset()
) -> Vocabulary:
    """Sum the train abstracts' word counts (rows of ``counts``, over the sorted ``words``) and keep the top k.

    A column sum is a word's frequency; ties keep column order, which is
    lexicographic.  Unused words and ``stopwords`` are left out.
    ``top_k=None`` keeps everything; ``top_k=0`` gives no words.
    """
    if top_k is not None and top_k < 0:
        raise ValidationError(f"top_k must be nonnegative, got {top_k}")
    freq = np.bincount(counts.indices, weights=counts.data, minlength=len(words))  # exact: float64 holds 2**53
    freq[_mask(words, stopwords)] = 0
    order = np.argsort(-freq, kind="stable")[: np.count_nonzero(freq)][:top_k]
    ordered = [(words[j], int(freq[j])) for j in order.tolist()]
    return Vocabulary(ordered, {tok: col for col, (tok, _) in enumerate(ordered)})


def _mask(words: Sequence[str], chosen: Collection[str]) -> np.ndarray:
    return np.fromiter((word in chosen for word in words), dtype=bool, count=len(words))


def encode_vocab(vocab: Vocabulary) -> artifacts.Encoded:
    return "vocabulary", {}, "".join(f"{tok}\t{freq}\n" for tok, freq in vocab.words)


class EmbeddingTable:
    """token -> dense vector, all of the same width."""

    def __init__(self, vectors: Mapping[str, np.ndarray]):
        if not vectors:
            raise ValidationError("embedding table is empty")
        dims = {len(v) for v in vectors.values()}
        if len(dims) != 1:
            raise ValidationError(f"inconsistent embedding widths: {sorted(dims)}")
        self.dim = dims.pop()
        self.vectors = {tok: np.asarray(v, dtype=float) for tok, v in vectors.items()}

    def columns(self, stopwords: Collection[str]) -> tuple[Vocabulary, np.ndarray]:
        """The non-stopword words in sorted order as a column index, and V, their vectors in that order."""
        words = sorted(tok for tok in self.vectors if tok not in stopwords)
        V = np.array([self.vectors[tok] for tok in words]).reshape(len(words), self.dim)
        return Vocabulary([(tok, 0) for tok in words], {tok: j for j, tok in enumerate(words)}), V

    @classmethod
    def load(cls, path: Path | str) -> "EmbeddingTable":
        """Read the plain-text vector format: ``token v1 v2 ... vd`` per line."""
        vectors: dict[str, np.ndarray] = {}
        with artifacts.input_lines(path) as lines:
            for line in lines:
                parts = line.split()
                tok = parts[0]
                if tok in vectors:
                    raise ValidationError(f"duplicate token {tok!r}")
                try:
                    vec = vectors[tok] = np.array([float(x) for x in parts[1:]], dtype=float)
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
        return cls(vectors)


@dataclass
class FeatureMatrix:
    """Aligned sample keys, feature rows as factors, and binary labels.

    ``parts`` holds the part rows P (an abstract's counts or embedding) as
    float CSR, duplicate cells summed, and ``A`` the binary sample x part
    incidence, so a sample's row is the sum of its parts, added in ascending
    part order.  ``X = A @ P`` is formed on first read and kept, as float CSC
    with sorted row indices: the transpose of the CSR product P' @ A', which
    writes X's arrays once, with no intermediate of X's size.  The solver
    reads X, its transpose (a CSR view) and its row selections from it alone.
    A feature file stores the CSR arrays of P and A (not A's data, all ones),
    ``y`` and ``keys`` as its body's records, narrowed, and ``kind`` in its
    header; :func:`load_matrix` widens them back to these types.
    """

    keys: list[str]
    parts: sp.csr_matrix
    y: np.ndarray
    kind: str  # one of _KINDS
    A: sp.csr_matrix

    def __post_init__(self) -> None:
        self.parts = sp.csr_matrix(self.parts, dtype=float)
        self.parts.sum_duplicates()
        if self.A.shape != (len(self.keys), self.parts.shape[0]):
            raise ValidationError(
                f"incidence is {self.A.shape}, expected {len(self.keys)} rows x {self.parts.shape[0]} parts"
            )

    @cached_property
    def X(self) -> sp.csc_matrix:
        X = (self.parts.T.tocsr() @ self.A.T.tocsr()).T
        X.sort_indices()
        return X

    @property
    def n_rows(self) -> int:
        return len(self.keys)

    @property
    def dims(self) -> int:
        return self.parts.shape[1]


def build_count_matrix(
    samples: Sequence[InteractionSample],
    A: sp.csr_matrix,
    counts: sp.csr_matrix,
    words: Sequence[str],
    vocab: Vocabulary,
    drop_empty: bool = False,
    V: np.ndarray | None = None,
    stopwords: Collection[str] = frozenset(),
) -> tuple[FeatureMatrix, int]:
    """Remap the counts of each abstract a row of ``A`` uses onto ``vocab``'s columns, as C; with ``V``, E = C @ V.

    ``A`` is the samples' incidence, and row j of ``counts`` holds the word
    counts of the abstract behind its column j, over the sorted ``words``.
    Returns the matrix, rows in sample order, and with ``V`` the miss count:
    each (sample, abstract) pair's distinct words outside ``vocab`` and
    ``stopwords``.  A row of C holds one cell per distinct word, its count, and
    is sorted, as scipy's product adds a row's tf * v terms in column order:
    the table's columns are its sorted words, so E adds them in sorted-token
    order, as a loop over the sorted tokens would, bit for bit (unsummed,
    v + v + v is not 3 * v in general).
    """
    if drop_empty:
        rows = np.flatnonzero(np.diff(A.indptr))
        samples, A = [samples[i] for i in rows], A[rows]
    A, used = referenced(A)
    counts = counts[used]
    column = np.array([vocab.index.get(word, -1) for word in words], dtype=np.int64)
    known = np.flatnonzero(column >= 0)
    remap = sp.csr_matrix((np.ones(len(known)), (known, column[known])), shape=(len(words), len(vocab)))
    C = sp.csr_matrix(counts @ remap)  # each known word's count moved to its vocabulary column
    C.sort_indices()
    misses = 0
    if V is not None:
        C = sp.csr_matrix(C @ V)
        outside = (column < 0) & ~_mask(words, stopwords)
        missed = sp.csr_matrix((outside[counts.indices], counts.indices, counts.indptr), shape=counts.shape)
        misses = int(np.bincount(A.indices, minlength=len(used)) @ np.asarray(missed.sum(axis=1)).ravel())
    y = np.array([s.label for s in samples], dtype=np.int64)
    return FeatureMatrix([s.key for s in samples], C, y, "counts" if V is None else "embeddings", A), misses


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
    A, used = referenced(matrix.A[keep])
    return FeatureMatrix([matrix.keys[i] for i in keep], matrix.parts[used], y[keep], matrix.kind, A)


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
    if kind not in _KINDS:
        raise ValidationError(f"{path}: kind {kind!r} is not one of {_KINDS}")
    parts = sp.csr_matrix((values.astype(np.float64, copy=False), cols, part_ptr), shape=(n_parts, dims))
    A = sp.csr_matrix((np.ones(refs.size), refs, row_ptr), shape=(n_rows, n_parts))
    return FeatureMatrix(keys, parts, labels.astype(np.int64), kind, A), header
