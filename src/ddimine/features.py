"""Per-sample features: summed word counts and tf-weighted embedding sums.

A sample's row is the sum of its abstracts' rows, so both feature kinds are one
product X = A @ P of the binary sample x abstract incidence matrix A (made by
:func:`ddimine.splitting.incidence`) and the part rows P: C, each abstract's
token counts over the vocabulary, or E = C' @ V, its counts C' over the
embedding table's words in sorted order times their vectors V.  Each row of C
is built from its abstract's token string, split only then and summed per
abstract, so no stage holds a list of every token.  C' is
canonical, so E adds each distinct token's tf * v in sorted-token order, bit
for bit as a loop over the sorted tokens would (see
:func:`build_count_matrix`, the one builder of both).  A's columns are the
abstracts the samples reference, in sorted-id order; as the split gives each
abstract to one split, each abstract's row is built once per stage.  Counts are
integers, so A @ C is exact, and the column order makes A @ E add a sample's
abstract vectors in sorted-id order.

:class:`FeatureMatrix` holds the factors; X is formed only when read, as CSC,
straight from them with no intermediate of its size.  A feature file holds the
factors too, so no sample x word matrix is ever written.  Its text header
carries ``rows``, ``parts``, ``dims``, ``kind`` and ``body: npy``; the body is
seven ``npy`` records (``numpy.lib.format``), in :data:`_RECORDS` order: P's
indptr, columns and values, A's indptr and part indices, the labels, and the
sample keys as one ``"\n"``-joined UTF-8 ``uint8`` blob.  Each index record is
the smallest unsigned type that holds its bound, and the values are too when
that type widens back to every float bit for bit (counts); else they stay
float64, so -0.0, NaN payloads and fractions are kept.  ``ddimine show``
prints a file as text.
"""

from __future__ import annotations

import io
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from tokenize import TokenError
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import artifacts
from .errors import ValidationError
from .labeling import InteractionSample
from .rng import Rng

_UNDERSAMPLE_STREAM = 21
_KINDS = ("counts", "embeddings")
# a feature file's body, in order; every record but the values holds unsigned integers
_RECORDS = ("part indptr", "part columns", "part values", "row indptr", "row part indices", "labels", "keys")


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


def build_vocab(train_abstracts: Iterable[Sequence[str]], top_k: int | None = None) -> Vocabulary:
    """Count token occurrences over the train abstracts' tokens and keep the top k.

    Counted one abstract at a time, so a generator of them is never held
    whole.  ``top_k=None`` keeps everything; ``top_k=0`` gives no words.
    """
    if top_k is not None and top_k < 0:
        raise ValidationError(f"top_k must be nonnegative, got {top_k}")
    counts: Counter[str] = Counter()
    for tokens in train_abstracts:
        counts.update(tokens)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if top_k is not None:
        ordered = ordered[:top_k]
    return Vocabulary(ordered, {tok: col for col, (tok, _) in enumerate(ordered)})


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
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                tok = parts[0]
                if tok in vectors:
                    raise ValidationError(f"{path}:{lineno}: duplicate token {tok!r}")
                try:
                    vec = vectors[tok] = np.array([float(x) for x in parts[1:]], dtype=float)
                except ValueError as exc:
                    raise ValidationError(f"{path}:{lineno}: bad vector component") from exc
                if vec.size == 0:
                    raise ValidationError(f"{path}:{lineno}: token {tok!r} has no components")
                width = len(next(iter(vectors.values())))  # the first token's
                if vec.size != width:
                    raise ValidationError(f"{path}:{lineno}: token {tok!r} has {vec.size} components, expected {width}")
                if not np.isfinite(vec).all():
                    raise ValidationError(f"{path}:{lineno}: token {tok!r} has a non-finite component")
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


def _referenced(A: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """A on the columns some row references, and those columns, ascending: so each row keeps its order."""
    used = np.unique(A.indices)
    return sp.csr_matrix((A.data, np.searchsorted(used, A.indices), A.indptr), shape=(A.shape[0], len(used))), used


def build_count_matrix(
    samples: Sequence[InteractionSample],
    A: sp.csr_matrix,
    abstracts: Sequence[str],
    vocab: Vocabulary,
    drop_empty: bool = False,
    V: np.ndarray | None = None,
    stopwords: Collection[str] = frozenset(),
) -> tuple[FeatureMatrix, int]:
    """Count the tokens of each abstract a row of ``A`` uses over ``vocab``'s columns into C; with ``V``, E = C @ V.

    ``A`` is the samples' incidence and ``abstracts[j]`` the space-joined
    tokens behind its column j, split only while its row is built.  Returns the
    matrix, rows in sample order, and with ``V`` the miss count: each (sample,
    abstract) pair's distinct tokens outside ``vocab`` and ``stopwords``.  A row
    of C holds one cell per distinct word, its count, and is sorted, as scipy's
    product adds a row's tf * v terms in column order: so E adds them in
    sorted-token order, as a loop over the sorted tokens would, bit for bit
    (unsummed, v + v + v is not 3 * v in general).
    """
    if drop_empty:
        rows = np.flatnonzero(np.diff(A.indptr))
        samples, A = [samples[i] for i in rows], A[rows]
    A, used = _referenced(A)
    index = vocab.index
    indices: list[int] = []
    counts: list[int] = []
    indptr = [0]
    missed: list[int] = []
    for text in map(abstracts.__getitem__, used.tolist()):
        tokens = text.split()
        row = Counter(map(index.get, tokens))  # column -> count; None counts the tokens outside the vocabulary
        row.pop(None, None)
        indices += row
        counts += row.values()
        indptr.append(len(indices))
        if V is not None:
            missed.append(sum(tok not in index and tok not in stopwords for tok in set(tokens)))
    C = sp.csr_matrix((np.array(counts, dtype=float), indices, indptr), shape=(len(used), len(vocab)))
    C.sort_indices()
    misses = 0
    if V is not None:
        C = sp.csr_matrix(C @ V)
        misses = int(np.bincount(A.indices, minlength=len(used)) @ np.array(missed, dtype=np.int64))
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
    A, used = _referenced(matrix.A[keep])
    return FeatureMatrix([matrix.keys[i] for i in keep], matrix.parts[used], y[keep], matrix.kind, A)


def encode_matrix(matrix: FeatureMatrix) -> artifacts.Encoded:
    """The sizes and kind as header fields, then the factors as narrowed ``npy`` records (see the module docstring)."""
    P, A = matrix.parts, matrix.A
    fields = {"rows": matrix.n_rows, "parts": P.shape[0], "dims": matrix.dims, "kind": matrix.kind, "body": "npy"}
    records = (
        _narrowed(P.indptr, P.nnz), _narrowed(P.indices, matrix.dims), _narrowed_values(P.data),
        _narrowed(A.indptr, A.nnz), _narrowed(A.indices, P.shape[0]), _narrowed(matrix.y, 1),
        np.frombuffer("\n".join(matrix.keys).encode(), dtype=np.uint8),
    )
    body = io.BytesIO()
    for record in records:
        np.lib.format.write_array(body, record, allow_pickle=False)
    return "feature-matrix", fields, body.getvalue()


def _narrowed(a: np.ndarray, bound: int) -> np.ndarray:
    return a.astype(np.min_scalar_type(bound))


def _narrowed_values(values: np.ndarray) -> np.ndarray:
    """``values`` as the smallest unsigned type that widens back to every one bit for bit, else as they are."""
    if values.size and 0 <= values.min() and values.max() < 2.0**64:  # NaN fails both tests
        narrow = _narrowed(values, int(values.max()))
        if np.array_equal(narrow.astype(np.float64).view(np.int64), values.view(np.int64)):  # no fraction or -0.0
            return narrow
    return values


def load_matrix(path: Path | str) -> tuple[FeatureMatrix, dict[str, str]]:
    """Inverse of :func:`encode_matrix`; returns the matrix and the header's other fields (the digest).

    Each record is read with ``allow_pickle=False`` and widened.  A body that
    does not hold exactly the seven records, with the sizes, bounds, labels in
    {0, 1} and kind the header and format promise, is refused with the path, as
    is a text body from before this format.
    """
    with artifacts.opened(path) as (fh, header):
        if header.pop("body", None) != "npy":
            raise ValidationError(f"{path}: not a feature file with an npy body (a text one is older); rerun featurize")
        try:
            n_rows, n_parts, dims = sizes = [int(header.pop(name)) for name in ("rows", "parts", "dims")]
            kind = header.pop("kind")
            if min(sizes) < 0:
                raise ValueError(f"negative size in {sizes}")
            records = [np.lib.format.read_array(fh, allow_pickle=False) for _ in _RECORDS]
            if fh.read(1):
                raise ValueError("bytes after the last record")
            for name, a in zip(_RECORDS, records):
                if a.ndim != 1 or a.dtype.kind != "u" and not (name == "part values" and a.dtype == np.float64):
                    raise ValueError(f"the {name} record is {a.dtype} of shape {a.shape}")
            part_ptr, cols, values, row_ptr, refs, labels, keys = records
            text = keys.tobytes().decode("utf-8")
        # numpy's parse of a damaged npy header can raise a ValueError, TypeError, SyntaxError or TokenError, and
        # MemoryError for a shape past what can be allocated; a missing header field is a KeyError
        except (KeyError, ValueError, TypeError, SyntaxError, TokenError, MemoryError) as exc:
            raise ValidationError(f"{path}: damaged feature file: {exc}") from exc
    _check_csr(path, part_ptr, cols, n_parts, dims, "part", "column")
    _check_csr(path, row_ptr, refs, n_rows, n_parts, "row", "part index")
    keys = text.split("\n") if text or n_rows else []
    if len(keys) != n_rows or len(labels) != n_rows:
        raise ValidationError(f"{path}: header says {n_rows} rows, found {len(keys)} keys and {len(labels)} labels")
    if labels.size and labels.max() > 1:
        raise ValidationError(f"{path}: a label is not 0 or 1")
    if kind not in _KINDS:
        raise ValidationError(f"{path}: kind {kind!r} is not one of {_KINDS}")
    parts = sp.csr_matrix((values.astype(np.float64, copy=False), cols, part_ptr), shape=(n_parts, dims))
    A = sp.csr_matrix((np.ones(refs.size), refs, row_ptr), shape=(n_rows, n_parts))
    return FeatureMatrix(keys, parts, labels.astype(np.int64), kind, A), header


def _check_csr(path, indptr: np.ndarray, indices: np.ndarray, n: int, bound: int, row: str, index: str) -> None:
    """Refuse an indptr other than n + 1 ascending offsets from 0 to the indices' end, or an index from ``bound`` up."""
    if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(indices) or (indptr[:-1] > indptr[1:]).any():
        raise ValidationError(f"{path}: the {row} indptr is not {n + 1} ascending offsets from 0 to {len(indices)}")
    if indices.size and indices.max() >= bound:
        raise ValidationError(f"{path}: a {row}'s {index} is not in [0, {bound})")
