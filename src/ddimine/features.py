"""Per-sample features: summed word counts and tf-weighted embedding sums.

A sample's row is the sum of its abstracts' rows, so both feature kinds are one
product X = A @ P of the binary sample x abstract incidence matrix A (made by
:func:`ddimine.splitting.incidence`) and the part rows P: C, each abstract's
token counts over the vocabulary, or E = C' @ V, its counts C' over the
embedding table's words in sorted order times their vectors V.  C' is
canonical, so E adds each distinct token's tf * v in sorted-token order, bit
for bit as a loop over the sorted tokens would (see
:func:`build_count_matrix`, the one builder of both).  A's columns are the
abstracts the samples reference, in sorted-id order; as the split gives each
abstract to one split, each abstract's row is built once per stage.  Counts are
integers, so A @ C is exact, and the column order makes A @ E add a sample's
abstract vectors in sorted-id order.

:class:`FeatureMatrix` holds the factors; X is formed only when read, as CSC,
straight from them with no intermediate of its size.  A feature file holds the
factors too: each part row once, as ``col:value`` pairs, then one line per
sample with the indices of its part rows, so no sample x word matrix is ever
written.  Indices, not abstract ids, because ids may hold spaces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import artifacts
from .errors import ValidationError
from .labeling import InteractionSample
from .rng import Rng

_UNDERSAMPLE_STREAM = 21


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

    ``top_k=None`` keeps everything; ``top_k=0`` gives an empty vocabulary.
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
        with open(path, encoding="utf-8") as fh:
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
    """

    keys: list[str]
    parts: sp.csr_matrix
    y: np.ndarray
    kind: str  # "counts" | "embeddings"
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
    abstracts: Sequence[Sequence[str]],
    vocab: Vocabulary,
    drop_empty: bool = False,
    V: np.ndarray | None = None,
    stopwords: Collection[str] = frozenset(),
) -> tuple[FeatureMatrix, int]:
    """Count the tokens of each abstract a row of ``A`` uses over ``vocab``'s columns into C; with ``V``, E = C @ V.

    ``A`` is the samples' incidence and ``abstracts[j]`` the tokens behind its
    column j.  Returns the matrix, rows in sample order, and with ``V`` the
    miss count: each (sample, abstract) pair's distinct tokens outside
    ``vocab`` and ``stopwords``.  C is summed and sorted first, as scipy's
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
    indptr = [0]
    missed: list[int] = []
    for tokens in map(abstracts.__getitem__, used.tolist()):
        indices += [index[tok] for tok in tokens if tok in index]
        indptr.append(len(indices))
        if V is not None:
            missed.append(sum(tok not in index and tok not in stopwords for tok in set(tokens)))
    C = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(used), len(vocab)))
    C.sum_duplicates()
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
    """Each part row as ``col:value`` pairs, then one row record per sample with its part indices.

    The body is a generator: no text exists until the artifact is written.
    """
    return "feature-matrix", {}, _matrix_lines(matrix)


def _matrix_lines(matrix: FeatureMatrix) -> Iterator[str]:
    P, A = matrix.parts, matrix.A
    yield f"rows {matrix.n_rows}\nparts {P.shape[0]}\ndims {matrix.dims}\nkind {matrix.kind}\n"
    indptr, cols, vals = P.indptr.tolist(), P.indices.tolist(), P.data.tolist()
    for start, end in zip(indptr, indptr[1:]):
        yield " ".join(["part", *map("{}:{!r}".format, cols[start:end], vals[start:end])]) + "\n"
    indptr, refs = A.indptr.tolist(), A.indices.tolist()
    for key, label, start, end in zip(matrix.keys, matrix.y.tolist(), indptr, indptr[1:]):
        yield " ".join(["row", key, str(label), *map(str, refs[start:end])]) + "\n"


def load_matrix(path: Path | str) -> tuple[FeatureMatrix, dict[str, str]]:
    """Inverse of :func:`encode_matrix`; returns the matrix and header fields.

    The cells of every part row, and the part indices of every sample row, are
    each parsed in one numpy conversion.  A file from before the factored
    format, with no ``parts`` line, is refused.
    """
    lines, header = artifacts.read(path)
    meta: dict[str, str] = {}
    cells: list[str] = []
    keys: list[str] = []
    labels: list[int] = []
    refs: list[str] = []
    for line in lines:
        fields = line.split(" ", 3)
        if fields[0] == "part":
            cells.append(line[5:])
        elif fields[0] == "row" and len(fields) >= 3:
            keys.append(fields[1])
            labels.append(int(fields[2]))
            refs.append(fields[3] if len(fields) == 4 else "")
        elif fields[0] in ("rows", "parts", "dims", "kind") and len(fields) == 2:
            meta[fields[0]] = fields[1]
        elif line:
            raise ValidationError(f"{path}: unexpected line {line!r}")
    if "parts" not in meta:
        raise ValidationError(f"{path}: sample x word feature file from an older version; rerun featurize")
    try:
        n_rows, n_parts, dims, kind = int(meta["rows"]), int(meta["parts"]), int(meta["dims"]), meta["kind"]
    except KeyError as exc:
        raise ValidationError(f"{path}: incomplete matrix header") from exc
    if len(keys) != n_rows:
        raise ValidationError(f"{path}: header says {n_rows} rows, found {len(keys)}")
    if len(cells) != n_parts:
        raise ValidationError(f"{path}: header says {n_parts} parts, found {len(cells)}")
    values, indptr = _numbers(path, cells, [c.count(":") for c in cells], 2, "cells")
    cols = values[0::2].astype(np.int64)
    if not np.array_equal(cols, values[0::2]) or cols.size and not 0 <= cols.min() <= cols.max() < dims:
        raise ValidationError(f"{path}: a cell's column is not an integer in [0, {dims})")
    parts = sp.csr_matrix((np.ascontiguousarray(values[1::2]), cols, indptr), shape=(n_parts, dims))
    values, indptr = _numbers(path, refs, [r.count(" ") + 1 if r else 0 for r in refs], 1, "part indices")
    idx = values.astype(np.int64)
    if not np.array_equal(idx, values) or idx.size and not 0 <= idx.min() <= idx.max() < n_parts:
        raise ValidationError(f"{path}: a part index is not an integer in [0, {n_parts})")
    A = sp.csr_matrix((np.ones(idx.size), idx, indptr), shape=(n_rows, n_parts))
    return FeatureMatrix(keys, parts, np.array(labels, dtype=np.int64), kind, A), header


def _numbers(path, texts: list[str], counts: list[int], width: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Every number in ``texts``, read as floats in one conversion, and the indptr of their entries.

    Text i holds ``counts[i]`` entries of ``width`` numbers each, split by spaces
    (and by ``:`` within a ``col:value`` cell).
    """
    # fromstring reads a blank string as [-1.0]
    values = np.fromstring(" ".join(filter(None, texts)).replace(":", " "), sep=" ")
    indptr = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if values.size != width * indptr[-1]:
        raise ValidationError(f"{path}: malformed {what}")
    return values, indptr
