"""Leakage-free train/dev/test splitting.

Abstracts and interaction samples are partitioned independently; abstracts are
then attached to samples only within the same split, so no abstract can inform
both a training-side and a test-side sample.  Within a split an abstract may
serve many samples.

A split is two code arrays, each row's index into :data:`SPLITS`, aligned with
the kept corpus's rows and the samples' (:func:`split_corpus`); names become
codes only where ``assignment.tsv`` is read (:func:`load_assignment`).  The
attachment is :func:`incidence`, the binary sample x abstract matrix: a function
of the abstracts' integer mention columns and the codes alone; so featurize and
``diagnose-split`` compute it rather than read it.  Split writes it to
``assigned_samples.tsv`` and counts leakage on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from . import artifacts
from .corpus import AbstractColumns
from .errors import ValidationError
from .labeling import InteractionSample
from .rng import Rng

SPLITS = ("train", "dev", "test")
DEFAULT_RATIOS = (0.64, 0.16, 0.20)  # test = 20% of all, dev = 20% of the rest

_ABSTRACT_STREAM = 11
_SAMPLE_STREAM = 12

Split = tuple[np.ndarray, np.ndarray]  # (each kept abstract's split code, each sample's), in row order


def _check_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    if len(ratios) != 3:
        raise ValidationError(f"need 3 split ratios, got {len(ratios)}")
    if any(r < 0 for r in ratios):
        raise ValidationError(f"negative split ratio in {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"split ratios must sum to 1, got {sum(ratios)!r}")
    return (ratios[0], ratios[1], ratios[2])


def _partition(n: int, ratios: tuple[float, float, float], rng: Rng) -> np.ndarray:
    """Each of n rows' split code: the shuffled rows, train's share first, then dev's, then test's."""
    order = list(range(n))
    rng.shuffle(order)
    # train takes the ceiling of its share first, then dev; test gets the rest
    n_train = min(n, math.ceil(ratios[0] * n - 1e-9))
    n_dev = min(n - n_train, math.ceil(ratios[1] * n - 1e-9))
    return np.repeat(np.arange(len(SPLITS)), (n_train, n_dev, n - n_train - n_dev))[np.argsort(order)]


def split_corpus(n_abstracts: int, n_samples: int, ratios: Sequence[float] = DEFAULT_RATIOS, seed: int = 0) -> Split:
    """Independent seeded partitions of the kept abstracts' rows and the samples' rows, as split codes."""
    ratios = _check_ratios(ratios)
    if not n_abstracts:
        raise ValidationError("cannot split an empty abstract list")
    if not n_samples:
        raise ValidationError("cannot split an empty sample list")
    root = Rng(seed)
    abstract_split = _partition(n_abstracts, ratios, root.derive(_ABSTRACT_STREAM))
    return abstract_split, _partition(n_samples, ratios, root.derive(_SAMPLE_STREAM))


def incidence(
    corpus: AbstractColumns, samples: Sequence[InteractionSample], split: Split | None = None
) -> tuple[sp.csr_matrix, list[int]]:
    """The binary sample x abstract incidence A, and the corpus row of the abstract behind each column.

    A[i, j] is 1 when abstract j mentions a drug of sample i and, given the rows' ``split`` codes, lies in its split
    (else the naive incidence); columns in sorted-id order.  A is one product, made binary: the samples' two-hot rows
    over (drug, split) codes, drug * len(SPLITS) + split, times the (drug, split) x abstract mentions, both from the
    corpus's integer mention columns.  A drug no abstract mentions has no code.
    """
    order = sorted(range(len(corpus.ids)), key=corpus.ids.__getitem__)
    M = corpus.mentions[order]
    naive = np.zeros(len(order), dtype=np.int64), np.zeros(len(samples), dtype=np.int64)
    abstract_split, sample_split = naive if split is None else split
    n_codes = len(SPLITS) * len(corpus.drugs)
    mentioned = len(SPLITS) * M.indices + np.repeat(abstract_split[order], np.diff(M.indptr))
    mentions = sp.csc_matrix((np.ones(M.nnz), mentioned, M.indptr), shape=(n_codes, len(order)))
    column = {drug: j for j, drug in enumerate(corpus.drugs)}
    drugs = np.array([(column.get(s.cardiac_drug, -1), column.get(s.other_drug, -1)) for s in samples],
                     dtype=np.int64).reshape(len(samples), 2)
    rows, which = np.nonzero(drugs >= 0)
    used = len(SPLITS) * drugs[rows, which] + sample_split[rows]
    uses = sp.csr_matrix((np.ones(len(rows)), (rows, used)), shape=(len(samples), n_codes))
    A = sp.csr_matrix(uses @ mentions)
    A.data[:] = 1.0  # an abstract mentioning both drugs counts 2
    A.sort_indices()
    return A, order


@dataclass
class LeakageReport:
    cross_split_shared: dict[tuple[str, str], int]
    empty_samples: dict[str, int]
    sample_counts: dict[str, int]
    abstract_counts: dict[str, int]

    @property
    def total_cross_split(self) -> int:
        return sum(self.cross_split_shared.values())

    def render(self) -> str:
        lines = ["cross-split shared abstracts:"]
        lines += [f"  {a}/{b}\t{count}" for (a, b), count in sorted(self.cross_split_shared.items())]
        lines.append("samples per split (with empty abstract sets):")
        lines += [f"  {split}\t{self.sample_counts[split]}\t{self.empty_samples[split]}" for split in SPLITS]
        lines.append("abstracts per split:")
        lines += [f"  {split}\t{self.abstract_counts[split]}" for split in SPLITS]
        return "\n".join(lines) + "\n"


def leakage_report(split: Split, A: sp.csr_matrix) -> LeakageReport:
    """Count abstracts serving samples of more than one split, on the incidence ``A`` of :func:`incidence`."""
    abstract_split, sample_split = split
    attached = np.diff(A.indptr)
    used = np.zeros((len(SPLITS), A.shape[1]), dtype=np.int64)  # split x abstract: 1 if a sample of it uses it
    used[np.repeat(sample_split, attached), A.indices] = 1
    shared = used @ used.T
    per_split = [dict(zip(SPLITS, np.bincount(codes, minlength=len(SPLITS)).tolist()))
                 for codes in (sample_split[attached == 0], sample_split, abstract_split)]
    return LeakageReport(
        {(a, b): int(shared[i, j]) for (i, a), (j, b) in itertools.combinations(enumerate(SPLITS), 2)}, *per_split
    )


def encode_assignment(split: Split, ids: Sequence[str], samples: Sequence[InteractionSample], seed: int,
                      ratios: Sequence[float]) -> artifacts.Encoded:
    """Rows (kind, key, split), sorted by key within each kind; the header records seed and ratios."""
    rows = (("abstract", ids, split[0]), ("sample", [s.key for s in samples], split[1]))
    body = "".join(f"{kind}\t{key}\t{SPLITS[code]}\n"
                   for kind, names, codes in rows for key, code in sorted(zip(names, codes.tolist())))
    return "split-assignment", {"seed": seed, "ratios": " ".join(map(repr, ratios))}, body


def load_assignment(path: Path | str) -> tuple[dict[str, dict[str, int]], dict[str, str]]:
    """Read an assignment file: each kind's key -> split code, and the header fields."""
    code = {name: i for i, name in enumerate(SPLITS)}
    splits: dict[str, dict[str, int]] = {"abstract": {}, "sample": {}}
    with artifacts.body_lines(path, width=3) as (rows, header):
        for kind, key, split in rows:
            if kind not in splits or split not in code:
                raise ValidationError(f"bad assignment row {chr(9).join((kind, key, split))!r}")
            splits[kind][key] = code[split]
    try:
        int(header["seed"])  # checked only: the stages take the seed from the config
        ratios = [float(r) for r in header["ratios"].split()]
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{path}: missing or bad seed/ratios header") from exc
    _check_ratios(ratios)
    return splits, header


def row_codes(assignment: Mapping[str, Mapping[str, int]], ids: Iterable[str],
              samples: Sequence[InteractionSample], path: Path | str) -> Split:
    """Each kept abstract's (by ``ids``) and each sample's split code under a loaded assignment, in row order; a row
    missing from the assignment at ``path`` is refused."""
    codes = []
    for kind, keys in (("abstract", ids), ("sample", (s.key for s in samples))):
        try:
            codes.append(np.array(list(map(assignment[kind].__getitem__, keys)), dtype=np.int64))
        except KeyError as exc:
            raise ValidationError(f"{path}: {kind} {exc.args[0]!r} missing from the split assignment") from None
    return codes[0], codes[1]
