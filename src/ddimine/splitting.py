"""Leakage-free train/dev/test splitting.

Abstracts and interaction samples are partitioned independently; abstracts are
then attached to samples only within the same split, so no abstract can inform
both a training-side and a test-side sample.  Within a split an abstract may
serve many samples.

The attachment is :func:`incidence`, the binary sample x abstract matrix: a
function of the kept abstracts' integer mention columns and the two
partitions, as split codes aligned with the rows (:func:`split_codes`), alone;
so featurize and ``diagnose-split`` compute it rather than read it.  Split writes
it to ``assigned_samples.tsv`` and counts leakage on it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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


@dataclass
class SplitAssignment:
    abstract_split: dict[str, str]
    sample_split: dict[str, str]
    seed: int
    ratios: tuple[float, float, float]


def _check_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    if len(ratios) != 3:
        raise ValidationError(f"need 3 split ratios, got {len(ratios)}")
    if any(r < 0 for r in ratios):
        raise ValidationError(f"negative split ratio in {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValidationError(f"split ratios must sum to 1, got {sum(ratios)!r}")
    return (ratios[0], ratios[1], ratios[2])


def _partition(keys: list[str], ratios: tuple[float, float, float], rng: Rng) -> dict[str, str]:
    order = list(keys)
    rng.shuffle(order)
    n = len(order)
    # train takes the ceiling of its share first, then dev; test gets the rest
    n_train = min(n, math.ceil(ratios[0] * n - 1e-9))
    n_dev = min(n - n_train, math.ceil(ratios[1] * n - 1e-9))
    train, dev, test = order[:n_train], order[n_train : n_train + n_dev], order[n_train + n_dev :]
    return {**dict.fromkeys(train, "train"), **dict.fromkeys(dev, "dev"), **dict.fromkeys(test, "test")}


def split_corpus(
    abstract_ids: Sequence[str],
    samples: Sequence[InteractionSample],
    ratios: Sequence[float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> SplitAssignment:
    """Independent seeded partitions of abstracts (by id) and samples."""
    ratios = _check_ratios(ratios)
    if not abstract_ids:
        raise ValidationError("cannot split an empty abstract list")
    if not samples:
        raise ValidationError("cannot split an empty sample list")
    root = Rng(seed)
    abstract_split = _partition(list(abstract_ids), ratios, root.derive(_ABSTRACT_STREAM))
    sample_split = _partition([s.key for s in samples], ratios, root.derive(_SAMPLE_STREAM))
    return SplitAssignment(abstract_split, sample_split, seed, ratios)


def split_codes(split: Mapping[str, str], keys: Iterable[str], kind: str) -> np.ndarray:
    """Each key's split as its index in :data:`SPLITS`; a key missing from ``split`` is refused."""
    code = {name: i for i, name in enumerate(SPLITS)}
    try:
        return np.array([code[split[key]] for key in keys], dtype=np.int64)
    except KeyError as exc:
        raise ValidationError(f"{kind} {exc.args[0]!r} missing from the split assignment") from None


def incidence(
    corpus: AbstractColumns, samples: Sequence[InteractionSample], assignment: SplitAssignment | None = None
) -> tuple[sp.csr_matrix, list[int]]:
    """The binary sample x abstract incidence A, and the corpus row of the abstract behind each column.

    A[i, j] is 1 when abstract j mentions a drug of sample i and, given an ``assignment``, lies in its split (else
    the naive incidence); columns in sorted-id order.  A is one product, made binary: the samples' two-hot rows over
    (drug, split) codes, drug * len(SPLITS) + split, times the (drug, split) x abstract mentions, both from the corpus's
    integer mention columns.  A drug no abstract mentions has no code.
    """
    order = sorted(range(len(corpus.ids)), key=corpus.ids.__getitem__)
    M = corpus.mentions[order]
    abstract_split, sample_split = np.zeros(len(order), dtype=np.int64), np.zeros(len(samples), dtype=np.int64)
    if assignment is not None:
        abstract_split = split_codes(assignment.abstract_split, (corpus.ids[i] for i in order), "abstract")
        sample_split = split_codes(assignment.sample_split, (s.key for s in samples), "sample")
    n_codes = len(SPLITS) * len(corpus.drugs)
    mentioned = len(SPLITS) * M.indices + np.repeat(abstract_split, np.diff(M.indptr))
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


def leakage_report(
    assignment: SplitAssignment, samples: Sequence[InteractionSample], A: sp.csr_matrix
) -> LeakageReport:
    """Count abstracts serving samples of more than one split, on the incidence ``A`` of :func:`incidence`."""
    code = split_codes(assignment.sample_split, (s.key for s in samples), "sample")
    attached = np.diff(A.indptr)
    used = np.zeros((len(SPLITS), A.shape[1]), dtype=np.int64)  # split x abstract: 1 if a sample of it uses it
    used[np.repeat(code, attached), A.indices] = 1
    shared, abstracts = used @ used.T, Counter(assignment.abstract_split.values())
    return LeakageReport(
        {(a, b): int(shared[i, j]) for (i, a), (j, b) in itertools.combinations(enumerate(SPLITS), 2)},
        dict(zip(SPLITS, np.bincount(code[attached == 0], minlength=len(SPLITS)).tolist())),
        dict(zip(SPLITS, np.bincount(code, minlength=len(SPLITS)).tolist())),
        {split: abstracts[split] for split in SPLITS},
    )


def encode_assignment(assignment: SplitAssignment) -> artifacts.Encoded:
    """Rows (kind, key, split); the header records seed and ratios."""
    ratios = " ".join(map(repr, assignment.ratios))
    splits = (("abstract", assignment.abstract_split), ("sample", assignment.sample_split))
    body = "".join(f"{kind}\t{key}\t{split[key]}\n" for kind, split in splits for key in sorted(split))
    return "split-assignment", {"seed": assignment.seed, "ratios": ratios}, body


def load_assignment(path: Path | str) -> tuple[SplitAssignment, dict[str, str]]:
    """Read an assignment file; returns the assignment and its header fields."""
    splits: dict[str, dict[str, str]] = {"abstract": {}, "sample": {}}
    with artifacts.body_lines(path, width=3) as (rows, header):
        for kind, key, split in rows:
            if kind not in splits or split not in SPLITS:
                raise ValidationError(f"bad assignment row {chr(9).join((kind, key, split))!r}")
            splits[kind][key] = split
    try:
        seed = int(header["seed"])
        ratios = tuple(float(r) for r in header["ratios"].split())
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{path}: missing or bad seed/ratios header") from exc
    return SplitAssignment(splits["abstract"], splits["sample"], seed, _check_ratios(ratios)), header
