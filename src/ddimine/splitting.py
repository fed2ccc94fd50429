"""Leakage-free train/dev/test splitting.

Abstracts and interaction samples are partitioned independently; abstracts are
then attached to samples only within the same split, so no abstract can inform
both a training-side and a test-side sample.  Within a split an abstract may
serve many samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import artifacts
from .corpus import TokenizedAbstract
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
    out = {}
    for i, key in enumerate(order):
        if i < n_train:
            out[key] = "train"
        elif i < n_train + n_dev:
            out[key] = "dev"
        else:
            out[key] = "test"
    return out


def split_corpus(
    abstracts: Sequence[TokenizedAbstract],
    samples: Sequence[InteractionSample],
    ratios: Sequence[float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> SplitAssignment:
    """Independent seeded partitions of abstracts and samples."""
    ratios = _check_ratios(ratios)
    if not abstracts:
        raise ValidationError("cannot split an empty abstract list")
    if not samples:
        raise ValidationError("cannot split an empty sample list")
    root = Rng(seed)
    abstract_split = _partition([ab.id for ab in abstracts], ratios, root.derive(_ABSTRACT_STREAM))
    sample_split = _partition([s.key for s in samples], ratios, root.derive(_SAMPLE_STREAM))
    return SplitAssignment(abstract_split, sample_split, seed, ratios)


def assign_abstracts(
    assignment: SplitAssignment,
    abstracts: Sequence[TokenizedAbstract],
    samples: Sequence[InteractionSample],
) -> list[InteractionSample]:
    """Attach same-split abstracts to each sample (mention of either drug).

    Samples whose drugs are mentioned by no same-split abstract keep an empty
    abstract set; they are not dropped here.
    """
    index: dict[str, dict[str, set[str]]] = {split: {} for split in SPLITS}
    for ab in abstracts:
        try:
            split = assignment.abstract_split[ab.id]
        except KeyError:
            raise ValidationError(f"abstract {ab.id!r} missing from the split assignment") from None
        bucket = index[split]
        for drug in ab.drug_mentions:
            bucket.setdefault(drug, set()).add(ab.id)
    out = []
    empty: set[str] = set()
    for s in samples:
        try:
            split = assignment.sample_split[s.key]
        except KeyError:
            raise ValidationError(f"sample {s.key!r} missing from the split assignment") from None
        bucket = index[split]
        ids = bucket.get(s.cardiac_drug, empty) | bucket.get(s.other_drug, empty)
        out.append(replace(s, abstract_ids=frozenset(ids)))
    return out


def assign_abstracts_naive(
    abstracts: Sequence[TokenizedAbstract], samples: Sequence[InteractionSample]
) -> list[InteractionSample]:
    """Diagnostic baseline: attach every mentioning abstract, ignoring splits.

    This is the assignment rule a random per-sample split implies; it leaks
    abstracts across split boundaries and exists to demonstrate that.
    """
    index: dict[str, set[str]] = {}
    for ab in abstracts:
        for drug in ab.drug_mentions:
            index.setdefault(drug, set()).add(ab.id)
    empty: set[str] = set()
    return [
        replace(s, abstract_ids=frozenset(index.get(s.cardiac_drug, empty) | index.get(s.other_drug, empty)))
        for s in samples
    ]


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
        for (a, b), count in sorted(self.cross_split_shared.items()):
            lines.append(f"  {a}/{b}\t{count}")
        lines.append("samples per split (with empty abstract sets):")
        for split in SPLITS:
            lines.append(
                f"  {split}\t{self.sample_counts.get(split, 0)}\t{self.empty_samples.get(split, 0)}"
            )
        lines.append("abstracts per split:")
        for split in SPLITS:
            lines.append(f"  {split}\t{self.abstract_counts.get(split, 0)}")
        return "\n".join(lines) + "\n"


def leakage_report(
    assignment: SplitAssignment, samples: Sequence[InteractionSample]
) -> LeakageReport:
    """Count abstracts serving samples in more than one split.

    The count is zero by construction for :func:`assign_abstracts` output and
    positive for the naive baseline whenever an abstract's drugs span splits.
    """
    used_in: dict[str, set[str]] = {}
    empty = {split: 0 for split in SPLITS}
    sample_counts = {split: 0 for split in SPLITS}
    for s in samples:
        split = assignment.sample_split[s.key]
        sample_counts[split] += 1
        if not s.abstract_ids:
            empty[split] += 1
        for aid in s.abstract_ids:
            used_in.setdefault(aid, set()).add(split)
    shared: dict[tuple[str, str], int] = {}
    for i, a in enumerate(SPLITS):
        for b in SPLITS[i + 1 :]:
            shared[(a, b)] = sum(1 for splits in used_in.values() if a in splits and b in splits)
    abstract_counts = {split: 0 for split in SPLITS}
    for split in assignment.abstract_split.values():
        abstract_counts[split] += 1
    return LeakageReport(shared, empty, sample_counts, abstract_counts)


def encode_assignment(assignment: SplitAssignment) -> artifacts.Encoded:
    """Rows (kind, key, split); the header records seed and ratios."""
    ratios = " ".join(map(repr, assignment.ratios))
    splits = (("abstract", assignment.abstract_split), ("sample", assignment.sample_split))
    body = "".join(f"{kind}\t{key}\t{split[key]}\n" for kind, split in splits for key in sorted(split))
    return "split-assignment", {"seed": assignment.seed, "ratios": ratios}, body


def load_assignment(path: Path | str) -> tuple[SplitAssignment, dict[str, str]]:
    """Read an assignment file; returns the assignment and its header fields."""
    lines, header = artifacts.read(path)
    abstract_split: dict[str, str] = {}
    sample_split: dict[str, str] = {}
    for line in lines:
        parts = line.split("\t")
        if len(parts) != 3 or parts[0] not in ("abstract", "sample") or parts[2] not in SPLITS:
            raise ValidationError(f"{path}: bad assignment row {line!r}")
        target = abstract_split if parts[0] == "abstract" else sample_split
        target[parts[1]] = parts[2]
    try:
        seed = int(header["seed"])
        ratios = tuple(float(r) for r in header["ratios"].split())
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{path}: missing or bad seed/ratios header") from exc
    return SplitAssignment(abstract_split, sample_split, seed, _check_ratios(ratios)), header
