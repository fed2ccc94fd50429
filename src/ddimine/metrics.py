"""Confusion-matrix metrics, ROC curves and AUC with explicit tie handling."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class BinaryMetrics:
    """The four ratios; ``None`` marks an undefined 0/0, rendered as N/A."""

    sensitivity: float | None
    specificity: float | None
    ppv: float | None
    npv: float | None


def confusion(scores, labels, threshold: float) -> ConfusionCounts:
    """Counts with the rule: predict positive iff score >= threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValidationError(f"scores and labels differ in length: {scores.shape} vs {labels.shape}")
    if scores.size == 0:
        raise ValidationError("confusion over empty vectors")
    pred = scores >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


def _ratio(num: int, denom: int) -> float | None:
    return None if denom == 0 else num / denom


def binary_metrics(c: ConfusionCounts) -> BinaryMetrics:
    return BinaryMetrics(
        sensitivity=_ratio(c.tp, c.tp + c.fn),
        specificity=_ratio(c.tn, c.tn + c.fp),
        ppv=_ratio(c.tp, c.tp + c.fp),
        npv=_ratio(c.tn, c.tn + c.fn),
    )


@dataclass
class RocCurve:
    """Threshold sweep; points run (0,0) .. (1,1), both coordinates non-decreasing."""

    thresholds: list[float]  # thresholds[i] realizes points[i]; first is +inf
    points: list[tuple[float, float]]  # (false positive rate, sensitivity)
    auc: float


def roc_curve(scores, labels) -> RocCurve:
    """ROC by descending threshold sweep with tied scores grouped into one step.

    Grouping ties makes the trapezoidal area equal the rank-statistic AUC with
    ties counted one half.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValidationError(f"scores and labels differ in length: {scores.shape} vs {labels.shape}")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("AUC undefined: both classes must be present")
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    pos_sorted = (labels[order] == 1).astype(np.int64)
    cum_tp = np.cumsum(pos_sorted)
    cum_fp = np.cumsum(1 - pos_sorted)
    # last index of each tied-score group
    group_ends = np.append(np.flatnonzero(np.diff(s_sorted) != 0.0), len(s_sorted) - 1)
    fpr = np.append(0.0, cum_fp[group_ends] / n_neg)
    tpr = np.append(0.0, cum_tp[group_ends] / n_pos)
    # summed in order, as a loop over the points would: np.sum's pairwise order would change the last bits
    auc = float(np.cumsum(np.diff(fpr) * (tpr[:-1] + tpr[1:]) / 2.0)[-1])
    # lists of Python floats, whose repr the curve files print
    thresholds = [math.inf] + s_sorted[group_ends].tolist()
    points = list(zip(fpr.tolist(), tpr.tolist()))
    return RocCurve(thresholds, points, auc)


def curve_rows(curve: RocCurve) -> list[tuple[float, float, float, float]]:
    """(threshold, sensitivity, specificity, fpr) per curve point, for export."""
    return [(thr, tpr, 1.0 - fpr, fpr) for thr, (fpr, tpr) in zip(curve.thresholds, curve.points)]


def _fmt(value: float | None) -> str:
    return "N/A" if value is None else repr(value)


def render_metrics_report(
    counts: ConfusionCounts, m: BinaryMetrics, threshold: float, extra: dict[str, str] | None = None
) -> str:
    """Structured text with the four ratios (N/A when undefined) and counts."""
    lines = [
        f"threshold\t{threshold!r}",
        f"tp\t{counts.tp}",
        f"fp\t{counts.fp}",
        f"tn\t{counts.tn}",
        f"fn\t{counts.fn}",
        f"sensitivity\t{_fmt(m.sensitivity)}",
        f"specificity\t{_fmt(m.specificity)}",
        f"ppv\t{_fmt(m.ppv)}",
        f"npv\t{_fmt(m.npv)}",
    ]
    for key, val in (extra or {}).items():
        lines.append(f"{key}\t{val}")
    return "\n".join(lines) + "\n"
