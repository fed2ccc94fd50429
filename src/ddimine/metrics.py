"""Confusion counts at a threshold and their report, ROC curves and AUC with explicit tie handling.

A curve is held as numpy arrays; the evaluate stage turns them into Python
floats only where it writes the curve file, and cross-validation reads only
the AUC, a rank statistic counted in integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


def confusion(scores, labels, threshold: float) -> ConfusionCounts:
    """Counts with the rule: predict positive iff score >= threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise ValidationError(f"scores and labels differ in length: {scores.shape} vs {labels.shape}")
    pred = scores >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
    )


@dataclass
class RocCurve:
    """Threshold sweep: thresholds fall from +inf, and the points (fpr[i], tpr[i]) they realize run from (0, 0)
    to (1, 1), both coordinates non-decreasing."""

    thresholds: np.ndarray
    fpr: np.ndarray  # false positive rate
    tpr: np.ndarray  # sensitivity
    auc: float


def roc_curve(scores, labels) -> RocCurve:
    """ROC by descending threshold sweep with tied scores grouped into one step.

    The AUC is the rank statistic: the share of (positive, negative) pairs the
    scores order right, a tie counting one half, which is the area under the
    grouped curve.  It is counted in integers, each group's negatives times
    twice the positives above them plus those tied with them, and divided
    once, so it is exact to one rounding.
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
    tp = np.append(0, cum_tp[group_ends])
    pairs = int(np.sum(np.diff(np.append(0, cum_fp[group_ends])) * (tp[:-1] + tp[1:])))  # twice the pairs won
    auc = pairs / (2 * n_pos * n_neg)
    return RocCurve(np.append(np.inf, s_sorted[group_ends]), fpr, tpr, auc)


def render_metrics_report(counts: ConfusionCounts, threshold: float, extra: dict[str, str] | None = None) -> str:
    """Structured text: the threshold, the counts, the four ratios (N/A for an undefined 0/0), then ``extra``."""
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    ratios = {"sensitivity": (tp, tp + fn), "specificity": (tn, tn + fp), "ppv": (tp, tp + fp), "npv": (tn, tn + fn)}
    lines = [f"threshold\t{threshold!r}", f"tp\t{tp}", f"fp\t{fp}", f"tn\t{tn}", f"fn\t{fn}"]
    lines += [f"{name}\t{'N/A' if d == 0 else repr(n / d)}" for name, (n, d) in ratios.items()]
    lines += [f"{key}\t{val}" for key, val in (extra or {}).items()]
    return "\n".join(lines) + "\n"
