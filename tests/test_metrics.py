"""ROC AUC against the pairwise-count oracle; confusion counts and the report."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine.metrics import ConfusionCounts, confusion, render_metrics_report, roc_curve
from helpers import auc_pair_oracle

# few distinct scores, so most draws hold ties within and across the classes
scored_labels = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 1)), min_size=2, max_size=60).filter(
    lambda rows: len({label for _, label in rows}) == 2
)


@given(rows=scored_labels, scale=st.sampled_from([1.0, 0.1, 1e-9]))
@settings(max_examples=300, deadline=None)
def test_auc_equals_pair_oracle_with_ties(rows, scale):
    scores = [score * scale for score, _ in rows]
    labels = [label for _, label in rows]
    curve = roc_curve(scores, labels)
    assert curve.auc == pytest.approx(auc_pair_oracle(scores, labels), rel=1e-12, abs=1e-15)
    assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0) and (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)


def test_score_at_the_threshold_counts_as_positive():
    counts = confusion([0.5, 0.5, 0.4, 0.6], [1, 0, 1, 0], threshold=0.5)
    assert counts == ConfusionCounts(tp=1, fp=2, tn=0, fn=1)


def test_each_ratio_prints_its_value_or_na():
    counts = ConfusionCounts(tp=0, fp=0, tn=3, fn=0)  # no positives, none predicted
    report = render_metrics_report(counts, 0.0).splitlines()
    assert report[5:] == ["sensitivity\tN/A", "specificity\t1.0", "ppv\tN/A", "npv\t1.0"]
    counts = ConfusionCounts(tp=2, fp=1, tn=0, fn=3)  # specificity 0/1, npv 0/3
    report = render_metrics_report(counts, 0.5, {"auc": "0.75"}).splitlines()
    assert report == [
        "threshold\t0.5", "tp\t2", "fp\t1", "tn\t0", "fn\t3",
        f"sensitivity\t{2 / 5!r}", "specificity\t0.0", f"ppv\t{2 / 3!r}", "npv\t0.0", "auc\t0.75",
    ]
    report = render_metrics_report(ConfusionCounts(0, 0, 0, 0), 0.0).splitlines()
    assert report[5:] == ["sensitivity\tN/A", "specificity\tN/A", "ppv\tN/A", "npv\tN/A"]
