"""ROC AUC against the pairwise-count oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine.metrics import roc_curve
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
    assert curve.points[0] == (0.0, 0.0) and curve.points[-1] == (1.0, 1.0)
