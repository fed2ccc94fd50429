from ddimine.experiment import planted_signal_experiment


def test_planted_signal_recovered():
    # the benchmark's floors: planted words dominate the top weights, dev AUC high
    result = planted_signal_experiment(7)
    assert result.signal_in_top20 >= 15
    assert result.dev_auc >= 0.95
