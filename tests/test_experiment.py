"""Planted-signal experiment: the full pipeline on a planted synthetic dataset.

A stand-in for the full-scale finding that L1-regularized logistic regression
on word counts dominates: with signal words planted in the abstracts of
interacting drugs, the cross-validated model should recover those words as its
top weights and separate held-out positives from negatives.  The experiment
runs :func:`ddimine.pipeline.run_all` with the config the synthetic dataset
ships, so it measures exactly what the CLI produces.
"""

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ddimine import artifacts
from ddimine.config import load_config
from ddimine.learn import load_model
from ddimine.pipeline import run_all
from ddimine.synth import SIGNAL_WORDS, planted_params, write_dataset
from helpers import load_vocab


@dataclass
class PlantedResult:
    seed: int
    vocab_size: int
    best_lambda: float
    dev_auc: float
    signal_in_top20: int
    top_columns: list[int]


def planted_signal_experiment(seed: int) -> PlantedResult:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = load_config(write_dataset(planted_params(seed), tmp)["config"])
        run_all(cfg)
        out = Path(cfg.output)
        model, _ = load_model(out / "model.txt")
        vocab = load_vocab(out / "vocab.tsv")
        metrics, _ = artifacts.read(out / "metrics_dev.txt")
    dev_auc = float(dict(line.split("\t", 1) for line in metrics)["auc"])
    top20 = np.argsort(-np.abs(model.weights), kind="stable")[:20]
    signal_cols = {vocab.index[w] for w in SIGNAL_WORDS if w in vocab.index}
    return PlantedResult(
        seed=seed,
        vocab_size=len(vocab),
        best_lambda=model.l1_lambda,
        dev_auc=dev_auc,
        signal_in_top20=sum(1 for col in top20 if int(col) in signal_cols),
        top_columns=[int(c) for c in top20],
    )


def test_planted_signal_recovered():
    # the benchmark's floors: planted words dominate the top weights, dev AUC high
    result = planted_signal_experiment(7)
    assert result.signal_in_top20 >= 15
    assert result.dev_auc >= 0.95
