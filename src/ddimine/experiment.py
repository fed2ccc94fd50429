"""In-memory planted-signal experiment: corpus -> split -> counts -> CV lasso.

A stand-in for the full-scale finding that L1-regularized logistic regression
on word counts dominates: with signal words planted in the abstracts of
interacting drugs, the cross-validated model should recover those words as its
top weights and separate held-out positives from negatives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import filter_cardiac, tokenize_abstracts
from .features import build_count_matrix, build_vocab, undersample
from .labeling import build_universe, enumerate_samples
from .learn import TrainConfig, cross_validate, default_lambda_grid, predict_scores, train
from .metrics import roc_curve
from .splitting import DEFAULT_RATIOS, SPLITS, assign_abstracts, split_corpus
from .synth import SynthDataset, SynthParams, generate_dataset, planted_params


@dataclass
class PlantedResult:
    seed: int
    n_samples: int
    vocab_size: int
    best_lambda: float
    dev_auc: float
    signal_in_top20: int
    top_columns: list[int]


def planted_signal_experiment(
    seed: int,
    params: SynthParams | None = None,
    top_k: int = 5000,
    cv_k: int = 3,
    grid_points: int = 5,
    tolerance: float = 1e-5,
) -> PlantedResult:
    ds: SynthDataset = generate_dataset(params or planted_params(seed))
    tokenized = tokenize_abstracts(ds.abstracts, ds.lexicon)
    kept = filter_cardiac(tokenized, ds.lexicon)
    universe = build_universe(set(ds.lexicon.cardiac), ds.catalog)
    samples = enumerate_samples(set(ds.lexicon.cardiac), universe, ds.catalog)
    assignment = split_corpus(kept, samples, DEFAULT_RATIOS, seed)
    assigned = assign_abstracts(assignment, kept, samples)

    by_split = {split: [] for split in SPLITS}
    for s in assigned:
        by_split[assignment.sample_split[s.key]].append(s)
    abstracts_by_id = {ab.id: ab for ab in kept}
    train_abstracts = [ab for ab in kept if assignment.abstract_split[ab.id] == "train"]
    vocab = build_vocab(train_abstracts, top_k)

    train_matrix = undersample(
        build_count_matrix(by_split["train"], abstracts_by_id, vocab), seed
    )
    dev_matrix = build_count_matrix(by_split["dev"], abstracts_by_id, vocab)

    cfg = TrainConfig(loss="logistic", tolerance=tolerance, seed=seed)
    grid = default_lambda_grid(train_matrix, n_points=grid_points, decades=2.5)
    cv = cross_validate(train_matrix, grid, cv_k, cfg, seed)
    model = train(train_matrix, replace(cfg, l1_lambda=cv.best_lambda))

    dev_auc = roc_curve(predict_scores(model, dev_matrix), dev_matrix.y).auc
    top20 = np.argsort(-np.abs(model.weights), kind="stable")[:20]
    signal_cols = {vocab.index[w] for w in ds.signal_words if w in vocab.index}
    recovered = sum(1 for col in top20 if int(col) in signal_cols)
    return PlantedResult(
        seed=seed,
        n_samples=len(samples),
        vocab_size=len(vocab),
        best_lambda=cv.best_lambda,
        dev_auc=dev_auc,
        signal_in_top20=recovered,
        top_columns=[int(c) for c in top20],
    )
