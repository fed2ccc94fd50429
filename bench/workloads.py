"""Benchmark workloads: synthetic-input sizes, config overrides and stage lists.

Standard library only, so ``run.py`` can read it without importing numpy
(its own memory would otherwise count into the children's peak RSS).  Sizes
are ``ddimine.synth.SynthParams`` fields; the seed comes from the command line.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_STAGES = ("ingest", "filter", "label", "split", "featurize", "train", "evaluate", "alerts")
FRONT_STAGES = ("ingest", "filter", "label", "split", "featurize", "alerts")

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict  # SynthParams fields other than the seed
    config: dict  # merged over the config that synth.write_dataset writes
    stages: tuple[str, ...]
    inputs: int  # inputs generated per run, each with its own seed; metrics average over them
    auc_floor: float | None = None  # test AUC to reach; None: only defined and matching the oracle
    signal_floor: int | None = None  # synth signal words among the top 20 weights


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="planted_lasso",
            why="planted signal words, counts + logistic L1 with CV over 7 lambdas x 3 folds: the "
            "solver is most of the run, labeling and features barely register",
            params=dict(
                n_cardiac=20, n_cardiac_high=10, n_other=60, n_other_high=30,
                abstracts_per_drug=20, words_per_abstract=20, background_vocab=3000,
                signal_prob=1.0, signal_copies_max=3, second_mention_prob=0.2,
            ),
            config={},
            stages=ALL_STAGES,
            inputs=5,
            auc_floor=0.95,
            signal_floor=15,
        ),
        Workload(
            name="paper_front",
            why="paper-shaped abstracts, 22 cardiac and 300 other drugs, no train: labeling "
            "templates and count-feature rows dominate; a solver change must read flat",
            params=dict(
                n_cardiac=22, n_cardiac_high=11, n_other=300, n_other_high=150,
                abstracts_per_drug=5, words_per_abstract=150, background_vocab=20000,
                signal_prob=1.0, signal_copies_max=3, second_mention_prob=0.2,
                n_patients=2000, events_per_patient=30,
            ),
            config={},
            stages=FRONT_STAGES,
            inputs=5,
        ),
    )
}


def input_seeds(seed: int, count: int) -> list[int]:
    """Seeds of a run's inputs: distinct for every run seed, the same for the same one."""
    return [seed * count + i for i in range(count)]


def smoke(workload: Workload) -> Workload:
    """The same code path on the ``mini`` preset (SynthParams defaults), in seconds.

    A 46-drug corpus trains no useful model (test AUC can fall below 0.5), so
    the quality floors go; the checks still run, and the oracle comparisons stay.
    """
    return Workload(
        name=workload.name,
        why=workload.why,
        params={},
        config=workload.config,
        stages=workload.stages,
        inputs=2,
        auc_floor=None,
        signal_floor=None if workload.signal_floor is None else 0,
    )


def merge(base: dict, over: dict) -> dict:
    """Recursive dict merge; ``over`` wins."""
    out = dict(base)
    for key, val in over.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge(out[key], val)
        else:
            out[key] = val
    return out
