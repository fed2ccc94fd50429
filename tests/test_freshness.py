"""One freshness rule: each stage's digest chains its declared fields, its files' content and its inputs' digests."""

import json
import shutil
from dataclasses import fields, replace
from pathlib import Path

import pytest

from ddimine.cli import main
from ddimine.config import PATHS, PipelineConfig, load_config
from ddimine.errors import ConfigError
from ddimine.pipeline import (
    ARTIFACTS, STAGE_FUNCS, STAGE_ORDER, STAGES, check_stage_paths, run_all, run_stage, stage_digests,
)
from ddimine.synth import SynthParams, write_dataset
from helpers import artifact_digests, header_of, read_body

ALL_STAGES = (*STAGE_ORDER, "diagnose-split")

# a valid value other than the mini preset's, for every setting
OTHER_VALUES = {
    "corpus_format": "pubmed-xml", "seed": 8, "ratios": (0.5, 0.25, 0.25), "top_k": 0,
    "feature_kind": "embeddings", "vocab_stopwords": "drop", "drop_empty_samples": True,
    "undersample_train": False, "threshold": -1.0,
    "model": {"loss": "hinge"}, "cv": {"k": 5}, "alerts": {"window_hours": 6.0},
}


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """The ``mini`` preset's input files and config, and the outputs of every stage."""
    root = tmp_path_factory.mktemp("fresh")
    paths = write_dataset(SynthParams(seed=7), root / "data")
    cfg = load_config(paths["config"])
    run_all(cfg)
    run_stage(cfg, "diagnose-split")
    return paths


def copy_run(mini, tmp_path, **changes) -> str:
    """A copy of the mini inputs and outputs under ``tmp_path``; its config, with ``changes``, by path."""
    shutil.copytree(mini["config"].parent, tmp_path / "data")
    raw = json.loads(mini["config"].read_text(encoding="utf-8"))
    raw["paths"] = {key: str(tmp_path / "data" / Path(val).name) for key, val in raw["paths"].items()}
    config = tmp_path / "data" / "config.json"
    config.write_text(json.dumps({**raw, **changes}), encoding="utf-8")
    return str(config)


def downstream(stages: set[str]) -> set[str]:
    """``stages`` and every stage that reads, directly or not, an artifact they write."""
    found = set(stages)
    for stage, spec in STAGES.items():  # the table lists producers before readers
        if any(ARTIFACTS[name] in found for name in spec.reads):
            found.add(stage)
    return found


class Recorder:
    """A config that records each field read through it; its methods read through it too."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg, self.read = cfg, set()

    def __getattr__(self, name):
        attr = getattr(PipelineConfig, name, None)
        if callable(attr):
            return attr.__get__(self)
        self.read.add(name)
        return getattr(self.cfg, name)


def test_stages_read_exactly_the_fields_they_declare(mini, tmp_path, monkeypatch):
    read = {stage: set() for stage in STAGES}
    for stage, func in list(STAGE_FUNCS.items()):

        def recording(cfg, *inputs, stage=stage, func=func):
            recorder = Recorder(cfg)
            outputs = func(recorder, *inputs)
            read[stage] |= recorder.read
            return outputs

        monkeypatch.setitem(STAGE_FUNCS, stage, recording)
    variants = {
        "counts": {"vocab_stopwords": "drop"},
        "embeddings": {"features": "embeddings", "model": {"loss": "hinge"}, "cv": {"enabled": False}},
    }
    for variant, changes in variants.items():
        config = copy_run(mini, tmp_path / variant, **changes)
        cfg = load_config(config)
        for stage in ALL_STAGES:
            run_stage(cfg, stage)
    # no read the digest misses, and between the two variants no declaration unread
    assert read == {stage: set(spec.config) for stage, spec in STAGES.items()}
    declared = {key for spec in STAGES.values() for key in spec.config}
    assert declared == {f.name for f in fields(PipelineConfig)} - {"output"}


@pytest.mark.parametrize("name", [*OTHER_VALUES, *(key for key in PATHS if key != "output")])
def test_a_field_changes_the_digests_of_its_readers_and_downstream_only(mini, tmp_path, name):
    cfg = load_config(mini["config"])
    if name in PATHS:  # the same name elsewhere, one byte longer
        other = tmp_path / getattr(cfg, name).name
        other.write_bytes(getattr(cfg, name).read_bytes() + b"\n")
        changed = replace(cfg, **{name: other})
    elif isinstance(OTHER_VALUES[name], dict):
        changed = replace(cfg, **{name: replace(getattr(cfg, name), **OTHER_VALUES[name])})
    else:
        changed = replace(cfg, **{name: OTHER_VALUES[name]})
    before, after = stage_digests(cfg), stage_digests(changed)
    readers = {stage for stage, spec in STAGES.items() if name in spec.config}
    assert readers and {stage for stage in STAGES if before(stage) != after(stage)} == downstream(readers)


def test_edited_corpus_makes_featurize_refuse_its_input(mini, tmp_path, capsys):
    config = copy_run(mini, tmp_path)
    corpus = load_config(config).corpus
    corpus.write_text("".join(corpus.read_text(encoding="utf-8").splitlines(keepends=True)[1:]), encoding="utf-8")
    capsys.readouterr()
    assert main(["featurize", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "cardiac.tsv is stale" in err and "rerun the 'ingest' stage" in err
    assert main(["filter", "--config", config]) == 2
    assert "cardiac.tsv is stale" in capsys.readouterr().err
    for stage in ("ingest", "split"):  # split waits on ingest, not on filter
        assert main([stage, "--config", config]) == 0
    cfg = load_config(config)
    assert header_of(cfg.output / "corpus_stats.txt")["digest"] != stage_digests(cfg)("filter")
    assert main(["all", "--config", config]) == 0


def test_new_top_k_reruns_featurize_onward_only(mini, tmp_path, capsys):
    config = copy_run(mini, tmp_path, top_k=50)
    out = load_config(config).output
    front = {name: (out / name).read_bytes() for name, stage in ARTIFACTS.items()
             if stage in ("ingest", "filter", "label", "split")}
    assert main(["featurize", "--config", config]) == 0  # its inputs are fresh
    capsys.readouterr()
    assert main(["evaluate", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "model.txt is stale" in err and "rerun the 'train' stage" in err
    assert main(["train", "--config", config]) == 0
    assert main(["evaluate", "--config", config]) == 0
    assert front == {name: (out / name).read_bytes() for name in front}
    assert len(read_body(out / "vocab.tsv")[0]) == 50


def test_moved_inputs_leave_every_stage_fresh(mini, tmp_path):
    config = copy_run(mini, tmp_path)
    cfg, original = load_config(config), load_config(mini["config"])
    assert cfg.corpus != original.corpus
    before, after = stage_digests(original), stage_digests(cfg)
    assert [after(stage) for stage in ALL_STAGES] == [before(stage) for stage in ALL_STAGES]
    written = artifact_digests(cfg.output)
    for stage in ALL_STAGES:
        run_stage(cfg, stage)  # each finds its inputs fresh
    assert artifact_digests(cfg.output) == written


def test_alerts_without_a_mar_path_exit_2(mini, tmp_path, capsys):
    raw = json.loads(mini["config"].read_text(encoding="utf-8"))
    del raw["paths"]["mar"]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        check_stage_paths(load_config(config), "alerts")
    assert info.value.violations == ["paths.mar is required by the 'alerts' stage"]
    capsys.readouterr()
    assert main(["alerts", "--config", str(config)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: invalid configuration in {config}:",
                                                    "  - paths.mar is required by the 'alerts' stage"]


def test_every_missing_declared_path_listed(mini, tmp_path, capsys):
    raw = json.loads(mini["config"].read_text(encoding="utf-8"))
    missing = {"lexicon": str(tmp_path / "no_lexicon.tsv"), "catalog": str(tmp_path / "no_catalog.tsv")}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**raw, "paths": {**raw["paths"], **missing}}), encoding="utf-8")
    capsys.readouterr()
    assert main(["label", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid configuration in {config}:\n")  # the config set the paths
    for key, val in missing.items():
        assert f"paths.{key} does not exist: {val}" in err
    # unset, a path that only a setting asks for is not missing
    paths = {key: val for key, val in raw["paths"].items() if key not in ("embeddings", "stopwords")}
    config.write_text(json.dumps({**raw, "paths": paths}), encoding="utf-8")
    check_stage_paths(load_config(config), "featurize")
