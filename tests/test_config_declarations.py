"""Every declared setting is parsed, checked and hashed the same way."""

from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest

from ddimine.config import PipelineConfig, build_config, config_digest
from ddimine.errors import ConfigError

PATHS = {"corpus": "corpus.tsv", "lexicon": "lexicon.tsv", "catalog": "catalog.tsv", "output": "out"}


def declared(cls=PipelineConfig, section=None):
    """(section or None, field) for every field of ``cls`` and of its sections."""
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            yield from declared(f.default_factory, f.name)
        else:
            yield section, f


def dotted(section, name):
    return name if section is None else f"{section}.{name}"


def dotted_key(section, f):
    return dotted(section, f.metadata["key"] or f.name)


SETTINGS = [(section, f) for section, f in declared() if f.metadata]

# a valid value other than the default, for every field but output
OTHER_VALUES = {
    "corpus": Path("other.tsv"), "lexicon": Path("other.tsv"), "catalog": Path("other.tsv"),
    "embeddings": Path("e.txt"), "stopwords": Path("s.txt"), "mar": Path("m.tsv"),
    "corpus_format": "pubmed-xml", "seed": 8, "ratios": (0.5, 0.25, 0.25), "top_k": 0,
    "feature_kind": "embeddings", "vocab_stopwords": "drop", "drop_empty_samples": True,
    "undersample_train": True, "threshold": -1.0,
    "model.loss": "hinge", "model.l1_lambda": 0.5, "model.max_iters": 3, "model.tolerance": 1e-3,
    "model.standardize": True,
    "cv.enabled": False, "cv.grid": [1.0], "cv.k": 5,
    "alerts.window_hours": 6.0, "alerts.per_drug_hours": {"d1": 2.0},
}


def with_field(cfg, section, name, value):
    if section is None:
        return replace(cfg, **{name: value})
    return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})


def test_every_field_but_output_changes_the_digest():
    assert {dotted(s, f.name) for s, f in declared()} - {"output"} == set(OTHER_VALUES)
    base = build_config({"paths": PATHS})
    digest = config_digest(base)
    for section, f in declared():
        name = dotted(section, f.name)
        if name != "output":
            assert config_digest(with_field(base, section, f.name, OTHER_VALUES[name])) != digest, name
    assert config_digest(replace(base, output=Path("elsewhere"))) == digest


@pytest.mark.parametrize("section, f", SETTINGS, ids=[dotted_key(s, f) for s, f in SETTINGS])
def test_every_setting_rejects_a_list(section, f):
    key = f.metadata["key"] or f.name
    raw = {"paths": PATHS, **({key: []} if section is None else {section: {key: []}})}
    with pytest.raises(ConfigError) as info:
        build_config(raw)
    assert info.value.violations == [
        f"{dotted_key(section, f)} must be {f.metadata['must']}, got []"
    ]


def test_absent_settings_take_the_declared_defaults():
    paths = {key: Path(val) for key, val in PATHS.items()}
    assert build_config({"paths": PATHS}) == PipelineConfig(**paths)
