"""Every declared setting is parsed and checked the same way, at load and on construction."""

from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

from ddimine.config import PipelineConfig, build_config
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


@pytest.mark.parametrize("section, f", SETTINGS, ids=[dotted_key(s, f) for s, f in SETTINGS])
def test_every_setting_rejects_a_list(section, f):
    key = f.metadata["key"] or f.name
    raw = {"paths": PATHS, **({key: []} if section is None else {section: {key: []}})}
    with pytest.raises(ConfigError) as info:
        build_config(raw)
    assert info.value.violations == [
        f"{dotted_key(section, f)} must be {f.metadata['must']}, got []"
    ]


@pytest.mark.parametrize("section, f", SETTINGS, ids=[dotted_key(s, f) for s, f in SETTINGS])
def test_every_setting_is_checked_on_construction(section, f):
    if section is None:
        cls, kwargs = PipelineConfig, {key: Path(val) for key, val in PATHS.items()}
    else:
        cls, kwargs = PipelineConfig.__dataclass_fields__[section].default_factory, {}
    with pytest.raises(ConfigError) as info:
        cls(**kwargs, **{f.name: []})
    assert info.value.violations == [f"{f.metadata['key'] or f.name} must be {f.metadata['must']}, got []"]


def test_absent_settings_take_the_declared_defaults():
    paths = {key: Path(val) for key, val in PATHS.items()}
    assert build_config({"paths": PATHS}) == PipelineConfig(**paths)
