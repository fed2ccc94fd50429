import json

import pytest

from ddimine.cli import main
from ddimine.config import load_config
from ddimine.errors import ConfigError

PATHS = {"corpus": "corpus.tsv", "lexicon": "lexicon.tsv", "catalog": "catalog.tsv", "output": "out"}


def write_config(tmp_path, model) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"paths": PATHS, "model": model}), encoding="utf-8")
    return str(path)


BAD_MODELS = {
    "l1_lambda": ({"l1_lambda": "abc"}, "model.l1_lambda"),
    "nan_lambda": ({"l1_lambda": float("nan")}, "model.l1_lambda"),
    "negative_lambda": ({"l1_lambda": -0.5}, "model.l1_lambda"),
    "nan_tolerance": ({"tolerance": float("nan")}, "model.tolerance"),
    "zero_tolerance": ({"tolerance": 0}, "model.tolerance"),
    "string_standardize": ({"standardize": "false"}, "model.standardize"),
    "bool_max_iters": ({"max_iters": True}, "model.max_iters"),
    "float_max_iters": ({"max_iters": 10.5}, "model.max_iters"),
    "loss": ({"loss": "squared"}, "model.loss"),
    "not_an_object": ("logistic", "model must be an object"),
}


@pytest.mark.parametrize("case", sorted(BAD_MODELS))
def test_bad_model_field_rejected(tmp_path, case):
    model, expected = BAD_MODELS[case]
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, model))
    assert len(info.value.violations) == 1
    assert expected in info.value.violations[0]


def test_every_violation_listed_and_exit_code_2(tmp_path, capsys):
    model = {"l1_lambda": "abc", "tolerance": float("nan"), "standardize": "false", "max_iters": True}
    path = write_config(tmp_path, model)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert len(info.value.violations) == 4
    assert main(["train", "--config", path]) == 2
    err = capsys.readouterr().err
    for field in ("l1_lambda", "tolerance", "standardize", "max_iters"):
        assert f"model.{field}" in err


def test_valid_model_section(tmp_path):
    model = {"loss": "hinge", "l1_lambda": 1, "max_iters": 50, "tolerance": 1e-8, "standardize": True}
    cfg = load_config(write_config(tmp_path, model))
    assert (cfg.model.loss, cfg.model.l1_lambda, cfg.model.max_iters) == ("hinge", 1.0, 50)
    assert cfg.model.tolerance == 1e-8 and cfg.model.standardize is True
    assert isinstance(cfg.model.l1_lambda, float)
    assert load_config(write_config(tmp_path, None)).model == type(cfg.model)()
