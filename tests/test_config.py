import json
import re
from datetime import timedelta
from pathlib import Path

import pytest

from ddimine.cli import main
from ddimine.config import PipelineConfig, load_config
from ddimine.errors import ConfigError
from ddimine.mar_alerts import build_exposures, parse_timestamp
from helpers import administrations, utc

PATHS = {"corpus": "corpus.tsv", "lexicon": "lexicon.tsv", "catalog": "catalog.tsv", "output": "out"}


def write_config(tmp_path, model, **fields) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"paths": PATHS, "model": model, **fields}), encoding="utf-8")
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
    assert err.startswith(f"error: invalid configuration in {path}:\n")
    for field in ("l1_lambda", "tolerance", "standardize", "max_iters"):
        assert f"model.{field}" in err


def test_valid_model_section(tmp_path):
    model = {"loss": "hinge", "l1_lambda": 1, "max_iters": 50, "tolerance": 1e-8, "standardize": True}
    cfg = load_config(write_config(tmp_path, model))
    assert (cfg.model.loss, cfg.model.l1_lambda, cfg.model.max_iters) == ("hinge", 1.0, 50)
    assert cfg.model.tolerance == 1e-8 and cfg.model.standardize is True
    assert isinstance(cfg.model.l1_lambda, float)
    assert load_config(write_config(tmp_path, None)).model == type(cfg.model)()


BAD_FIELDS = {
    "string_cv_enabled": ({"cv": {"enabled": "no"}}, "cv.enabled"),
    "string_cv_k": ({"cv": {"k": "x"}}, "cv.k"),
    "bool_cv_k": ({"cv": {"k": True}}, "cv.k"),
    "nan_cv_grid": ({"cv": {"grid": [float("nan")]}}, "cv.grid"),
    "cv_not_an_object": ({"cv": "on"}, "cv must be an object"),
    "list_per_drug_hours": ({"alerts": {"per_drug_hours": [1]}}, "alerts.per_drug_hours"),
    "string_window_hours": ({"alerts": {"window_hours": "abc"}}, "alerts.window_hours"),
    # a timedelta cannot hold the first; the second rounds to 0 microseconds
    "huge_window_hours": ({"alerts": {"window_hours": 1e12}}, "alerts.window_hours"),
    "tiny_window_hours": ({"alerts": {"window_hours": 1e-12}}, "alerts.window_hours"),
    "huge_per_drug_hours": ({"alerts": {"per_drug_hours": {"d1": 1e12}}}, "alerts.per_drug_hours"),
    "tiny_per_drug_hours": ({"alerts": {"per_drug_hours": {"d1": 6, "d2": 1e-12}}}, "alerts.per_drug_hours"),
    "nan_threshold": ({"threshold": float("nan")}, "threshold"),
    "bool_seed": ({"seed": True}, "seed"),
    "bool_top_k": ({"top_k": True}, "top_k"),
    "nan_ratios": ({"ratios": [float("nan"), 0.5, 0.5]}, "ratios"),
    "string_drop_empty": ({"drop_empty_samples": "false"}, "drop_empty_samples"),
    "string_undersample": ({"undersample_train": "no"}, "undersample_train"),
    "number_path": ({"paths": {**PATHS, "corpus": 5}}, "paths.corpus"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_bad_field_rejected(tmp_path, case):
    fields, expected = BAD_FIELDS[case]
    with pytest.raises(ConfigError) as info:
        load_config(write_config(tmp_path, None, **fields))
    assert len(info.value.violations) == 1
    assert expected in info.value.violations[0]


def test_paths_a_setting_needs_are_required_at_load(tmp_path, capsys):
    path = write_config(tmp_path, None, features="embeddings", vocab_stopwords="drop", seed=True)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.violations == [
        "seed must be an integer, got True",
        "features=embeddings requires paths.embeddings",
        "features=embeddings requires paths.stopwords",
        "vocab_stopwords=drop requires paths.stopwords",
    ]
    assert main(["ingest", "--config", path]) == 2  # before any stage runs
    assert "vocab_stopwords=drop requires paths.stopwords" in capsys.readouterr().err
    cfg = load_config(write_config(tmp_path, None, vocab_stopwords="drop",
                                   paths={**PATHS, "stopwords": "stop.txt"}))
    assert (cfg.vocab_stopwords, cfg.stopwords.name) == ("drop", "stop.txt")


def test_ratio_sum_is_reported_with_every_other_violation(tmp_path):
    path = write_config(tmp_path, {"max_iters": 0}, ratios=[0.5, 0.5, 0.5], seed=True)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert sorted(info.value.violations) == [
        "model.max_iters must be an integer of at least 1, got 0",
        "ratios must sum to 1, got 1.5",
        "seed must be an integer, got True",
    ]
    paths = {key: Path(val) for key, val in PATHS.items()}
    with pytest.raises(ConfigError) as info:  # where the config is built, as for every setting
        PipelineConfig(**paths, ratios=(0.5, 0.25, 0.5))
    assert info.value.violations == ["ratios must sum to 1, got 1.25"]
    assert PipelineConfig(**paths, ratios=[1, 0, 0]).ratios == (1.0, 0.0, 0.0)


def test_window_bounds_hold_at_the_extreme_mar_times(tmp_path):
    alerts = {"window_hours": 1e7, "per_drug_hours": {"d1": 1e-9}}
    cfg = load_config(write_config(tmp_path, None, alerts=alerts))
    latest = parse_timestamp("2099-12-31T23:59:59.999999Z")
    events = administrations([("p", "d0", latest), ("p", "d1", latest)])
    windows = build_exposures(events, cfg.alerts.window_hours, cfg.alerts.per_drug_hours)
    assert [windows.drugs[d] for d in windows.drug] == ["d0", "d1"]
    assert [utc(t) for t in windows.start.tolist()] == [latest, latest]
    assert [utc(t) for t in windows.end.tolist()] == [
        latest + timedelta(hours=1e7), latest + timedelta(microseconds=4)  # 3.6 µs, rounded
    ]


def test_every_field_violation_listed_and_exit_code_2(tmp_path, capsys):
    fields = {
        "cv": {"enabled": "no", "k": "x"},
        "alerts": {"per_drug_hours": [1]},
        "threshold": float("nan"),
        "seed": True,
        "top_k": True,
        "drop_empty_samples": "false",
        "undersample_train": "no",
    }
    path = write_config(tmp_path, None, **fields)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert len(info.value.violations) == 8
    assert main(["featurize", "--config", path]) == 2
    err = capsys.readouterr().err
    for name in ("cv.enabled", "cv.k", "per_drug_hours", "threshold", "seed", "top_k",
                 "drop_empty_samples", "undersample_train"):
        assert name in err


def test_valid_fields_and_retired_jobs_key(tmp_path):
    fields = {
        "cv": {"enabled": False, "k": 5, "grid": [1, 0.1]},
        "alerts": {"window_hours": 12, "per_drug_hours": {"d1": 6}},
        "threshold": -0.5,
        "seed": 3,
        "top_k": 0,
        "drop_empty_samples": True,
        "undersample_train": False,
    }
    cfg = load_config(write_config(tmp_path, None, **fields))
    assert (cfg.cv.enabled, cfg.cv.k, cfg.cv.grid, cfg.cv_enabled()) == (False, 5, [1.0, 0.1], False)
    assert (cfg.alerts.window_hours, cfg.alerts.per_drug_hours) == (12.0, {"d1": 6.0})
    assert (cfg.threshold, cfg.seed, cfg.top_k) == (-0.5, 3, 0)
    assert (cfg.drop_empty_samples, cfg.undersample_train) == (True, False)
    # "jobs" configured the removed thread pool; like any unknown key it is ignored
    assert load_config(write_config(tmp_path, None, **fields, jobs=4)) == cfg


def test_a_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    path = Path(write_config(tmp_path, None))
    data = path.read_bytes()
    path.write_bytes(data[:1] + b"\xff" + data[1:])
    with pytest.raises(ConfigError, match=f"cannot read config {re.escape(str(path))}: 'utf-8' codec can't decode"):
        load_config(path)
    assert main(["alerts", "--config", str(path)]) == 2
    assert f"cannot read config {path}" in capsys.readouterr().err
