"""Pipeline configuration: one declarative JSON file plus flag overrides."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import ConfigError

FEATURE_KINDS = ("counts", "embeddings")
VOCAB_STOPWORD_MODES = ("keep", "drop")


@dataclass
class ModelSection:
    """The classifier and its solver.

    ``tolerance`` bounds the certified KKT residual of every fit, relative to
    the L1 penalty (absolute when ``l1_lambda`` is 0): a fit stops once no
    optimality condition is violated by more than ``tolerance * l1_lambda``.
    ``max_iters`` caps the solver's iterations (Newton steps for logistic
    loss, LP iterations for hinge); a fit cut off by it is written to
    ``model.txt`` with ``converged 0``.
    """

    loss: str = "logistic"
    l1_lambda: float = 0.0
    max_iters: int = 10_000
    tolerance: float = 1e-6
    standardize: bool = False


@dataclass
class CvSection:
    enabled: bool | None = None  # None: on for logistic, off for hinge
    grid: list[float] | None = None  # None: log-spaced from lambda_max
    k: int = 3


@dataclass
class AlertSection:
    window_hours: float = 24.0
    per_drug_hours: dict[str, float] = field(default_factory=dict)


@dataclass
class PipelineConfig:
    corpus: Path
    lexicon: Path
    catalog: Path
    output: Path
    embeddings: Path | None = None
    stopwords: Path | None = None
    mar: Path | None = None
    corpus_format: str = "lines"
    seed: int = 7
    ratios: tuple[float, float, float] = (0.64, 0.16, 0.2)
    top_k: int | None = None
    feature_kind: str = "counts"
    vocab_stopwords: str = "keep"
    drop_empty_samples: bool = False
    undersample_train: bool = False
    model: ModelSection = field(default_factory=ModelSection)
    cv: CvSection = field(default_factory=CvSection)
    threshold: float = 0.0
    alerts: AlertSection = field(default_factory=AlertSection)

    def cv_enabled(self) -> bool:
        if self.cv.enabled is None:
            return self.model.loss == "logistic"
        return self.cv.enabled


def load_config(path: Path | str, overrides: dict[str, Any] | None = None) -> PipelineConfig:
    """Parse and validate; raises ConfigError listing every violation at once."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    return build_config(raw, overrides)


def build_config(raw: dict[str, Any], overrides: dict[str, Any] | None = None) -> PipelineConfig:
    violations: list[str] = []
    overrides = overrides or {}

    paths = raw.get("paths") if isinstance(raw, dict) else None
    if not isinstance(paths, dict):
        raise ConfigError(["config must carry a 'paths' object"])

    def path_of(key: str, required: bool) -> Path | None:
        val = overrides.get(key) or paths.get(key)
        if val is None or val == "":
            if required:
                violations.append(f"paths.{key} is required")
            return None
        if not isinstance(val, str):
            violations.append(f"paths.{key} must be a string, got {val!r}")
            return None
        return Path(val)

    corpus = path_of("corpus", True)
    lexicon = path_of("lexicon", True)
    catalog = path_of("catalog", True)
    output = path_of("output", True)
    embeddings = path_of("embeddings", False)
    stopwords = path_of("stopwords", False)
    mar = path_of("mar", False)

    corpus_format = raw.get("corpus_format", "lines")
    if corpus_format not in ("lines", "pubmed-xml"):
        violations.append(f"corpus_format must be 'lines' or 'pubmed-xml', got {corpus_format!r}")

    seed = overrides.get("seed", raw.get("seed", 7))
    if not _is_int(seed):
        violations.append(f"seed must be an integer, got {seed!r}")

    ratios = raw.get("ratios", [0.64, 0.16, 0.2])
    if (
        not isinstance(ratios, (list, tuple))
        or len(ratios) != 3
        or not all(_is_number(r) and r >= 0 for r in ratios)
    ):
        violations.append(f"ratios must be 3 nonnegative numbers, got {ratios!r}")
    elif abs(sum(ratios) - 1.0) > 1e-9:
        violations.append(f"ratios must sum to 1, got {sum(ratios)!r}")

    top_k = raw.get("top_k")
    if top_k is not None and (not _is_int(top_k) or top_k < 0):
        violations.append(f"top_k must be a nonnegative integer or null, got {top_k!r}")

    feature_kind = raw.get("features", "counts")
    if feature_kind not in FEATURE_KINDS:
        violations.append(f"features must be one of {FEATURE_KINDS}, got {feature_kind!r}")
    if feature_kind == "embeddings":
        if embeddings is None:
            violations.append("features=embeddings requires paths.embeddings")
        if stopwords is None:
            violations.append("features=embeddings requires paths.stopwords")

    vocab_stopwords = raw.get("vocab_stopwords", "keep")
    if vocab_stopwords not in VOCAB_STOPWORD_MODES:
        violations.append(f"vocab_stopwords must be one of {VOCAB_STOPWORD_MODES}")

    flags = {key: raw.get(key, False) for key in ("drop_empty_samples", "undersample_train")}
    for key, val in flags.items():
        if not isinstance(val, bool):
            violations.append(f"{key} must be true or false, got {val!r}")

    model = _model_section(_section(raw, "model", violations), violations)

    cv_raw = _section(raw, "cv", violations)
    enabled = cv_raw.get("enabled")
    if enabled is not None and not isinstance(enabled, bool):
        violations.append(f"cv.enabled must be true, false or null, got {enabled!r}")
    grid = cv_raw.get("grid")
    if grid is not None and (
        not isinstance(grid, list) or not grid or not all(_is_number(g) and g > 0 for g in grid)
    ):
        violations.append("cv.grid must be null or a non-empty list of positive numbers")
    k = cv_raw.get("k", 3)
    if not _is_int(k) or k < 2:
        violations.append(f"cv.k must be an integer of at least 2, got {k!r}")

    threshold = raw.get("threshold", 0.0)
    if not _is_number(threshold):
        violations.append(f"threshold must be a finite number, got {threshold!r}")

    alerts_raw = _section(raw, "alerts", violations)
    window_hours = alerts_raw.get("window_hours", 24.0)
    if not _is_number(window_hours) or window_hours <= 0:
        violations.append(f"alerts.window_hours must be a positive number, got {window_hours!r}")
    per_drug_hours = alerts_raw.get("per_drug_hours")
    per_drug_hours = {} if per_drug_hours is None else per_drug_hours
    if not isinstance(per_drug_hours, dict) or not all(
        _is_number(v) and v > 0 for v in per_drug_hours.values()
    ):
        violations.append(f"alerts.per_drug_hours must map drugs to positive hours, got {per_drug_hours!r}")

    if violations:
        raise ConfigError(violations)
    assert corpus and lexicon and catalog and output
    return PipelineConfig(
        corpus=corpus,
        lexicon=lexicon,
        catalog=catalog,
        output=output,
        embeddings=embeddings,
        stopwords=stopwords,
        mar=mar,
        corpus_format=corpus_format,
        seed=seed,
        ratios=(float(ratios[0]), float(ratios[1]), float(ratios[2])),
        top_k=top_k,
        feature_kind=feature_kind,
        vocab_stopwords=vocab_stopwords,
        drop_empty_samples=flags["drop_empty_samples"],
        undersample_train=flags["undersample_train"],
        model=model,
        cv=CvSection(enabled, None if grid is None else [float(g) for g in grid], k),
        threshold=float(threshold),
        alerts=AlertSection(float(window_hours), {str(d): float(h) for d, h in per_drug_hours.items()}),
    )


def _is_number(value: Any) -> bool:
    """A finite int or float; a boolean is not a number here."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _section(raw: dict[str, Any], key: str, violations: list[str]) -> dict[str, Any]:
    """The object under ``key``; absent or null reads as empty, anything else is a violation."""
    section = raw.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        violations.append(f"{key} must be an object, got {section!r}")
        return {}
    return section


def _model_section(model_raw: dict[str, Any], violations: list[str]) -> ModelSection:
    """The ``model`` object, type-checked field by field; violations are appended."""
    model = ModelSection()
    loss = model_raw.get("loss", model.loss)
    if loss not in ("logistic", "hinge"):
        violations.append(f"model.loss must be 'logistic' or 'hinge', got {loss!r}")
    else:
        model.loss = loss
    l1_lambda = model_raw.get("l1_lambda", model.l1_lambda)
    if not _is_number(l1_lambda) or l1_lambda < 0:
        violations.append(f"model.l1_lambda must be a finite nonnegative number, got {l1_lambda!r}")
    else:
        model.l1_lambda = float(l1_lambda)
    max_iters = model_raw.get("max_iters", model.max_iters)
    if not _is_int(max_iters) or max_iters < 1:
        violations.append(f"model.max_iters must be an integer of at least 1, got {max_iters!r}")
    else:
        model.max_iters = max_iters
    tolerance = model_raw.get("tolerance", model.tolerance)
    if not _is_number(tolerance) or tolerance <= 0:
        violations.append(f"model.tolerance must be a finite positive number, got {tolerance!r}")
    else:
        model.tolerance = float(tolerance)
    standardize = model_raw.get("standardize", model.standardize)
    if not isinstance(standardize, bool):
        violations.append(f"model.standardize must be true or false, got {standardize!r}")
    else:
        model.standardize = standardize
    return model


def config_digest(cfg: PipelineConfig) -> str:
    """SHA-256 over the experiment-relevant configuration.

    The output directory is excluded: it does not change what any artifact
    contains, and reruns into a different directory must still verify as the
    same experiment.
    """
    payload = {
        "corpus": str(cfg.corpus),
        "lexicon": str(cfg.lexicon),
        "catalog": str(cfg.catalog),
        "embeddings": None if cfg.embeddings is None else str(cfg.embeddings),
        "stopwords": None if cfg.stopwords is None else str(cfg.stopwords),
        "mar": None if cfg.mar is None else str(cfg.mar),
        "corpus_format": cfg.corpus_format,
        "seed": cfg.seed,
        "ratios": list(cfg.ratios),
        "top_k": cfg.top_k,
        "features": cfg.feature_kind,
        "vocab_stopwords": cfg.vocab_stopwords,
        "drop_empty_samples": cfg.drop_empty_samples,
        "undersample_train": cfg.undersample_train,
        "model": vars(cfg.model),
        "cv": {"enabled": cfg.cv.enabled, "grid": cfg.cv.grid, "k": cfg.cv.k},
        "threshold": cfg.threshold,
        "alerts": {"window_hours": cfg.alerts.window_hours, "per_drug_hours": cfg.alerts.per_drug_hours},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
