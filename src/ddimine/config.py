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
    jobs: int = 1

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

    def take(mapping: dict, key: str, default=None):
        return mapping.get(key, default)

    paths = raw.get("paths")
    if not isinstance(paths, dict):
        raise ConfigError(["config must carry a 'paths' object"])

    def path_of(key: str, required: bool) -> Path | None:
        val = take(paths, key)
        if val is None or val == "":
            if required:
                violations.append(f"paths.{key} is required")
            return None
        return Path(val)

    corpus = path_of("corpus", True)
    lexicon = path_of("lexicon", True)
    catalog = path_of("catalog", True)
    output_raw = overrides.get("output") or take(paths, "output")
    if not output_raw:
        violations.append("paths.output is required")
        output = None
    else:
        output = Path(output_raw)
    embeddings = path_of("embeddings", False)
    stopwords = path_of("stopwords", False)
    mar = path_of("mar", False)

    corpus_format = take(raw, "corpus_format", "lines")
    if corpus_format not in ("lines", "pubmed-xml"):
        violations.append(f"corpus_format must be 'lines' or 'pubmed-xml', got {corpus_format!r}")

    seed = overrides.get("seed", take(raw, "seed", 7))
    if not isinstance(seed, int):
        violations.append(f"seed must be an integer, got {seed!r}")

    ratios_raw = take(raw, "ratios", [0.64, 0.16, 0.2])
    ratios: tuple[float, float, float] = (0.64, 0.16, 0.2)
    if (
        not isinstance(ratios_raw, (list, tuple))
        or len(ratios_raw) != 3
        or any(not isinstance(r, (int, float)) or r < 0 for r in ratios_raw)
    ):
        violations.append(f"ratios must be 3 nonnegative numbers, got {ratios_raw!r}")
    elif abs(sum(ratios_raw) - 1.0) > 1e-9:
        violations.append(f"ratios must sum to 1, got {sum(ratios_raw)!r}")
    else:
        ratios = (float(ratios_raw[0]), float(ratios_raw[1]), float(ratios_raw[2]))

    top_k = take(raw, "top_k")
    if top_k is not None and (not isinstance(top_k, int) or top_k < 0):
        violations.append(f"top_k must be a nonnegative integer or null, got {top_k!r}")

    feature_kind = take(raw, "features", "counts")
    if feature_kind not in FEATURE_KINDS:
        violations.append(f"features must be one of {FEATURE_KINDS}, got {feature_kind!r}")
    if feature_kind == "embeddings":
        if embeddings is None:
            violations.append("features=embeddings requires paths.embeddings")
        if stopwords is None:
            violations.append("features=embeddings requires paths.stopwords")

    vocab_stopwords = take(raw, "vocab_stopwords", "keep")
    if vocab_stopwords not in VOCAB_STOPWORD_MODES:
        violations.append(f"vocab_stopwords must be one of {VOCAB_STOPWORD_MODES}")

    model = _model_section(take(raw, "model", {}) or {}, violations)

    cv_raw = take(raw, "cv", {}) or {}
    grid = take(cv_raw, "grid")
    if grid is not None and (
        not isinstance(grid, list) or not grid or any(not isinstance(g, (int, float)) or g <= 0 for g in grid)
    ):
        violations.append("cv.grid must be null or a non-empty list of positive numbers")
    cv = CvSection(
        enabled=take(cv_raw, "enabled"),
        grid=None if grid is None else [float(g) for g in grid],
        k=int(take(cv_raw, "k", 3)),
    )
    if cv.k < 2:
        violations.append("cv.k must be at least 2")

    threshold = take(raw, "threshold", 0.0)
    if not isinstance(threshold, (int, float)):
        violations.append(f"threshold must be a number, got {threshold!r}")

    alerts_raw = take(raw, "alerts", {}) or {}
    alerts = AlertSection(
        window_hours=float(take(alerts_raw, "window_hours", 24.0)),
        per_drug_hours={str(k): float(v) for k, v in (take(alerts_raw, "per_drug_hours", {}) or {}).items()},
    )
    if alerts.window_hours <= 0 or any(v <= 0 for v in alerts.per_drug_hours.values()):
        violations.append("alert windows must be positive")

    jobs = overrides.get("jobs", take(raw, "jobs", 1))
    if not isinstance(jobs, int) or jobs < 1:
        violations.append(f"jobs must be a positive integer, got {jobs!r}")

    drop_empty = bool(take(raw, "drop_empty_samples", False))
    undersample_train = bool(take(raw, "undersample_train", False))

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
        seed=int(seed),
        ratios=ratios,
        top_k=top_k,
        feature_kind=feature_kind,
        vocab_stopwords=vocab_stopwords,
        drop_empty_samples=drop_empty,
        undersample_train=undersample_train,
        model=model,
        cv=cv,
        threshold=float(threshold),
        alerts=alerts,
        jobs=int(jobs),
    )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _model_section(model_raw: Any, violations: list[str]) -> ModelSection:
    """The ``model`` object, type-checked field by field; violations are appended."""
    model = ModelSection()
    if not isinstance(model_raw, dict):
        violations.append(f"model must be an object, got {model_raw!r}")
        return model
    loss = model_raw.get("loss", model.loss)
    if loss not in ("logistic", "hinge"):
        violations.append(f"model.loss must be 'logistic' or 'hinge', got {loss!r}")
    else:
        model.loss = loss
    l1_lambda = model_raw.get("l1_lambda", model.l1_lambda)
    if not _is_number(l1_lambda) or not math.isfinite(l1_lambda) or l1_lambda < 0:
        violations.append(f"model.l1_lambda must be a finite nonnegative number, got {l1_lambda!r}")
    else:
        model.l1_lambda = float(l1_lambda)
    max_iters = model_raw.get("max_iters", model.max_iters)
    if not isinstance(max_iters, int) or isinstance(max_iters, bool) or max_iters < 1:
        violations.append(f"model.max_iters must be an integer of at least 1, got {max_iters!r}")
    else:
        model.max_iters = max_iters
    tolerance = model_raw.get("tolerance", model.tolerance)
    if not _is_number(tolerance) or not math.isfinite(tolerance) or tolerance <= 0:
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

    The output directory and job count are excluded: neither changes what any
    artifact contains, and reruns into a different directory must still verify
    as the same experiment.
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
