"""Pipeline configuration: one declarative JSON file plus flag overrides.

Each setting is declared once, as a dataclass field made by ``_setting``: its
default, its JSON key, its validity test and the phrase that completes
"``<dotted key>`` must be ...".  A config dataclass tests each declared
setting when built and stores it cast, so a bad section is refused where it is
made.  ``build_config`` maps the JSON keys of ``PipelineConfig`` and of its
sections (``model``, ``cv``, ``alerts``) to fields, builds each, and collects
every violation; it adds the ``paths`` block and the rules that span fields.
``pipeline.STAGES`` declares which fields each stage reads.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

from .corpus import CORPUS_FORMATS
from .errors import ConfigError
from .mar_alerts import WINDOW_HOURS_RANGE, valid_window_hours

FEATURE_KINDS = ("counts", "embeddings")
VOCAB_STOPWORD_MODES = ("keep", "drop")
LOSS_KINDS = ("logistic", "hinge")
# (JSON key, value) -> the paths that setting needs, checked at load; unset, a stage never reads them
PATH_RULES = {("features", "embeddings"): ("embeddings", "stopwords"), ("vocab_stopwords", "drop"): ("stopwords",)}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A finite int or float; a boolean is not a number here."""
    return math.isfinite(value) if isinstance(value, float) else _is_int(value)


def _is_bool(value: Any) -> bool:
    return isinstance(value, bool)


def _is_window(value: Any) -> bool:
    return _is_number(value) and valid_window_hours(value)


def _or_null(test: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: value is None or test(value)


def _setting(
    default: Any, test: Callable[[Any], bool], must: str, cast: Callable = lambda v: v, key: str | None = None
) -> Any:
    """Declare a setting: a JSON value under ``key`` (default: the field name) that
    passes ``test`` is stored as ``cast(value)``; ``must`` completes "<key> must be ..."."""
    meta = {"test": test, "must": must, "cast": cast, "key": key}
    return field(default_factory=lambda: copy.deepcopy(default), metadata=meta)


def _ratios(value: Any) -> tuple[float, ...]:
    """The split ratios as floats; refused unless they sum to 1."""
    if abs(sum(ratios := tuple(map(float, value))) - 1.0) > 1e-9:
        raise ValueError(f"sum to 1, got {sum(ratios)!r}")
    return ratios


class _Checked:
    """A config dataclass whose construction tests each declared setting and stores it cast; a cast may refuse
    a value that passed the test with a ``ValueError`` that completes "<key> must ..."."""

    def __post_init__(self) -> None:
        violations = []
        for f in (f for f in fields(self) if f.metadata):
            key, value = f.metadata["key"] or f.name, getattr(self, f.name)
            if not f.metadata["test"](value):
                violations.append(f"{key} must be {f.metadata['must']}, got {value!r}")
                continue
            try:
                setattr(self, f.name, f.metadata["cast"](value))
            except ValueError as exc:
                violations.append(f"{key} must {exc}")
        if violations:
            raise ConfigError(violations)


@dataclass
class ModelSection(_Checked):
    """The classifier and its solver.

    ``tolerance`` bounds the certified KKT residual of every fit, relative to
    the L1 penalty (absolute when ``l1_lambda`` is 0): a fit stops once no
    optimality condition is violated by more than ``tolerance * l1_lambda``.
    ``max_iters`` caps the solver's iterations (Newton steps for logistic
    loss, LP iterations for hinge); a fit cut off by it is written to
    ``model.txt`` with ``converged 0``.
    """

    loss: str = _setting("logistic", lambda v: v in LOSS_KINDS, " or ".join(map(repr, LOSS_KINDS)))
    l1_lambda: float = _setting(0.0, lambda v: _is_number(v) and v >= 0, "a finite nonnegative number", float)
    max_iters: int = _setting(10_000, lambda v: _is_int(v) and v >= 1, "an integer of at least 1")
    tolerance: float = _setting(1e-6, lambda v: _is_number(v) and v > 0, "a finite positive number", float)
    standardize: bool = _setting(False, _is_bool, "true or false")


@dataclass
class CvSection(_Checked):
    # None: on for logistic, off for hinge
    enabled: bool | None = _setting(None, _or_null(_is_bool), "true, false or null")
    # None: log-spaced from lambda_max
    grid: list[float] | None = _setting(
        None, _or_null(lambda v: isinstance(v, list) and bool(v) and all(_is_number(g) and g > 0 for g in v)),
        "null or a non-empty list of positive numbers", lambda v: None if v is None else [float(g) for g in v])
    k: int = _setting(3, lambda v: _is_int(v) and v >= 2, "an integer of at least 2")


@dataclass
class AlertSection(_Checked):
    window_hours: float = _setting(24.0, _is_window, f"a number of hours {WINDOW_HOURS_RANGE}", float)
    # null reads as no per-drug windows
    per_drug_hours: dict[str, float] = _setting(
        {}, _or_null(lambda v: isinstance(v, dict) and all(map(_is_window, v.values()))),
        f"an object mapping drugs to hours {WINDOW_HOURS_RANGE}",
        lambda v: {str(d): float(h) for d, h in (v or {}).items()})


@dataclass
class PipelineConfig(_Checked):
    corpus: Path
    lexicon: Path
    catalog: Path
    output: Path
    embeddings: Path | None = None
    stopwords: Path | None = None
    mar: Path | None = None
    corpus_format: str = _setting("lines", lambda v: v in CORPUS_FORMATS, " or ".join(map(repr, CORPUS_FORMATS)))
    seed: int = _setting(7, _is_int, "an integer")
    ratios: tuple[float, float, float] = _setting(
        (0.64, 0.16, 0.2),
        lambda v: isinstance(v, (list, tuple)) and len(v) == 3 and all(_is_number(r) and r >= 0 for r in v),
        "3 nonnegative numbers", _ratios)
    top_k: int | None = _setting(None, _or_null(lambda v: _is_int(v) and v >= 0), "a nonnegative integer or null")
    feature_kind: str = _setting("counts", lambda v: v in FEATURE_KINDS, f"one of {FEATURE_KINDS}", key="features")
    vocab_stopwords: str = _setting("keep", lambda v: v in VOCAB_STOPWORD_MODES, f"one of {VOCAB_STOPWORD_MODES}")
    drop_empty_samples: bool = _setting(False, _is_bool, "true or false")
    undersample_train: bool = _setting(False, _is_bool, "true or false")
    model: ModelSection = field(default_factory=ModelSection)
    cv: CvSection = field(default_factory=CvSection)
    threshold: float = _setting(0.0, _is_number, "a finite number", float)
    alerts: AlertSection = field(default_factory=AlertSection)

    def cv_enabled(self) -> bool:
        if self.cv.enabled is None:
            return self.model.loss == "logistic"
        return self.cv.enabled


# the fields set from the ``paths`` block, ``output`` included
PATHS = tuple(f.name for f in fields(PipelineConfig) if not (f.metadata or is_dataclass(f.default_factory)))


def load_config(path: Path | str, overrides: dict[str, Any] | None = None) -> PipelineConfig:
    """Parse and validate; raises ConfigError listing every violation at once."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # ValueError: a JSON or UTF-8 decode error
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    return build_config(raw, overrides)


def build_config(raw: dict[str, Any], overrides: dict[str, Any] | None = None) -> PipelineConfig:
    """The config ``raw`` describes, with ``overrides`` (``seed``, ``output``) on top."""
    overrides = overrides or {}
    paths = raw.get("paths") if isinstance(raw, dict) else None
    if not isinstance(paths, dict):
        raise ConfigError(["config must carry a 'paths' object"])

    violations: list[str] = []
    located: dict[str, Path | None] = dict.fromkeys(PATHS)
    for name in PATHS:
        val = overrides.get(name) or paths.get(name)
        if val is None or val == "":
            if PipelineConfig.__dataclass_fields__[name].default is MISSING:
                violations.append(f"paths.{name} is required")
        elif not isinstance(val, str):
            violations.append(f"paths.{name} must be a string, got {val!r}")
        else:
            located[name] = Path(val)
    raw = {**raw, **overrides}
    sections = {f.name: _build(f.default_factory, _section(raw, f.name, violations), violations, f"{f.name}.")
                for f in fields(PipelineConfig) if is_dataclass(f.default_factory)}
    config = _build(PipelineConfig, raw, violations, **located, **sections)
    for (key, value), needed in PATH_RULES.items():
        if raw.get(key) == value:
            violations += [f"{key}={value} requires paths.{name}" for name in needed if located[name] is None]
    if violations:
        raise ConfigError(violations)
    return config


def _build(cls: type, raw: dict[str, Any], violations: list[str], prefix: str = "", **given: Any) -> Any:
    """``cls`` built from ``given`` and the declared settings that ``raw`` holds by JSON key (an absent one keeps
    its default); if it is refused, None, with each violation added under ``prefix``."""
    settings = {f.name: raw[key] for f in fields(cls) if f.metadata and (key := f.metadata["key"] or f.name) in raw}
    try:
        return cls(**settings, **given)
    except ConfigError as exc:
        violations += [prefix + violation for violation in exc.violations]
        return None


def _section(raw: dict[str, Any], key: str, violations: list[str]) -> dict[str, Any]:
    """The object under ``key``; absent or null reads as empty, anything else is a violation."""
    section = raw.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        violations.append(f"{key} must be an object, got {section!r}")
        return {}
    return section
