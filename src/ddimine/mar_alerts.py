"""Interaction alerts over medication administration records.

Each administration opens a fixed post-administration exposure window
(default 24 hours, overridable per drug).  For every catalog-positive drug
pair, overlapping exposures of the two drugs within a patient become alert
windows.  The window model is deliberately simple and is not a pharmacokinetic
claim: a fixed window stands in for each drug's exposure, whatever its dose,
route or half-life.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping, Sequence

from . import artifacts
from .errors import ValidationError
from .labeling import InteractionCatalog, pair_key

_MIN_TIME = datetime(1900, 1, 1, tzinfo=timezone.utc)
_MAX_TIME = datetime(2100, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class AdminEvent:
    patient_id: str
    drug: str
    time: datetime


@dataclass(frozen=True)
class ExposureInterval:
    """Half-open [start, end); per (patient, drug) intervals are disjoint and sorted."""

    patient_id: str
    drug: str
    start: datetime
    end: datetime


@dataclass(frozen=True)
class DdiAlert:
    drug_a: str  # display order from the catalog
    drug_b: str
    start: datetime
    end: datetime  # exclusive
    effect: str
    patient_id: str


def parse_timestamp(text: str) -> datetime:
    """ISO-8601; naive timestamps are taken as UTC, 'Z' suffix accepted."""
    raw = text.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError as exc:
        raise ValidationError(f"bad timestamp {text!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    ts = ts.astimezone(timezone.utc)
    if not _MIN_TIME <= ts < _MAX_TIME:
        raise ValidationError(f"timestamp {text!r} outside the sane range 1900-2100")
    return ts


def parse_mar(path: Path | str) -> list[AdminEvent]:
    """Read rows ``patient_id TAB drug TAB timestamp``; the header row is required."""
    events: list[AdminEvent] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or [c.strip().lower() for c in lines[0].split("\t")] != ["patient_id", "drug", "timestamp"]:
        raise ValidationError(f"{path}: missing MAR header 'patient_id<TAB>drug<TAB>timestamp'")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3 or not parts[0].strip() or not parts[1].strip():
            raise ValidationError(f"{path}:{lineno}: expected patient_id, drug, timestamp")
        try:
            ts = parse_timestamp(parts[2])
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        events.append(AdminEvent(parts[0].strip(), parts[1].strip(), ts))
    return events


def build_exposures(
    events: Sequence[AdminEvent],
    default_window_hours: float = 24.0,
    per_drug_hours: Mapping[str, float] | None = None,
) -> list[ExposureInterval]:
    """Expand events to [t, t+W) windows and merge touching ones per (patient, drug)."""
    per_drug_hours = per_drug_hours or {}
    if default_window_hours <= 0 or any(w <= 0 for w in per_drug_hours.values()):
        raise ValidationError("exposure window must be positive")
    grouped: dict[tuple[str, str], list[datetime]] = {}
    for ev in events:
        grouped.setdefault((ev.patient_id, ev.drug), []).append(ev.time)
    out: list[ExposureInterval] = []
    for (patient, drug), times in sorted(grouped.items()):
        window = timedelta(hours=per_drug_hours.get(drug, default_window_hours))
        times.sort()
        start = times[0]
        end = times[0] + window
        for t in times[1:]:
            if t <= end:  # overlapping or touching: extend
                end = max(end, t + window)
            else:
                out.append(ExposureInterval(patient, drug, start, end))
                start, end = t, t + window
        out.append(ExposureInterval(patient, drug, start, end))
    return out


def _intersect_sorted(
    a: Sequence[tuple[datetime, datetime]], b: Sequence[tuple[datetime, datetime]]
) -> list[tuple[datetime, datetime]]:
    out: list[tuple[datetime, datetime]] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if start < end:
            out.append((start, end))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def detect_overlaps(exposures: Sequence[ExposureInterval], catalog: InteractionCatalog) -> list[DdiAlert]:
    """Alerts for every catalog-positive pair with intersecting exposures.

    ``exposures`` must be :func:`build_exposures` output: each (patient, drug)
    has disjoint windows with gaps between them, so the intersections of two
    drugs' windows never touch and each one is its own alert.  Output order is
    (patient, window start, pair), which is also the report order.
    """
    by_patient: dict[str, dict[str, list[tuple[datetime, datetime]]]] = {}
    for exp in exposures:
        by_patient.setdefault(exp.patient_id, {}).setdefault(exp.drug, []).append((exp.start, exp.end))
    alerts: list[DdiAlert] = []
    for patient in sorted(by_patient):
        drugs = by_patient[patient]
        for drug_x, drug_y in itertools.combinations(sorted(drugs), 2):
            if (drug_x, drug_y) not in catalog:
                continue
            windows = _intersect_sorted(sorted(drugs[drug_x]), sorted(drugs[drug_y]))
            display_a, display_b = catalog.display(drug_x, drug_y)
            effect = catalog.description(drug_x, drug_y)
            for start, end in windows:
                alerts.append(DdiAlert(display_a, display_b, start, end, effect, patient))
    alerts.sort(key=lambda al: (al.patient_id, al.start, al.drug_a, al.drug_b))
    return alerts


def _window_dates(alert: DdiAlert) -> tuple[str, str]:
    """Window start and end dates; the end date is that of the last instant covered."""
    return alert.start.date().isoformat(), (alert.end - timedelta(seconds=1)).date().isoformat()


def canonical_tuple(alert: DdiAlert) -> str:
    """The coded alert rendering, at date granularity."""
    start_date, end_date = _window_dates(alert)
    return (
        f'(({alert.drug_a}, {alert.drug_b}), '
        f'("{start_date}", "{end_date}"), "{alert.effect}")'
    )


def alert_report(alerts: Sequence[DdiAlert]) -> str:
    """Per-patient chronological listing plus per-pair totals.

    ``alerts`` must be in :func:`detect_overlaps` order.
    """
    lines = []
    for patient, group in itertools.groupby(alerts, key=lambda al: al.patient_id):
        lines.append(f"patient {patient}:")
        for alert in group:
            lines.append(f"  {canonical_tuple(alert)}")
    lines.append("pair totals:")
    totals: dict[tuple[str, str], int] = {}
    for alert in alerts:
        key = pair_key(alert.drug_a, alert.drug_b)
        totals[key] = totals.get(key, 0) + 1
    for (a, b), count in sorted(totals.items()):
        lines.append(f"  {a}/{b}\t{count}")
    lines.append(f"total alerts\t{len(alerts)}")
    return "\n".join(lines) + "\n"


def encode_alerts(alerts: Sequence[DdiAlert]) -> artifacts.Encoded:
    """TSV with date-granularity windows plus full-precision timestamps."""
    lines = ["patient_id\tdrug_a\tdrug_b\twindow_start\twindow_end\teffect\tstart_iso\tend_iso"]
    for al in alerts:
        start_date, end_date = _window_dates(al)
        lines.append(
            f"{al.patient_id}\t{al.drug_a}\t{al.drug_b}\t{start_date}\t{end_date}"
            f"\t{al.effect}\t{al.start.isoformat()}\t{al.end.isoformat()}"
        )
    return "ddi-alerts", {}, "\n".join(lines) + "\n"
