"""Interaction alerts over medication administration records.

Each administration opens a fixed post-administration exposure window
(default 24 hours, overridable per drug).  For every catalog-positive drug
pair, overlapping exposures of the two drugs within a patient become alert
windows.  The window model is deliberately simple and is not a pharmacokinetic
claim: a fixed window stands in for each drug's exposure, whatever its dose,
route or half-life.

One shape carries the records from parsing to alerts: :func:`build_exposures`
groups administrations once, into :data:`Windows`, and :func:`detect_overlaps`
walks that mapping as it is.  :func:`encode_alerts` streams both alert files:
their bodies are generators, so no alert text exists until they are written.

:func:`parse_mar` parses each distinct timestamp string once, through a
bounded lookup that lives only while the file is read; the alert files keep no
lookup.  A window's end date is that of the last instant it covers, ``end -
1 µs``, the finest step a ``datetime`` holds.
"""

from __future__ import annotations

import itertools
from datetime import datetime, timedelta, timezone
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import artifacts
from .errors import ValidationError
from .labeling import InteractionCatalog, pair_key

_MIN_TIME = datetime(1900, 1, 1, tzinfo=timezone.utc)
_MAX_TIME = datetime(2100, 1, 1, tzinfo=timezone.utc)
_TICK = timedelta(microseconds=1)  # the finest step a datetime holds
_MAX_PARSED = 4096  # distinct timestamp strings parse_mar keeps, under 1 MB
_MAX_WINDOW_HOURS = 1e7  # _MAX_TIME plus this many hours is still inside datetime's years 1 to 9999
WINDOW_HOURS_RANGE = "from 1 microsecond to 1e7 (about 1,141 years)"

Window = tuple[datetime, datetime]  # half-open [start, end)
# patient -> drug -> that drug's exposure windows: sorted, disjoint and not touching
Windows = dict[str, dict[str, list[Window]]]


class AdminEvent(NamedTuple):
    patient_id: str
    drug: str
    time: datetime


class DdiAlert(NamedTuple):
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
    if not _MIN_TIME <= ts < _MAX_TIME:  # compared before conversion, which can overflow
        raise ValidationError(f"timestamp {text!r} outside the sane range 1900-2100")
    return ts.astimezone(timezone.utc)


def valid_window_hours(hours: float) -> bool:
    """Whether an exposure window of ``hours`` is :data:`WINDOW_HOURS_RANGE` long, once held as a ``timedelta``."""
    return 0 < hours <= _MAX_WINDOW_HOURS and timedelta(hours=hours) >= _TICK


def parse_mar(path: Path | str) -> list[AdminEvent]:
    """Read ``patient_id TAB drug TAB timestamp`` rows, ending at LF, CR LF or CR, after the header."""
    events: list[AdminEvent] = []
    parsed: dict[str, datetime] = {}  # raw timestamp text -> its UTC time; bad text never enters
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if [c.strip().lower() for c in header.split("\t")] != ["patient_id", "drug", "timestamp"]:
            raise ValidationError(f"{path}: missing MAR header 'patient_id<TAB>drug<TAB>timestamp'")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3 or not parts[0].strip() or not parts[1].strip():
                raise ValidationError(f"{path}:{lineno}: expected patient_id, drug, timestamp")
            if (ts := parsed.get(parts[2])) is None:
                if len(parsed) == _MAX_PARSED:  # full: start over
                    parsed.clear()
                try:
                    ts = parsed[parts[2]] = parse_timestamp(parts[2])
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
            events.append(AdminEvent(parts[0].strip(), parts[1].strip(), ts))
    return events


def build_exposures(
    events: Sequence[AdminEvent],
    default_window_hours: float = 24.0,
    per_drug_hours: Mapping[str, float] | None = None,
) -> Windows:
    """Each patient's exposure windows by drug: [t, t+W) per event, touching ones merged."""
    per_drug_hours = per_drug_hours or {}
    if not all(map(valid_window_hours, [default_window_hours, *per_drug_hours.values()])):
        raise ValidationError(f"exposure window must be a number of hours {WINDOW_HOURS_RANGE}")
    times: dict[str, dict[str, list[datetime]]] = {}
    for patient, drug, time in events:
        times.setdefault(patient, {}).setdefault(drug, []).append(time)
    return {
        patient: {
            drug: _merge(sorted(stamps), timedelta(hours=per_drug_hours.get(drug, default_window_hours)))
            for drug, stamps in drugs.items()
        }
        for patient, drugs in times.items()
    }


def _merge(times: list[datetime], window: timedelta) -> list[Window]:
    merged: list[Window] = []
    start, end = times[0], times[0] + window  # never empty: one list per (patient, drug) seen
    for t in times[1:]:  # sorted, so each window ends no earlier than the one before
        if t > end:  # a gap: the open window is complete
            merged.append((start, end))
            start = t
        end = t + window
    merged.append((start, end))
    return merged


def _intersect_sorted(a: list[Window], b: list[Window]) -> list[Window]:
    out: list[Window] = []
    i = j = 0
    while i < len(a) and j < len(b):
        (a_start, a_end), (b_start, b_end) = a[i], b[j]
        start = a_start if a_start > b_start else b_start
        end = a_end if a_end < b_end else b_end
        if start < end:
            out.append((start, end))
        if a_end <= b_end:
            i += 1
        else:
            j += 1
    return out


def detect_overlaps(windows: Windows, catalog: InteractionCatalog) -> list[DdiAlert]:
    """Alerts for every catalog-positive pair with intersecting exposures.

    ``windows`` must be :func:`build_exposures` output: each drug's windows are
    sorted and have gaps between them, so the intersections of two drugs'
    windows never touch and each one is its own alert.  Output order is
    (patient, window start, pair), which is also the report order.
    """
    alerts: list[DdiAlert] = []
    for patient in sorted(windows):
        drugs = windows[patient]
        found: list[DdiAlert] = []
        for drug_x, drug_y in itertools.combinations(sorted(drugs), 2):
            if (drug_x, drug_y) not in catalog:
                continue
            display_a, display_b = catalog.display(drug_x, drug_y)
            effect = catalog.description(drug_x, drug_y)
            for start, end in _intersect_sorted(drugs[drug_x], drugs[drug_y]):
                found.append(DdiAlert(display_a, display_b, start, end, effect, patient))
        found.sort(key=attrgetter("start", "drug_a", "drug_b"))
        alerts += found
    return alerts


def encode_alerts(alerts: Sequence[DdiAlert]) -> dict[str, artifacts.Encoded]:
    """``alerts.tsv`` and ``alert_report.txt``, streamed; ``alerts`` in :func:`detect_overlaps` order.

    The TSV holds date-granularity windows plus full-precision timestamps; the
    report lists each patient's alerts as coded tuples, then per-pair totals.
    """
    return {
        "alerts.tsv": ("ddi-alerts", {}, _tsv_lines(alerts)),
        "alert_report.txt": ("alert-report", {}, _report_lines(alerts)),
    }


def _last_date(end: datetime) -> str:
    """The date of the last instant a window ending at ``end`` covers."""
    return (end - _TICK).date().isoformat()


def _tsv_lines(alerts: Sequence[DdiAlert]) -> Iterator[str]:
    yield "patient_id\tdrug_a\tdrug_b\twindow_start\twindow_end\teffect\tstart_iso\tend_iso\n"
    for drug_a, drug_b, start, end, effect, patient in alerts:
        start_iso, end_iso = start.isoformat(), end.isoformat()
        yield (
            f"{patient}\t{drug_a}\t{drug_b}\t{start_iso[:10]}\t{_last_date(end)}"
            f"\t{effect}\t{start_iso}\t{end_iso}\n"
        )


def _report_lines(alerts: Sequence[DdiAlert]) -> Iterator[str]:
    totals: dict[tuple[str, str], int] = {}
    for patient, group in itertools.groupby(alerts, key=attrgetter("patient_id")):
        yield f"patient {patient}:\n"
        for drug_a, drug_b, start, end, effect, _ in group:
            yield f'  (({drug_a}, {drug_b}), ("{start.date().isoformat()}", "{_last_date(end)}"), "{effect}")\n'
            key = pair_key(drug_a, drug_b)
            totals[key] = totals.get(key, 0) + 1
    yield "pair totals:\n"
    for (a, b), count in sorted(totals.items()):
        yield f"  {a}/{b}\t{count}\n"
    yield f"total alerts\t{len(alerts)}\n"
