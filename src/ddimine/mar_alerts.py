"""Interaction alerts over medication administration records.

Each administration opens a fixed post-administration exposure window
(default 24 hours, overridable per drug).  For every catalog-positive drug
pair, overlapping exposures of the two drugs within a patient become alert
windows.  The window model is deliberately simple and is not a pharmacokinetic
claim: a fixed window stands in for each drug's exposure, whatever its dose,
route or half-life.

Time is int64 microseconds since the epoch, in UTC, from :func:`parse_mar` to
the files, which are always written in UTC.  Administrations and windows are
numpy columns, with patients and drugs as codes into sorted name lists, so
codes order as names do; windows are merged after one sort and joined on
sorted starts.  The files are formatted a column at a time, block by block.
A window's end date is that of its last microsecond, ``end - 1``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from . import artifacts
from .errors import ValidationError
from .labeling import InteractionCatalog, pair_key

_MIN_TIME = datetime(1900, 1, 1, tzinfo=timezone.utc)
_MAX_TIME = datetime(2100, 1, 1, tzinfo=timezone.utc)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_TICK = timedelta(microseconds=1)  # the finest step a datetime holds: the unit of every time here
_MAX_PARSED = 4096  # distinct timestamp strings parse_mar keeps, under 1 MB
_BLOCK = 4096  # alerts whose text the encoder formats at once
_MAX_WINDOW_HOURS = 1e7  # _MAX_TIME plus this many hours is still inside datetime's years 1 to 9999
WINDOW_HOURS_RANGE = "from 1 microsecond to 1e7 (about 1,141 years)"


class Administrations(NamedTuple):
    """MAR rows as columns, in file order."""

    patients: list[str]  # sorted; a code is a place in it
    drugs: list[str]
    patient: np.ndarray  # int64 codes
    drug: np.ndarray
    time: np.ndarray


class Windows(NamedTuple):
    """Exposure windows [start, end) as columns, by (patient, drug, start); one drug's never touch."""

    patients: list[str]
    drugs: list[str]
    patient: np.ndarray
    drug: np.ndarray
    start: np.ndarray
    end: np.ndarray


@dataclass(frozen=True)
class Alerts:
    """Alert windows [start, end) as columns, in report order: by (patient, start, drug_a, drug_b)."""

    patient_id: list[str]
    drug_a: list[str]  # display order from the catalog
    drug_b: list[str]
    effect: list[str]
    start: np.ndarray
    end: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


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


def parse_mar(path: Path | str) -> Administrations:
    """Read ``patient_id TAB drug TAB timestamp`` rows, ending at LF, CR LF or CR, after the header."""
    patients, drugs = {}, {}  # id -> code, first seen first
    patient_codes, drug_codes, times = [], [], []
    parsed: dict[str, int] = {}  # raw timestamp text -> its time; bad text never enters
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().rstrip("\n")
        if [c.strip().lower() for c in header.split("\t")] != ["patient_id", "drug", "timestamp"]:
            raise ValidationError(f"{path}: missing MAR header 'patient_id<TAB>drug<TAB>timestamp'")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3 or not (patient := parts[0].strip()) or not (drug := parts[1].strip()):
                raise ValidationError(f"{path}:{lineno}: expected patient_id, drug, timestamp")
            if (time := parsed.get(parts[2])) is None:
                if len(parsed) == _MAX_PARSED:  # full: start over
                    parsed.clear()
                try:
                    time = parsed[parts[2]] = (parse_timestamp(parts[2]) - _EPOCH) // _TICK
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
            patient_codes.append(patients.setdefault(patient, len(patients)))
            drug_codes.append(drugs.setdefault(drug, len(drugs)))
            times.append(time)
    patient, drug, time = (np.array(column, dtype=np.int64) for column in (patient_codes, drug_codes, times))
    rank = [np.argsort(np.argsort(np.array(list(names), dtype=object))) for names in (patients, drugs)]
    return Administrations(sorted(patients), sorted(drugs), rank[0][patient], rank[1][drug], time)


def build_exposures(
    events: Administrations,
    default_window_hours: float = 24.0,
    per_drug_hours: Mapping[str, float] | None = None,
) -> Windows:
    """Each patient's exposure windows by drug: [t, t+W) per event, touching ones merged."""
    per_drug_hours = per_drug_hours or {}
    if not all(map(valid_window_hours, [default_window_hours, *per_drug_hours.values()])):
        raise ValidationError(f"exposure window must be a number of hours {WINDOW_HOURS_RANGE}")
    hours = [per_drug_hours.get(drug, default_window_hours) for drug in events.drugs]
    length = np.array([timedelta(hours=h) // _TICK for h in hours], dtype=np.int64)
    order = np.lexsort((events.time, events.drug, events.patient))
    patient, drug, time = events.patient[order], events.drug[order], events.time[order]
    end = time + length[drug]
    # a window opens at each group's first row and after each gap; sorted, it ends where its last row's does
    opens = np.ones(len(time), dtype=bool)
    opens[1:] = (patient[1:] != patient[:-1]) | (drug[1:] != drug[:-1]) | (time[1:] > end[:-1])
    first, last = np.flatnonzero(opens), np.flatnonzero(np.roll(opens, -1))  # last: the row before an opening
    return Windows(events.patients, events.drugs, patient[first], drug[first], time[first], end[last])


def detect_overlaps(windows: Windows, catalog: InteractionCatalog) -> Alerts:
    """Alerts for every catalog-positive pair with intersecting exposures, by (patient, start, pair).

    ``windows`` must be :func:`build_exposures` output: one drug's windows have gaps between them, so
    the intersections of two drugs' windows never touch, and each one is its own alert.
    """
    n_drugs = len(windows.drugs)
    code = {drug: i for i, drug in enumerate(windows.drugs)}
    # the catalog's pairs among these drugs, keyed lower code * n_drugs + higher; pairs() sorts each pair
    table = sorted((code[a] * n_drugs + code[b], *map(code.get, catalog.display(a, b)), catalog.description(a, b))
                   for a, b in catalog.pairs() if a in code and b in code)
    keys = np.array([row[0] for row in table] + [np.iinfo(np.int64).max], dtype=np.int64)  # a sentinel last
    shown = np.array([row[1:3] for row in table], dtype=np.int64).reshape(-1, 2)

    order = np.lexsort((windows.start, windows.patient))
    patient, drug, start, end = (column[order] for column in windows[2:])
    n = len(start)
    # later[i]: one past the last window of i's patient to start before i ends, found by merging the ends into
    # the starts; at one instant an end sorts first, as windows are half-open
    merged = np.lexsort((np.repeat([1, 0], n), np.concatenate([start, end]), np.tile(patient, 2)))
    is_end = merged >= n
    later = np.empty(n, dtype=np.int64)
    later[merged[is_end] - n] = np.cumsum(~is_end)[is_end]
    # each i < j < later[i]: j starts no earlier than i, and before i ends
    count = later - np.arange(n) - 1
    i = np.repeat(np.arange(n), count)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(count) - count, count)
    key = np.minimum(drug[i], drug[j]) * n_drugs + np.maximum(drug[i], drug[j])
    row = np.searchsorted(keys, key)
    hit = keys[row] == key
    i, j, row = i[hit], j[hit], row[hit]
    alert_start, alert_end = start[j], np.minimum(end[i], end[j])
    rank = np.lexsort((shown[row, 1], shown[row, 0], alert_start, patient[i]))
    i, row, names = i[rank], row[rank], np.array(windows.drugs, dtype=object)
    patients = np.array(windows.patients, dtype=object)[patient[i]].tolist()
    return Alerts(patients, names[shown[row, 0]].tolist(), names[shown[row, 1]].tolist(),
                  [table[r][3] for r in row.tolist()], alert_start[rank], alert_end[rank])


def encode_alerts(alerts: Alerts) -> dict[str, artifacts.Encoded]:
    """``alerts.tsv`` and ``alert_report.txt``, streamed; ``alerts`` in :func:`detect_overlaps` order.

    The TSV holds date-granularity windows plus full-precision timestamps; the
    report lists each patient's alerts as coded tuples, then per-pair totals.
    """
    return {"alerts.tsv": ("ddi-alerts", {}, _tsv_lines(alerts)),
            "alert_report.txt": ("alert-report", {}, _report_lines(alerts))}


def _blocks(alerts: Alerts) -> Iterator[list]:
    """The alerts' columns a block at a time: each is formatted at once, and only a block's text is held."""
    for lo in range(0, len(alerts), _BLOCK):
        yield [getattr(alerts, f.name)[lo : lo + _BLOCK] for f in fields(alerts)]


def _dates(times: np.ndarray) -> list[str]:
    days, at = np.unique(times // 86_400_000_000, return_inverse=True)  # µs a day; each day formatted once
    return np.datetime_as_string(days.astype("M8[D]"))[at].tolist()


def _isoformat(times: np.ndarray) -> list[str]:
    """Each instant as ``datetime.isoformat`` writes it, less the zone: ``.ffffff`` only where nonzero."""
    text = np.datetime_as_string(times.astype("M8[us]"), unit="us")
    return np.where(times % 1_000_000 == 0, text.astype("U19"), text).tolist()


def _tsv_lines(alerts: Alerts) -> Iterator[str]:
    yield "patient_id\tdrug_a\tdrug_b\twindow_start\twindow_end\teffect\tstart_iso\tend_iso\n"
    for patient, drug_a, drug_b, effect, start, end in _blocks(alerts):
        for p, a, b, s, last, e, text in zip(patient, drug_a, drug_b, _isoformat(start), _dates(end - 1),
                                              _isoformat(end), effect):
            yield f"{p}\t{a}\t{b}\t{s[:10]}\t{last}\t{text}\t{s}+00:00\t{e}+00:00\n"


def _report_lines(alerts: Alerts) -> Iterator[str]:
    previous = None
    for patient, drug_a, drug_b, effect, start, end in _blocks(alerts):
        for p, a, b, first, last, text in zip(patient, drug_a, drug_b, _dates(start), _dates(end - 1), effect):
            if p != previous:
                previous = p
                yield f"patient {p}:\n"
            yield f'  (({a}, {b}), ("{first}", "{last}"), "{text}")\n'
    yield "pair totals:\n"
    for (a, b), count in sorted(Counter(map(pair_key, alerts.drug_a, alerts.drug_b)).items()):
        yield f"  {a}/{b}\t{count}\n"
    yield f"total alerts\t{len(alerts)}\n"
