"""Interaction alerts over medication administration records.

Each administration opens a fixed post-administration exposure window
(default 24 hours, overridable per drug).  For every catalog-positive drug
pair, overlapping exposures of the two drugs within a patient become alert
windows.  The window model is deliberately simple and is not a pharmacokinetic
claim: a fixed window stands in for each drug's exposure, whatever its dose,
route or half-life.

Time is int64 microseconds since the epoch, in UTC, from :func:`parse_mar` to
the files, which are always written in UTC.  Administrations, windows and
alerts are numpy columns, with patients and drugs as codes into sorted name
lists, so codes order as names do, and an alert's pair as a row of the
catalog's pairs among the MAR's drugs; windows are merged after one sort and
joined on sorted starts.  Each fact is written once: ``alerts.tsv`` holds one
row per alert, and ``alert_report.txt`` each pair's count and catalog
description.  Text is made only as the files are written, a column at a time,
block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from . import artifacts
from .errors import ValidationError
from .labeling import InteractionCatalog

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
    """Alert windows [start, end) as codes, in report order: by (patient, start, drug_a, drug_b)."""

    patients: list[str]  # sorted; ``patient`` codes into it
    drugs: list[str]
    pairs: np.ndarray  # (pairs, 2): the catalog's pairs among ``drugs``, as codes in display order, by sorted names
    effects: list[str]  # each pair's catalog description
    patient: np.ndarray
    pair: np.ndarray  # a row of ``pairs``
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
    """Read ``patient_id TAB drug TAB timestamp`` rows after the header, the first non-blank line."""
    patients, drugs = {}, {}  # id -> code, first seen first
    patient_codes, drug_codes, times = [], [], []
    parsed: dict[str, int] = {}  # raw timestamp text -> its time; bad text never enters
    with artifacts.input_lines(path) as lines:
        if [c.strip().lower() for c in next(lines, "").split("\t")] != ["patient_id", "drug", "timestamp"]:
            raise ValidationError("missing MAR header 'patient_id<TAB>drug<TAB>timestamp'")
        for line in lines:
            parts = line.split("\t")
            if len(parts) != 3 or not (patient := parts[0].strip()) or not (drug := parts[1].strip()):
                raise ValidationError("expected patient_id, drug, timestamp")
            if (time := parsed.get(parts[2])) is None:
                if len(parsed) == _MAX_PARSED:  # full: start over
                    parsed.clear()
                time = parsed[parts[2]] = (parse_timestamp(parts[2]) - _EPOCH) // _TICK
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
    return Alerts(windows.patients, windows.drugs, shown, [r[3] for r in table],
                  patient[i][rank], row[rank], alert_start[rank], alert_end[rank])


def encode_alerts(alerts: Alerts) -> dict[str, artifacts.Encoded]:
    """``alerts.tsv`` and ``alert_report.txt``, streamed; ``alerts`` in :func:`detect_overlaps` order.

    The TSV holds one row per alert: the patient, the pair in the catalog's
    display order, and the window [start, end) as UTC instants.  The report
    gives each pair with alerts, by sorted names, its count and its catalog
    description, then the total.
    """
    return {"alerts.tsv": ("ddi-alerts", {}, _tsv_blocks(alerts)),
            "alert_report.txt": ("alert-report", {}, _report_lines(alerts))}


def _isoformat(times: np.ndarray) -> list[str]:
    """Each instant as ``datetime.isoformat`` writes it, less the zone: ``.ffffff`` only where nonzero.

    Each distinct instant is formatted once: an hourly chart repeats a few thousand of them.
    """
    instants, at = np.unique(times, return_inverse=True)
    text = np.datetime_as_string(instants.astype("M8[us]"), unit="us")
    return np.where(instants % 1_000_000 == 0, text.astype("U19"), text).astype(object)[at].tolist()


def _tsv_blocks(alerts: Alerts) -> Iterator[str]:
    """The column line, then the rows a block at a time: each column of a block is formatted at once."""
    yield "patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso\n"
    patients = np.array(alerts.patients, dtype=object)
    pairs = np.array([f"{alerts.drugs[a]}\t{alerts.drugs[b]}" for a, b in alerts.pairs.tolist()], dtype=object)
    for lo in range(0, len(alerts), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        columns = (patients[alerts.patient[block]].tolist(), pairs[alerts.pair[block]].tolist(),
                   _isoformat(alerts.start[block]), _isoformat(alerts.end[block]))
        yield "".join(map("{}\t{}\t{}+00:00\t{}+00:00\n".format, *columns))


def _report_lines(alerts: Alerts) -> Iterator[str]:
    yield "pair totals:\n"
    count = np.bincount(alerts.pair, minlength=len(alerts.effects))
    for row in np.flatnonzero(count).tolist():  # pairs sort by codes, which order as names do
        a, b = (alerts.drugs[c] for c in sorted(alerts.pairs[row].tolist()))
        yield f"  {a}/{b}\t{count[row]}\t{alerts.effects[row]}\n"
    yield f"total alerts\t{len(alerts)}\n"
