"""Co-exposure alerts against the hour-by-hour and exact-interval oracles; MAR parsing and alert rendering."""

import itertools
import json
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddimine
from ddimine import mar_alerts
from ddimine.config import load_config
from ddimine.errors import ValidationError
from ddimine.labeling import InteractionCatalog, pair_key
from ddimine.mar_alerts import build_exposures, detect_overlaps, encode_alerts, parse_mar, parse_timestamp
from ddimine.pipeline import run_stage
from ddimine.synth import SynthParams, write_dataset
from helpers import (
    administrations, alert_files_oracle, alert_hours, alert_rows, exact_alert_oracle, hourly_alert_oracle,
    make_alerts, micros, read_body, utc,
)

T0 = datetime(2024, 3, 1, tzinfo=timezone.utc)
DRUGS = [f"d{i}" for i in range(5)]
PAIRS = [(a, b) for i, a in enumerate(DRUGS) for b in DRUGS[i + 1 :]]


def random_catalog(rng: random.Random) -> InteractionCatalog:
    """Some of the pairs of DRUGS, each in a random display order."""
    return InteractionCatalog([(a, b, f"{a} with {b}") if rng.random() < 0.5 else (b, a, f"{b} with {a}")
                               for a, b in rng.sample(PAIRS, rng.randint(0, len(PAIRS)))])


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_alerts_cover_exactly_the_oracle_hours(seed):
    rng = random.Random(seed)
    default_hours = rng.randint(1, 30)
    per_drug_hours = {d: float(rng.randint(1, 30)) for d in rng.sample(DRUGS, rng.randint(0, 3))}
    events = [
        (f"p{rng.randint(0, 2)}", rng.choice(DRUGS), T0 + timedelta(hours=rng.randint(0, 96)))
        for _ in range(rng.randint(0, 40))
    ]
    catalog = random_catalog(rng)

    windows = build_exposures(administrations(events), default_hours, per_drug_hours)
    alerts = alert_rows(detect_overlaps(windows, catalog))
    # the oracle sees each administration's own window, unmerged
    unmerged = [
        (patient, drug, time, time + timedelta(hours=per_drug_hours.get(drug, default_hours)))
        for patient, drug, time in events
    ]
    assert alert_hours(alerts) == hourly_alert_oracle(unmerged, catalog)
    merged = [(windows.patients[p], windows.drugs[d], utc(start), utc(end)) for p, d, start, end in zip(
        windows.patient.tolist(), windows.drug.tolist(), windows.start.tolist(), windows.end.tolist())]
    assert hourly_alert_oracle(merged, catalog) == hourly_alert_oracle(unmerged, catalog)
    assert {(patient, drug) for patient, drug, _ in events} == {(p, d) for p, d, *_ in merged}
    assert merged == sorted(merged)  # by (patient, drug, start)
    for _, group in itertools.groupby(merged, key=lambda w: w[:2]):  # each drug's windows: with gaps between
        ws = [w[2:] for w in group]
        assert all(start < end for start, end in ws)
        assert all(prev[1] < nxt[0] for prev, nxt in zip(ws, ws[1:]))

    by_pair: dict[tuple, list] = {}
    for al in alerts:
        assert (al.drug_a, al.drug_b) == catalog.display(al.drug_a, al.drug_b)
        assert al.effect == catalog.description(al.drug_a, al.drug_b)
        by_pair.setdefault((al.patient_id, pair_key(al.drug_a, al.drug_b)), []).append(al)
    for group in by_pair.values():  # touching windows of one pair are merged
        assert all(prev.end < nxt.start for prev, nxt in zip(group, group[1:]))
    assert alerts == sorted(alerts, key=lambda al: (al.patient_id, al.start, al.drug_a, al.drug_b))


# window lengths in hours: fractional, and one of 7.2 µs (7 µs once held as a timedelta)
LENGTHS = [0.5, 1.25, 2e-9, 24.0]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_alerts_equal_the_exact_interval_oracle(seed):
    rng = random.Random(seed)
    default_hours = rng.choice(LENGTHS)
    per_drug_hours = {d: rng.choice(LENGTHS) for d in rng.sample(DRUGS, rng.randint(0, 3))}
    events: list[tuple[str, str, datetime]] = []
    for _ in range(rng.randint(0, 40)):
        offset = rng.choice([
            timedelta(minutes=rng.randint(0, 59)), timedelta(seconds=rng.randint(0, 3599)),
            timedelta(microseconds=rng.randrange(3_600_000_000)), timedelta(microseconds=rng.randint(0, 9)),
        ])
        base = rng.choice(events)[2] if events and rng.random() < 0.3 else T0 + timedelta(hours=rng.randint(0, 12))
        events.append((f"p{rng.randint(0, 2)}", rng.choice(DRUGS), base + offset))
    catalog = random_catalog(rng)

    windows = build_exposures(administrations(events), default_hours, per_drug_hours)
    alerts = alert_rows(detect_overlaps(windows, catalog))
    found: dict[tuple, list] = {}
    for al in alerts:
        found.setdefault((al.patient_id, pair_key(al.drug_a, al.drug_b)), []).append((al.start, al.end))
    pairs = {pair_key(a, b) for a, b in catalog.pairs()}
    assert found == exact_alert_oracle(events, default_hours, per_drug_hours, pairs)


@pytest.mark.parametrize("text, expected", [
    ("2024-03-01T08:30:00Z", datetime(2024, 3, 1, 8, 30, tzinfo=timezone.utc)),
    ("2024-03-01T08:30:00", datetime(2024, 3, 1, 8, 30, tzinfo=timezone.utc)),
    ("2024-03-01T08:30:00+02:00", datetime(2024, 3, 1, 6, 30, tzinfo=timezone.utc)),
])
def test_timestamps_read_as_utc(text, expected):
    ts = parse_timestamp(text)
    assert ts == expected and ts.utcoffset() == timedelta(0)


@pytest.mark.parametrize("text", ["1899-12-31T23:00:00Z", "2100-01-01T00:00:00Z", "yesterday"])
def test_timestamp_outside_range_or_malformed_rejected(text):
    with pytest.raises(ValidationError):
        parse_timestamp(text)


# in UTC these fall outside datetime's years 1 to 9999
@pytest.mark.parametrize("text", ["9999-12-31T23:00:00-05:00", "0001-01-01T00:00:00+05:00"])
def test_timestamp_outside_datetime_after_utc_rejected(text):
    with pytest.raises(ValidationError, match="outside the sane range"):
        parse_timestamp(text)


def write_mar(path: Path, rows: list[str]) -> Path:
    path.write_text("\n".join(["patient_id\tdrug\ttimestamp", *rows]) + "\n", encoding="utf-8")
    return path


def test_repeated_timestamps_parse_alike_and_errors_name_their_own_line(tmp_path):
    stamps = ["2024-03-01T08:30:00Z", "2024-03-01T08:30:00", "2024-03-01T10:30:00+02:00"]
    path = write_mar(tmp_path / "mar.tsv", [f"p{i % 2}\td{i % 3}\t{stamps[i % 3]}" for i in range(9)])
    events = parse_mar(path)
    assert events.time.tolist() == [micros(datetime(2024, 3, 1, 8, 30, tzinfo=timezone.utc))] * 9
    assert events.time.dtype == np.int64

    bad = "2024-03-01T08:30:00+99:00"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"p1\td1\t{stamps[0]}\np1\td1\t{bad}\np1\td2\t{bad}\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:12: bad timestamp {bad!r}")):
        parse_mar(path)


def test_mar_with_more_distinct_times_than_the_lookup_holds(tmp_path, monkeypatch):
    monkeypatch.setattr(mar_alerts, "_MAX_PARSED", 2)
    stamps = [f"2024-03-01T0{h}:15:00Z" for h in range(5)]
    order = stamps + stamps[::-1] + stamps[::2]
    path = write_mar(tmp_path / "mar.tsv", [f"p\td\t{s}" for s in order])
    assert parse_mar(path).time.tolist() == [micros(parse_timestamp(s)) for s in order]


def test_mar_codes_follow_name_order_whatever_the_row_order(tmp_path):
    rows = ["p2\tzeta\t2024-03-01T00:00:00Z", " p10 \talpha\t2024-03-01T00:00:00Z",
            "p2\tbeta \t2024-03-01T00:00:00Z"]
    events = parse_mar(write_mar(tmp_path / "mar.tsv", rows))
    assert (events.patients, events.drugs) == (["p10", "p2"], ["alpha", "beta", "zeta"])
    assert [events.patients[p] for p in events.patient] == ["p2", "p10", "p2"]
    assert [events.drugs[d] for d in events.drug] == ["zeta", "alpha", "beta"]


@pytest.mark.parametrize("hours", [0, -1, 1e-12, 1e12, float("nan")])
def test_window_length_outside_the_range_rejected(hours):
    events = administrations([("p", "d0", T0)])
    with pytest.raises(ValidationError, match="exposure window must be a number of hours from 1 microsecond"):
        build_exposures(events, hours)
    with pytest.raises(ValidationError, match="exposure window must be a number of hours from 1 microsecond"):
        build_exposures(events, 24.0, {"d0": hours})


def test_mar_without_header_rejected(tmp_path):
    path = tmp_path / "mar.tsv"
    path.write_text("p1\td1\t2024-03-01T00:00:00Z\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="missing MAR header"):
        parse_mar(path)


def test_the_mar_header_is_the_first_non_blank_line(tmp_path):
    path = tmp_path / "mar.tsv"
    path.write_text("\n \npatient_id\tdrug\ttimestamp\np1\td1\t2024-03-01T00:00:00Z\n", encoding="utf-8")
    assert (parse_mar(path).patients, parse_mar(path).drugs) == (["p1"], ["d1"])
    path.write_text("\n \n", encoding="utf-8")
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:2: missing MAR header"):
        parse_mar(path)


def test_bad_mar_row_names_its_line(tmp_path):
    path = tmp_path / "mar.tsv"
    path.write_text("patient_id\tdrug\ttimestamp\np1\td1\t2024-03-01T00:00:00Z\n\np1\td2\tnoon\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:4: bad timestamp")):
        parse_mar(path)
    path.write_text("patient_id\tdrug\ttimestamp\np1\td1\t2024-03-01T00:00:00Z\n \td2\t2024-03-01T00:00:00Z\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:3: expected patient_id, drug, timestamp")):
        parse_mar(path)


# instants around midnight, a microsecond and half a second off it, plus any microsecond of three days;
# drawn in UTC or two other zones, and handed to the encoder as UTC microseconds
ZONES = [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-5))]
MIDNIGHTS = [datetime(2024, 3, d, tzinfo=zone) for d in (2, 3) for zone in ZONES]
EDGES = [m + step for m in MIDNIGHTS for step in
         (timedelta(0), timedelta(microseconds=-1), timedelta(microseconds=1), timedelta(milliseconds=500))]
INSTANTS = st.one_of(
    st.sampled_from(EDGES + [edge.astimezone(ZONES[1]) for edge in EDGES[:4]]),
    st.datetimes(datetime(2024, 3, 1), datetime(2024, 3, 4), timezones=st.sampled_from(ZONES)),
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_alert_files_equal_the_one_by_one_encoder(data):
    rows, shown = [], {}  # each pair in the display order it is first drawn in, as a catalog row gives it
    for _ in range(data.draw(st.integers(0, 12))):
        start, end = sorted(data.draw(st.lists(INSTANTS, min_size=2, max_size=2, unique=True)))
        drug_a, drug_b = data.draw(st.lists(st.sampled_from(DRUGS), min_size=2, max_size=2, unique=True))
        drug_a, drug_b = shown.setdefault(pair_key(drug_a, drug_b), (drug_a, drug_b))
        patient = data.draw(st.sampled_from(["p0", "p1", "p2"]))
        rows.append((drug_a, drug_b, start.astimezone(timezone.utc), end.astimezone(timezone.utc),
                     f"{drug_a} with {drug_b}", patient))
    rows.sort(key=lambda r: (r[5], r[2], r[0], r[1]))  # detect_overlaps order
    alerts = make_alerts(rows)
    encoded = encode_alerts(alerts)
    files = {name: "".join(body) for name, (_, _, body) in encoded.items()}
    assert files == alert_files_oracle(alert_rows(alerts))


@pytest.mark.parametrize("block", [1, 2, 3])
def test_alert_files_alike_in_blocks_of_any_size(monkeypatch, block):
    rows = [("a", "b", T0 + timedelta(hours=h), T0 + timedelta(hours=h + 1, microseconds=h), "e", f"p{h // 3}")
            for h in range(8)]
    monkeypatch.setattr(mar_alerts, "_BLOCK", block)  # a patient's alerts span blocks
    alerts = make_alerts(rows)
    encoded = encode_alerts(alerts)
    files = {name: "".join(body) for name, (_, _, body) in encoded.items()}
    assert files == alert_files_oracle(alert_rows(alerts))


def test_report_totals_per_pair_and_overall():
    window = (T0, T0 + timedelta(hours=1))
    alerts = make_alerts([
        ("b", "a", *window, "b with a", "p1"),
        ("c", "d", *window, "c with d", "p1"),
        ("b", "a", *window, "b with a", "p2"),
    ])
    lines = "".join(encode_alerts(alerts)["alert_report.txt"][2]).splitlines()
    assert lines == ["pair totals:", "  a/b\t2\tb with a", "  c/d\t1\tc with d", "total alerts\t3"]


def test_alert_files_stream_and_report_no_alerts():
    encoded = encode_alerts(make_alerts([]))
    assert [(name, kind) for name, (kind, _, _) in encoded.items()] == [
        ("alerts.tsv", "ddi-alerts"), ("alert_report.txt", "alert-report")
    ]
    # generators, written as they come
    assert not any(isinstance(body, str) for _, _, body in encoded.values())
    assert "".join(encoded["alert_report.txt"][2]) == "pair totals:\ntotal alerts\t0\n"
    assert "".join(encoded["alerts.tsv"][2]).count("\n") == 1  # the column line alone


def test_mar_rows_break_only_at_line_ends(tmp_path):
    path = tmp_path / "mar.tsv"
    text = (
        "patient_id\tdrug\ttimestamp\r\n"
        "p1\td\x0c1\t2024-03-01T00:00:00Z\r\n"
        "p\u20282\td2\t2024-03-01T01:00:00Z\r"
        "p3\td\x853\t2024-03-01T02:00:00Z\n"
    )
    path.write_bytes(text.encode("utf-8"))
    events = parse_mar(path)
    ids = [(events.patients[p], events.drugs[d]) for p, d in zip(events.patient, events.drug)]
    assert ids == [("p1", "d\x0c1"), ("p\u20282", "d2"), ("p3", "d\x853")]
    assert [utc(t).hour for t in events.time.tolist()] == [0, 1, 2]


# Edge cases of the alerts stage, against the files the one-alert-at-a-time encoder of the eight-column format
# wrote for them, with the dates and effects dropped from each row and each pair's effect folded into the report.
# Two catalog rows list their pair out of sorted order, so the display order shows in the files.
CATALOG = "zeta\talpha\tzeta with alpha\nbeta\talpha\tbeta with alpha\ngamma\tzeta\tgamma with zeta\n"
HEADER = "patient_id\tdrug\ttimestamp\n"

# case -> (MAR rows, the alerts section of the config)
MAR_CASES = {
    "header_only": ([], {}),
    "single_row": (["p1\talpha\t2024-03-01T08:00:00Z"], {}),
    "one_drug_many_times": (
        [f"p1\talpha\t2024-03-0{d}T{h:02d}:00:00Z" for d, h in [(1, 0), (1, 6), (2, 6), (3, 12), (5, 0), (5, 3)]]
        + ["p1\tbeta\t2024-03-01T12:00:00Z"],
        {"window_hours": 6.0, "per_drug_hours": {"beta": 120.0}},
    ),
    "out_of_sorted_order": (
        ["p2\tzeta\t2024-03-01T10:00:00Z", "p10\tgamma\t2024-03-01T09:00:00Z", "p2\talpha\t2024-03-01T12:00:00Z",
         "p10\tzeta\t2024-03-01T08:00:00Z", "p1\tbeta\t2024-03-02T00:00:00Z", "p1\talpha\t2024-03-01T23:00:00Z",
         "p1\tzeta\t2024-03-01T22:00:00Z", "p2\tbeta\t2024-03-01T11:00:00Z"],
        {},
    ),
    "ends_just_after_midnight": (
        ["p1\talpha\t2024-02-29T00:00:00.000001Z", "p1\tbeta\t2024-02-29T06:00:00Z",
         "p2\talpha\t2024-02-29T00:00:00Z", "p2\tbeta\t2024-02-29T06:00:00Z"],
        {},
    ),
    "one_instant_three_ways": (
        ["p1\talpha\t2024-03-01T08:00:00Z", "p1\tbeta\t2024-03-01T08:00:00+00:00",
         "p1\tzeta\t2024-03-01T13:30:00+05:30", "p2\tzeta\t2024-03-01T13:30:00.250000+05:30",
         "p2\tgamma\t2024-03-01T08:00:00.25Z"],
        {"window_hours": 2.5},
    ),
}

# case -> (alerts.tsv, alert_report.txt) body lines
FROZEN = {
    'header_only': (
        [
            'patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso',
        ],
        [
            'pair totals:',
            'total alerts\t0',
        ],
    ),
    'single_row': (
        [
            'patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso',
        ],
        [
            'pair totals:',
            'total alerts\t0',
        ],
    ),
    'one_drug_many_times': (
        [
            'patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso',
            'p1\tbeta\talpha\t2024-03-02T06:00:00+00:00\t2024-03-02T12:00:00+00:00',
            'p1\tbeta\talpha\t2024-03-03T12:00:00+00:00\t2024-03-03T18:00:00+00:00',
            'p1\tbeta\talpha\t2024-03-05T00:00:00+00:00\t2024-03-05T09:00:00+00:00',
        ],
        [
            'pair totals:',
            '  alpha/beta\t3\tbeta with alpha',
            'total alerts\t3',
        ],
    ),
    'out_of_sorted_order': (
        [
            'patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso',
            'p1\tzeta\talpha\t2024-03-01T23:00:00+00:00\t2024-03-02T22:00:00+00:00',
            'p1\tbeta\talpha\t2024-03-02T00:00:00+00:00\t2024-03-02T23:00:00+00:00',
            'p10\tgamma\tzeta\t2024-03-01T09:00:00+00:00\t2024-03-02T08:00:00+00:00',
            'p2\tbeta\talpha\t2024-03-01T12:00:00+00:00\t2024-03-02T11:00:00+00:00',
            'p2\tzeta\talpha\t2024-03-01T12:00:00+00:00\t2024-03-02T10:00:00+00:00',
        ],
        [
            'pair totals:',
            '  alpha/beta\t2\tbeta with alpha',
            '  alpha/zeta\t2\tzeta with alpha',
            '  gamma/zeta\t1\tgamma with zeta',
            'total alerts\t5',
        ],
    ),
    'ends_just_after_midnight': (
        [
            'patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso',
            'p1\tbeta\talpha\t2024-02-29T06:00:00+00:00\t2024-03-01T00:00:00.000001+00:00',
            'p2\tbeta\talpha\t2024-02-29T06:00:00+00:00\t2024-03-01T00:00:00+00:00',
        ],
        [
            'pair totals:',
            '  alpha/beta\t2\tbeta with alpha',
            'total alerts\t2',
        ],
    ),
    'one_instant_three_ways': (
        [
            'patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso',
            'p1\tbeta\talpha\t2024-03-01T08:00:00+00:00\t2024-03-01T10:30:00+00:00',
            'p1\tzeta\talpha\t2024-03-01T08:00:00+00:00\t2024-03-01T10:30:00+00:00',
            'p2\tgamma\tzeta\t2024-03-01T08:00:00.250000+00:00\t2024-03-01T10:30:00.250000+00:00',
        ],
        [
            'pair totals:',
            '  alpha/beta\t1\tbeta with alpha',
            '  alpha/zeta\t1\tzeta with alpha',
            '  gamma/zeta\t1\tgamma with zeta',
            'total alerts\t3',
        ],
    ),
}



@pytest.mark.parametrize("case", list(MAR_CASES))
def test_alert_files_equal_the_frozen_ones(tmp_path, case):
    rows, alerts = MAR_CASES[case]
    assert stage_files(tmp_path, CATALOG, rows, alerts) == FROZEN[case]


def stage_files(root: Path, catalog: str, mar_rows: list[str], alerts: dict) -> tuple[list[str], list[str]]:
    """The body lines of ``alerts.tsv`` and ``alert_report.txt`` as the ``alerts`` stage writes them in ``root``."""
    (root / "catalog.tsv").write_text(catalog, encoding="utf-8")
    (root / "mar.tsv").write_text(HEADER + "".join(f"{row}\n" for row in mar_rows), encoding="utf-8")
    paths = {name: str(root / f"{name}.tsv") for name in ("catalog", "mar", "corpus", "lexicon")}
    config = root / "config.json"
    config.write_text(json.dumps({"paths": {**paths, "output": str(root / "out")}, "alerts": alerts}))
    run_stage(load_config(config), "alerts")
    return tuple(read_body(root / "out" / name)[0] for name in ("alerts.tsv", "alert_report.txt"))


def check_written_files(root: Path, events, catalog_rows, default_hours: float, per_drug_hours) -> None:
    """The files the stage writes for ``events``, each time written in its own zone, read back against the
    oracles: the rows against the exact intervals, the report against the rows and the catalog."""
    mar_rows = [f"{patient}\t{drug}\t{time.isoformat()}" for patient, drug, time in events]
    catalog = InteractionCatalog(catalog_rows)
    tsv, report = stage_files(root, "".join(map("{}\t{}\t{}\n".format, *zip(*catalog_rows))) if catalog_rows else "",
                              mar_rows, {"window_hours": default_hours, "per_drug_hours": per_drug_hours})
    assert tsv[0] == "patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso"
    rows = [line.split("\t") for line in tsv[1:]]
    found: dict[tuple, list] = {}
    for patient, drug_a, drug_b, start, end in rows:
        assert (drug_a, drug_b) == catalog.display(drug_a, drug_b)
        assert start.endswith("+00:00") and end.endswith("+00:00")
        found.setdefault((patient, pair_key(drug_a, drug_b)), []).append(
            (datetime.fromisoformat(start), datetime.fromisoformat(end)))
    pairs = {pair_key(a, b) for a, b in catalog.pairs()}
    assert found == exact_alert_oracle(events, default_hours, per_drug_hours, pairs)
    order = [(patient, datetime.fromisoformat(start), a, b) for patient, a, b, start, _ in rows]
    assert order == sorted(order)
    counts = Counter(pair_key(a, b) for _, a, b, _, _ in rows)
    assert report == ["pair totals:", *(f"  {a}/{b}\t{n}\t{catalog.description(a, b)}" for (a, b), n in
                                        sorted(counts.items())), f"total alerts\t{len(rows)}"]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_written_files_read_back_equal_the_exact_oracle(seed):
    rng = random.Random(seed)
    default_hours = rng.choice(LENGTHS)
    per_drug_hours = {d: rng.choice(LENGTHS) for d in rng.sample(DRUGS, rng.randint(0, 3))}
    events = []
    for _ in range(rng.randint(0, 30)):
        offset = rng.choice([timedelta(minutes=rng.randint(0, 59)), timedelta(microseconds=rng.randrange(10**10))])
        base = rng.choice(events)[2] if events and rng.random() < 0.3 else T0 + timedelta(hours=rng.randint(0, 12))
        events.append((f"p{rng.randint(0, 2)}", rng.choice(DRUGS), (base + offset).astimezone(rng.choice(ZONES))))
    catalog_rows = [(a, b, f"{a} with {b}") if rng.random() < 0.5 else (b, a, f"{b} with {a}")
                    for a, b in rng.sample(PAIRS, rng.randint(0, len(PAIRS)))]
    with tempfile.TemporaryDirectory() as root:
        check_written_files(Path(root), events, catalog_rows, default_hours, per_drug_hours)


def test_written_files_of_an_empty_mar_read_back_equal_the_oracle(tmp_path):
    check_written_files(tmp_path, [], [("d0", "d1", "d0 with d1")], 24.0, {})


def test_traced_alerts_record_each_layer_and_count_every_alert(tmp_path):
    """``bench/run.py --trace 1`` reads these spans and this count; a rename would read as 0."""
    paths = write_dataset(SynthParams(seed=7), tmp_path / "data")
    bench = Path(__file__).resolve().parents[1] / "bench"
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); from spans import Tracer; "
        "from ddimine.config import load_config; from ddimine.pipeline import run_stage; "
        "tracer = Tracer(); tracer.install(); run_stage(load_config(sys.argv[2]), 'alerts'); "
        "print(json.dumps(tracer.summary()))"
    )
    src = str(Path(ddimine.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, str(bench), str(paths["config"])],
                          capture_output=True, text=True, env={"PYTHONPATH": src}, check=True)
    summary = json.loads(done.stdout)
    for layer in ("parse_mar", "build_exposures", "detect_overlaps"):
        assert summary["stats"][f"mar_alerts.{layer}"]["calls"] == 1
    body = read_body(load_config(paths["config"]).output / "alerts.tsv")[0]
    assert summary["counts"]["mar_alerts.alerts"] == len(body) - 1 > 0  # less the column line
