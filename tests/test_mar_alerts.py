"""Co-exposure alerts against the hour-by-hour oracle; MAR parsing and alert rendering."""

import random
import re
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine import mar_alerts
from ddimine.errors import ValidationError
from ddimine.labeling import InteractionCatalog, pair_key
from ddimine.mar_alerts import (
    AdminEvent,
    DdiAlert,
    build_exposures,
    detect_overlaps,
    encode_alerts,
    parse_mar,
    parse_timestamp,
)
from helpers import alert_files_oracle, alert_hours, hourly_alert_oracle

T0 = datetime(2024, 3, 1, tzinfo=timezone.utc)
DRUGS = [f"d{i}" for i in range(5)]


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_alerts_cover_exactly_the_oracle_hours(seed):
    rng = random.Random(seed)
    default_hours = rng.randint(1, 30)
    per_drug_hours = {d: float(rng.randint(1, 30)) for d in rng.sample(DRUGS, rng.randint(0, 3))}
    events = [
        AdminEvent(f"p{rng.randint(0, 2)}", rng.choice(DRUGS), T0 + timedelta(hours=rng.randint(0, 96)))
        for _ in range(rng.randint(0, 40))
    ]
    pairs = [(a, b) for i, a in enumerate(DRUGS) for b in DRUGS[i + 1 :]]
    rows = [(a, b, f"{a} with {b}") if rng.random() < 0.5 else (b, a, f"{b} with {a}")
            for a, b in rng.sample(pairs, rng.randint(0, len(pairs)))]
    catalog = InteractionCatalog(rows)

    windows = build_exposures(events, default_hours, per_drug_hours)
    alerts = detect_overlaps(windows, catalog)
    # the oracle sees each administration's own window, unmerged
    unmerged = [
        (ev.patient_id, ev.drug, ev.time,
         ev.time + timedelta(hours=per_drug_hours.get(ev.drug, default_hours)))
        for ev in events
    ]
    assert alert_hours(alerts) == hourly_alert_oracle(unmerged, catalog)
    merged = [(patient, drug, *w) for patient, drugs in windows.items()
              for drug, ws in drugs.items() for w in ws]
    assert hourly_alert_oracle(merged, catalog) == hourly_alert_oracle(unmerged, catalog)
    assert {(ev.patient_id, ev.drug) for ev in events} == {(p, d) for p, d, *_ in merged}
    for drugs in windows.values():  # each drug's windows: sorted, with gaps between them
        for ws in drugs.values():
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


def test_repeated_timestamps_parse_alike_and_errors_name_their_own_line(tmp_path):
    stamps = ["2024-03-01T08:30:00Z", "2024-03-01T08:30:00", "2024-03-01T10:30:00+02:00"]
    path = tmp_path / "mar.tsv"
    rows = [f"p{i % 2}\td{i % 3}\t{stamps[i % 3]}" for i in range(9)]
    path.write_text("\n".join(["patient_id\tdrug\ttimestamp", *rows]) + "\n", encoding="utf-8")
    events = parse_mar(path)
    assert [ev.time for ev in events] == [datetime(2024, 3, 1, 8, 30, tzinfo=timezone.utc)] * 9
    assert all(ev.time.utcoffset() == timedelta(0) for ev in events)

    bad = "2024-03-01T08:30:00+99:00"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"p1\td1\t{stamps[0]}\np1\td1\t{bad}\np1\td2\t{bad}\n")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:12: bad timestamp {bad!r}")):
        parse_mar(path)


def test_mar_with_more_distinct_times_than_the_lookup_holds(tmp_path, monkeypatch):
    monkeypatch.setattr(mar_alerts, "_MAX_PARSED", 2)
    stamps = [f"2024-03-01T0{h}:15:00Z" for h in range(5)]
    order = stamps + stamps[::-1] + stamps[::2]
    path = tmp_path / "mar.tsv"
    path.write_text("\n".join(["patient_id\tdrug\ttimestamp", *(f"p\td\t{s}" for s in order)]) + "\n",
                    encoding="utf-8")
    assert [ev.time for ev in parse_mar(path)] == [parse_timestamp(s) for s in order]


@pytest.mark.parametrize("hours", [0, -1, 1e-12, 1e12, float("nan")])
def test_window_length_outside_the_range_rejected(hours):
    events = [AdminEvent("p", "d0", T0)]
    with pytest.raises(ValidationError, match="exposure window must be a number of hours from 1 microsecond"):
        build_exposures(events, hours)
    with pytest.raises(ValidationError, match="exposure window must be a number of hours from 1 microsecond"):
        build_exposures(events, 24.0, {"d0": hours})


def test_mar_without_header_rejected(tmp_path):
    path = tmp_path / "mar.tsv"
    path.write_text("p1\td1\t2024-03-01T00:00:00Z\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="missing MAR header"):
        parse_mar(path)


def test_bad_mar_row_names_its_line(tmp_path):
    path = tmp_path / "mar.tsv"
    path.write_text("patient_id\tdrug\ttimestamp\np1\td1\t2024-03-01T00:00:00Z\n\np1\td2\tnoon\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape(f"{path}:4: bad timestamp")):
        parse_mar(path)


def test_window_ending_at_midnight_ends_the_day_before():
    alert = DdiAlert("a", "b", T0 + timedelta(hours=6), T0 + timedelta(days=1), "effect", "p1")
    _, _, body = encode_alerts([alert])["alerts.tsv"]
    row = "".join(body).splitlines()[1].split("\t")
    assert row[3:5] == ["2024-03-01", "2024-03-01"]
    assert row[7] == "2024-03-02T00:00:00+00:00"


@pytest.mark.parametrize("after_midnight", [timedelta(microseconds=1), timedelta(milliseconds=500)])
def test_window_ending_just_after_midnight_ends_that_day(after_midnight):
    end = T0 + timedelta(days=1) + after_midnight
    alert = DdiAlert("a", "b", T0 + timedelta(hours=6), end, "effect", "p1")
    encoded = encode_alerts([alert])
    row = "".join(encoded["alerts.tsv"][2]).splitlines()[1].split("\t")
    assert row[3:5] == ["2024-03-01", "2024-03-02"]
    assert '("2024-03-01", "2024-03-02")' in "".join(encoded["alert_report.txt"][2])


# instants around midnight, where the end date turns, plus any microsecond of three days;
# UTC or two other zones, so one instant can come in two zones, each written in its own
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
    alerts = []
    for _ in range(data.draw(st.integers(0, 12))):
        start, end = sorted(data.draw(st.lists(INSTANTS, min_size=2, max_size=2, unique=True)))
        drug_a, drug_b = data.draw(st.lists(st.sampled_from(DRUGS), min_size=2, max_size=2, unique=True))
        patient = data.draw(st.sampled_from(["p0", "p1", "p2"]))
        alerts.append(DdiAlert(drug_a, drug_b, start, end, f"{drug_a} with {drug_b}", patient))
    alerts.sort(key=lambda al: (al.patient_id, al.start, al.drug_a, al.drug_b))  # detect_overlaps order
    encoded = encode_alerts(alerts)
    assert {name: "".join(body) for name, (_, _, body) in encoded.items()} == alert_files_oracle(alerts)


def test_report_totals_per_pair_and_overall():
    window = (T0, T0 + timedelta(hours=1))
    alerts = [
        DdiAlert("b", "a", *window, "e", "p1"),
        DdiAlert("c", "d", *window, "e", "p1"),
        DdiAlert("a", "b", *window, "e", "p2"),
    ]
    lines = "".join(encode_alerts(alerts)["alert_report.txt"][2]).splitlines()
    totals = lines[lines.index("pair totals:") + 1:]
    assert totals == ["  a/b\t2", "  c/d\t1", "total alerts\t3"]
    assert lines[0] == "patient p1:" and "patient p2:" in lines


def test_alert_files_stream_and_report_no_alerts():
    encoded = encode_alerts([])
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
    assert [(ev.patient_id, ev.drug) for ev in events] == [("p1", "d\x0c1"), ("p\u20282", "d2"), ("p3", "d\x853")]
    assert [ev.time.hour for ev in events] == [0, 1, 2]
