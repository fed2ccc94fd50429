"""Co-exposure alerts against the hour-by-hour oracle."""

import random
from datetime import datetime, timedelta, timezone

from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine.labeling import InteractionCatalog, pair_key
from ddimine.mar_alerts import AdminEvent, ExposureInterval, build_exposures, detect_overlaps
from helpers import alert_hours, hourly_alert_oracle

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

    alerts = detect_overlaps(build_exposures(events, default_hours, per_drug_hours), catalog)
    # the oracle sees each administration's own window, unmerged
    windows = [
        ExposureInterval(ev.patient_id, ev.drug, ev.time,
                         ev.time + timedelta(hours=per_drug_hours.get(ev.drug, default_hours)))
        for ev in events
    ]
    assert alert_hours(alerts) == hourly_alert_oracle(windows, catalog)

    by_pair: dict[tuple, list] = {}
    for al in alerts:
        assert (al.drug_a, al.drug_b) == catalog.display(al.drug_a, al.drug_b)
        assert al.effect == catalog.description(al.drug_a, al.drug_b)
        by_pair.setdefault((al.patient_id, pair_key(al.drug_a, al.drug_b)), []).append(al)
    for group in by_pair.values():  # touching windows of one pair are merged
        assert all(prev.end < nxt.start for prev, nxt in zip(group, group[1:]))
    assert alerts == sorted(alerts, key=lambda al: (al.patient_id, al.start, al.drug_a, al.drug_b))
