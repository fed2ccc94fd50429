"""Independent oracles and small builders shared across the test modules.

Each oracle is a deliberately naive re-statement of a contract (brute force,
full enumeration, hour-by-hour scan) kept separate from the implementation
path it checks.
"""

from __future__ import annotations

import io
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Collection, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp

from ddimine import artifacts
from ddimine.corpus import AbstractColumns, CorpusStats
from ddimine.errors import ValidationError
from ddimine.features import FeatureMatrix, Vocabulary, build_vocab
from ddimine.labeling import PLACEHOLDER, InteractionSample, pair_key
from ddimine.learn import loss_gradient, loss_value
from ddimine.mar_alerts import Administrations, Alerts
from ddimine.pipeline import file_digest
from ddimine.rng import Rng
from ddimine.splitting import SPLITS, LeakageReport


class KeptAbstract(NamedTuple):
    """An abstract as a test states it: its id, its tokens, and the drugs it mentions."""

    id: str
    tokens: tuple[str, ...]
    drug_mentions: frozenset[str]


def bag(rows: Sequence[Collection[str]]) -> tuple[list[str], sp.csr_matrix]:
    """The sorted distinct strings of ``rows``, and how often each row holds each: a canonical CSR over them."""
    labels = sorted(set().union(*rows))
    column = {label: j for j, label in enumerate(labels)}
    cells = np.array([column[label] for row in rows for label in row], dtype=np.int64)
    indptr = np.cumsum([0, *map(len, rows)])
    counts = sp.csr_matrix((np.ones(len(cells), dtype=np.int64), cells, indptr), shape=(len(rows), len(labels)))
    counts.sum_duplicates()
    return labels, counts


def corpus_of(abstracts: Sequence[KeptAbstract]) -> AbstractColumns:
    """The kept corpus of ``abstracts`` as stated, in order: the one builder of a corpus with chosen mentions."""
    drugs, mentions = bag([ab.drug_mentions for ab in abstracts])
    words, counts = bag([ab.tokens for ab in abstracts])
    return AbstractColumns([ab.id for ab in abstracts], drugs, mentions, words, counts)


def save(path, encoded: artifacts.Encoded, header: dict[str, str] | None = None) -> None:
    """Write what an ``encode_*`` function returns, as ``run_stage`` does, with ``header`` first."""
    kind, fields, body = encoded
    artifacts.write(path, kind, {**(header or {}), **fields}, body)


def load_vocab(path) -> Vocabulary:
    """Inverse of ``features.encode_vocab``; no stage reads ``vocab.tsv``."""
    lines, _ = artifacts.read(path)
    words = [(tok, int(freq)) for tok, _, freq in (line.partition("\t") for line in lines)]
    return Vocabulary(words, {tok: col for col, (tok, _) in enumerate(words)})


def artifact_digests(output_dir) -> dict[str, str]:
    """Content digests of every artifact file; manifests are excluded."""
    out = Path(output_dir)
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and "manifests" not in path.parts:
            digests[str(path.relative_to(out))] = file_digest(path)
    return digests


def auc_pair_oracle(scores, labels) -> float:
    """Pairwise-count AUC: P(random positive outscores random negative), ties 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    assert pos and neg, "oracle needs both classes"
    wins = 0.0
    for sp_ in pos:
        for sn in neg:
            if sp_ > sn:
                wins += 1.0
            elif sp_ == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def match_oracle(tokens, lexicon) -> set[str]:
    """O(tokens * phrases * maxlen) subsequence scan over every phrase."""
    found = set()
    for drug_id, phrases in lexicon.phrases.items():
        for phrase in phrases:
            L = len(phrase)
            for i in range(len(tokens) - L + 1):
                if tuple(tokens[i : i + L]) == phrase:
                    found.add(drug_id)
                    break
    return found


class NamedSplit(NamedTuple):
    """A split by name: abstract id -> split name, sample key -> split name."""

    abstract_split: dict[str, str]
    sample_split: dict[str, str]


def named(split, abstract_ids, samples) -> NamedSplit:
    """Row codes (``splitting.split_corpus``'s pair) as a :class:`NamedSplit`, for the name-based oracles."""
    return NamedSplit({aid: SPLITS[code] for aid, code in zip(abstract_ids, split[0].tolist(), strict=True)},
                      {s.key: SPLITS[code] for s, code in zip(samples, split[1].tolist(), strict=True)})


def partition_oracle(keys, ratios, rng: Rng) -> dict[str, str]:
    """Key -> split name: the keys themselves shuffled, train taking the ceiling of its share, then dev, test the
    rest."""
    order = list(keys)
    rng.shuffle(order)
    n = len(order)
    n_train = min(n, math.ceil(ratios[0] * n - 1e-9))
    n_dev = min(n - n_train, math.ceil(ratios[1] * n - 1e-9))
    train, dev, test = order[:n_train], order[n_train : n_train + n_dev], order[n_train + n_dev :]
    return {**dict.fromkeys(train, "train"), **dict.fromkeys(dev, "dev"), **dict.fromkeys(test, "test")}


def split_oracle(abstract_ids, sample_keys, ratios, seed: int) -> NamedSplit:
    """The split keyed by name: the abstracts on stream 11 of the seed's generator, the samples on stream 12."""
    root = Rng(seed)
    return NamedSplit(partition_oracle(abstract_ids, ratios, root.derive(11)),
                      partition_oracle(sample_keys, ratios, root.derive(12)))


def assignment_oracle(split: NamedSplit, seed: int, ratios) -> artifacts.Encoded:
    """``assignment.tsv`` from a split keyed by name: each kind's keys sorted, with their split names."""
    kinds = (("abstract", split.abstract_split), ("sample", split.sample_split))
    body = "".join(f"{kind}\t{key}\t{names[key]}\n" for kind, names in kinds for key in sorted(names))
    return "split-assignment", {"seed": seed, "ratios": " ".join(map(repr, ratios))}, body


def alg1_assign_oracle(assignment, abstracts, samples) -> list[set[str]]:
    """Literal triple-loop transcription of the split-then-assign procedure."""
    out = []
    for s in samples:
        ids = set()
        for ab in abstracts:
            if assignment.sample_split[s.key] != assignment.abstract_split[ab.id]:
                continue
            if s.cardiac_drug in ab.drug_mentions or s.other_drug in ab.drug_mentions:
                ids.add(ab.id)
        out.append(ids)
    return out


@dataclass(frozen=True)
class AttachedSample(InteractionSample):
    """A sample with the ids of its abstracts, as ``assigned_samples.tsv`` lists them."""

    abstract_ids: frozenset[str] = frozenset()


def incidence_of(samples, abstracts_by_id) -> tuple[sp.csr_matrix, sp.csr_matrix, list[str]]:
    """The incidence of :class:`AttachedSample` rows, and the word counts behind its columns, their ids sorted, over
    the sorted words: ``build_count_matrix``'s A, counts and words."""
    ids = sorted({aid for s in samples for aid in s.abstract_ids})
    column = {aid: j for j, aid in enumerate(ids)}
    indices: list[int] = []
    indptr = [0]
    for s in samples:
        for aid in sorted(s.abstract_ids):
            if aid not in abstracts_by_id:
                raise ValidationError(f"sample {s.key!r} references unknown abstract {aid!r}")
            indices.append(column[aid])
        indptr.append(len(indices))
    A = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(samples), len(ids)))
    words, counts = bag([abstracts_by_id[aid].tokens for aid in ids])
    return A, counts, words


def vocab_of(token_lists, top_k: int | None = None, stopwords=frozenset()) -> Vocabulary:
    """``build_vocab`` over the word counts of ``token_lists``."""
    words, counts = bag(list(token_lists))
    return build_vocab(counts, words, top_k, stopwords)


def vocab_oracle(token_lists, top_k: int | None = None, stopwords=frozenset()) -> Vocabulary:
    """Token occurrences counted one by one; by count, descending, ties lexicographic; the top k."""
    counts: Counter[str] = Counter()
    for tokens in token_lists:
        counts.update(tok for tok in tokens if tok not in stopwords)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return Vocabulary(ordered, {tok: col for col, (tok, _) in enumerate(ordered)})


def corpus_stats_oracle(abstracts) -> CorpusStats:
    """The statistics of tokenized abstracts by a loop over each one's token list and mention set."""
    n = len(abstracts)
    if n == 0:
        return CorpusStats(0, 0.0, 0, 0.0, 0.0, 0)
    total_tokens, distinct_per_abstract, vocab = 0, 0, set()
    for ab in abstracts:
        distinct = set(ab.tokens)
        total_tokens += len(ab.tokens)
        distinct_per_abstract += len(distinct)
        vocab |= distinct
    drugs = [len(ab.drug_mentions) for ab in abstracts]
    return CorpusStats(
        n_abstracts=n,
        avg_drugs_per_abstract=sum(drugs) / n,
        max_drugs_per_abstract=max(drugs),
        avg_words_per_abstract=total_tokens / n,
        avg_count_per_word=(total_tokens / distinct_per_abstract) if distinct_per_abstract else 0.0,
        n_distinct_words=len(vocab),
    )


def same_corpus(a: AbstractColumns, b: AbstractColumns) -> bool:
    """Equal ids, drug and word lists, and equal mention and count cells, in the same order."""
    return (a.ids, a.drugs, a.words) == (b.ids, b.drugs, b.words) and all(
        x.shape == y.shape and np.array_equal(x.indptr, y.indptr) and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data) for x, y in ((a.mentions, b.mentions), (a.counts, b.counts))
    )


def load_corpus_oracle(path) -> tuple[list[KeptAbstract], dict[str, str]]:
    """A kept corpus decoded here: the ``#`` lines as the header, then its eight ``npy`` records read one by one.

    Each abstract comes back with its words in sorted order, each repeated as often as it counts.
    """
    raw = Path(path).read_bytes()
    meta: dict[str, str] = {}
    raw = raw.partition(b"\n")[2]  # the kind line
    while raw.startswith(b"# "):
        line, _, raw = raw.partition(b"\n")
        key, _, val = line.decode("utf-8")[2:].partition(": ")
        meta[key] = val
    assert meta.pop("body") == "npy"
    body = io.BytesIO(raw)
    ids, drugs, mention_ptr, mention_cols, words, word_ptr, word_cols, counts = (
        np.lib.format.read_array(body, allow_pickle=False).tolist() for _ in range(8)
    )
    assert body.read() == b""
    ids, drugs, words = (bytes(blob).decode("utf-8").split("\n") if blob else [] for blob in (ids, drugs, words))
    abstracts = []
    for i, aid in enumerate(ids):
        mentions = frozenset(drugs[j] for j in mention_cols[mention_ptr[i] : mention_ptr[i + 1]])
        cells = range(word_ptr[i], word_ptr[i + 1])
        abstracts.append(KeptAbstract(aid, tuple(words[word_cols[k]] for k in cells for _ in range(counts[k])),
                                      mentions))
    return abstracts, meta


def leakage_oracle(assignment, samples, attached) -> LeakageReport:
    """Leakage counts by loops over each sample's set of abstract ids (``attached``, aligned with ``samples``)."""
    used_in: dict[str, set[str]] = {}
    empty = {split: 0 for split in SPLITS}
    sample_counts = {split: 0 for split in SPLITS}
    for s, ids in zip(samples, attached):
        split = assignment.sample_split[s.key]
        sample_counts[split] += 1
        if not ids:
            empty[split] += 1
        for aid in ids:
            used_in.setdefault(aid, set()).add(split)
    shared = {}
    for i, a in enumerate(SPLITS):
        for b in SPLITS[i + 1 :]:
            shared[(a, b)] = sum(1 for splits in used_in.values() if a in splits and b in splits)
    abstract_counts = {split: 0 for split in SPLITS}
    for split in assignment.abstract_split.values():
        abstract_counts[split] += 1
    return LeakageReport(shared, empty, sample_counts, abstract_counts)


EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)


def micros(t: datetime) -> int:
    """An aware ``datetime`` as microseconds since the epoch."""
    return (t - EPOCH) // MICROSECOND


def utc(us: int) -> datetime:
    return EPOCH + us * MICROSECOND


def administrations(events) -> Administrations:
    """``parse_mar`` output for (patient, drug, aware datetime) rows, built without reading a file."""
    patients, drugs = sorted({ev[0] for ev in events}), sorted({ev[1] for ev in events})
    return Administrations(
        patients, drugs,
        np.array([patients.index(ev[0]) for ev in events], dtype=np.int64),
        np.array([drugs.index(ev[1]) for ev in events], dtype=np.int64),
        np.array([micros(ev[2]) for ev in events], dtype=np.int64),
    )


def make_alerts(rows) -> Alerts:
    """``detect_overlaps`` output for (drug_a, drug_b, start, end, effect, patient) rows, times aware.

    As in a catalog, each pair has one display order and one effect.
    """
    drug_a, drug_b, start, end, effect, patient = (list(column) for column in zip(*rows)) if rows else [[]] * 6
    shown = {pair_key(a, b): (a, b, e) for a, b, e in zip(drug_a, drug_b, effect)}
    assert len(shown) == len(set(zip(drug_a, drug_b, effect))), "a pair shown two ways"
    table = sorted(shown)  # by sorted names, as the codes of sorted names order
    patients, drugs = sorted(set(patient)), sorted({*drug_a, *drug_b})
    codes = [[drugs.index(shown[pair][0]), drugs.index(shown[pair][1])] for pair in table]
    return Alerts(patients, drugs, np.array(codes, dtype=np.int64).reshape(-1, 2), [shown[pair][2] for pair in table],
                  np.array([patients.index(p) for p in patient], dtype=np.int64),
                  np.array([table.index(pair_key(a, b)) for a, b in zip(drug_a, drug_b)], dtype=np.int64),
                  np.array([micros(t) for t in start], dtype=np.int64),
                  np.array([micros(t) for t in end], dtype=np.int64))


class AlertRow(NamedTuple):
    drug_a: str
    drug_b: str
    start: datetime
    end: datetime
    effect: str
    patient_id: str


def alert_rows(alerts: Alerts) -> list[AlertRow]:
    """One row per alert, times as UTC ``datetime``s."""
    shown = alerts.pairs[alerts.pair].tolist()
    columns = ([alerts.drugs[a] for a, _ in shown], [alerts.drugs[b] for _, b in shown],
               map(utc, alerts.start.tolist()), map(utc, alerts.end.tolist()),
               [alerts.effects[row] for row in alerts.pair.tolist()],
               [alerts.patients[p] for p in alerts.patient.tolist()])
    return list(map(AlertRow, *columns))


def exact_alert_oracle(events, default_hours: float, per_drug_hours, pairs) -> dict[tuple, list]:
    """Per patient and interacting pair, the union of the intersections of each administration's own window.

    ``events`` are (patient, drug, aware datetime); each opens ``[t, t + W)``,
    with ``W = timedelta(hours=...)`` for its drug.  ``pairs`` holds the
    interacting pairs, each sorted.  The union is given as sorted [start, end)
    intervals, with touching ones joined.
    """
    result = {}
    for i, (patient, a, ta) in enumerate(events):
        for patient_b, b, tb in events[i + 1:]:
            pair = tuple(sorted((a, b)))
            if patient_b != patient or pair not in pairs:
                continue
            start = max(ta, tb)
            end = min(ta + timedelta(hours=per_drug_hours.get(a, default_hours)),
                      tb + timedelta(hours=per_drug_hours.get(b, default_hours)))
            if start < end:
                result.setdefault((patient, pair), []).append((start, end))
    for key, parts in result.items():
        union = []
        for start, end in sorted(parts):
            if union and start <= union[-1][1]:
                union[-1] = (union[-1][0], max(union[-1][1], end))
            else:
                union.append((start, end))
        result[key] = union
    return result


def hourly_alert_oracle(exposures, catalog) -> dict[tuple[str, tuple[str, str]], set]:
    """Hour-by-hour scan: hours where both drugs of a catalog pair are active.

    ``exposures`` holds (patient, drug, start, end) windows, half-open; valid
    when all their endpoints are whole hours.
    """
    active: dict[tuple[str, str], set] = {}
    for patient, drug, start, end in exposures:
        hours = active.setdefault((patient, drug), set())
        t = start
        while t < end:
            hours.add(t)
            t += timedelta(hours=1)
    by_patient: dict[str, list[str]] = {}
    for patient, drug in active:
        by_patient.setdefault(patient, []).append(drug)
    result: dict[tuple[str, tuple[str, str]], set] = {}
    for patient, drugs in by_patient.items():
        drugs = sorted(set(drugs))
        for i, a in enumerate(drugs):
            for b in drugs[i + 1 :]:
                if (a, b) not in catalog:
                    continue
                both = active[(patient, a)] & active[(patient, b)]
                if both:
                    result[(patient, (a, b))] = both
    return result


def alert_hours(alerts) -> dict[tuple[str, tuple[str, str]], set]:
    """Hours covered by alert windows, keyed like the hourly oracle."""
    result: dict[tuple[str, tuple[str, str]], set] = {}
    for al in alerts:
        key = (al.patient_id, pair_key(al.drug_a, al.drug_b))
        hours = result.setdefault(key, set())
        t = al.start
        while t < al.end:
            hours.add(t)
            t += timedelta(hours=1)
    return result


def alert_files_oracle(alerts) -> dict[str, str]:
    """``alerts.tsv`` and ``alert_report.txt`` bodies, each alert formatted on its own.

    ``alerts`` are in report order, with aware times, each written in its own
    zone.  The report counts each pair's alerts, by sorted names, and gives
    the pair's effect.
    """

    def iso(t):
        fraction = f".{t.microsecond:06d}" if t.microsecond else ""
        minutes = t.utcoffset() // timedelta(minutes=1)
        sign = "-" if minutes < 0 else "+"
        return f"{t:%Y-%m-%dT%H:%M:%S}{fraction}{sign}{abs(minutes) // 60:02d}:{abs(minutes) % 60:02d}"

    tsv = ["patient_id\tdrug_a\tdrug_b\tstart_iso\tend_iso\n"]
    totals: dict[tuple[str, str], list] = {}
    for al in alerts:
        tsv.append("\t".join([al.patient_id, al.drug_a, al.drug_b, iso(al.start), iso(al.end)]) + "\n")
        totals.setdefault(tuple(sorted((al.drug_a, al.drug_b))), [0, al.effect])[0] += 1
    report = ["pair totals:\n"]
    report += [f"  {a}/{b}\t{count}\t{effect}\n" for (a, b), (count, effect) in sorted(totals.items())]
    report.append(f"total alerts\t{len(alerts)}\n")
    return {"alerts.tsv": "".join(tsv), "alert_report.txt": "".join(report)}


def full_rows(keys, X, y, kind: str = "counts") -> FeatureMatrix:
    """A feature matrix from rows given in full: the rows are its parts, and A is the identity."""
    A = sp.identity(len(keys), format="csr")
    return FeatureMatrix(list(keys), X, np.asarray(y, dtype=np.int64), kind, A)


def dense_matrix(X, y, kind: str = "counts") -> FeatureMatrix:
    X = np.asarray(X, dtype=float)
    return full_rows([f"s{i:04d}" for i in range(X.shape[0])], X, y, kind)


def random_dense_matrix(rng: random.Random, n: int, d: int) -> FeatureMatrix:
    X = np.array([[rng.gauss(0.0, 1.0) for _ in range(d)] for _ in range(n)])
    y = np.array([rng.randint(0, 1) for _ in range(n)], dtype=np.int64)
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == n:
        y[0] = 0
    return dense_matrix(X, y)


def gradient_check(
    loss: str, X, y: np.ndarray, w: np.ndarray, b: float, step: float = 1e-5
) -> float:
    """Max relative error, analytic vs central-difference gradients.

    Checks every weight coordinate and the bias on the unpenalized objective;
    ``loss_gradient`` has logistic loss only.
    """
    y = np.asarray(y, dtype=float)
    s = X @ w + b
    gw, gb = loss_gradient(loss, X, y, s)
    gw = np.asarray(gw).ravel()
    worst = 0.0

    def value(w_probe: np.ndarray, b_probe: float) -> float:
        return loss_value(loss, X @ w_probe + b_probe, y)

    for j in range(len(w)):
        w_plus = w.copy()
        w_plus[j] += step
        w_minus = w.copy()
        w_minus[j] -= step
        fd = (value(w_plus, b) - value(w_minus, b)) / (2.0 * step)
        worst = max(worst, _relative_error(gw[j], fd))
    fd_b = (value(w, b + step) - value(w, b - step)) / (2.0 * step)
    return max(worst, _relative_error(gb, fd_b))


def _relative_error(a: float, b: float) -> float:
    denom = max(abs(a), abs(b))
    if denom < 1e-6:
        return abs(a - b)  # absolute scale for near-zero gradients
    return abs(a - b) / denom


def l1_kkt_residual(X, y, w, b: float, lam: float) -> float:
    """Largest violation of the L1-logistic optimality conditions, bias included.

    Off zero a weight needs g_j = -lam*sign(w_j); at zero it needs |g_j| <= lam;
    the unpenalized bias needs a zero derivative.
    """
    X = X.toarray() if hasattr(X, "toarray") else np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    s = X @ w + b
    r = (0.5 * (1.0 + np.tanh(0.5 * s)) - y) / len(y)
    g = X.T @ r
    viol = np.where(w != 0, np.abs(g + lam * np.sign(w)), np.maximum(np.abs(g) - lam, 0.0))
    return float(max(viol.max(), abs(r.sum())))


def l1_objective(loss: str, X, y, w, b: float, lam: float) -> float:
    """Mean loss plus lam*||w||_1, written out from the definitions."""
    X = X.toarray() if hasattr(X, "toarray") else np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    s = X @ w + b
    if loss == "logistic":
        data = np.logaddexp(0.0, s) - y * s
    else:
        data = np.maximum(0.0, 1.0 - (2.0 * y - 1.0) * s)
    return float(data.mean() + lam * np.abs(w).sum())


def l1_logistic_reference(X, y, lam: float, tol: float = 1e-8) -> tuple[np.ndarray, float, float]:
    """(w, b, objective) of L1 logistic regression by L-BFGS-B on w = u - v, u, v >= 0.

    The split turns the penalty into a smooth linear term under bound
    constraints.  L-BFGS-B can stop on its relative-reduction test, so it
    restarts from where it stopped until ``l1_kkt_residual`` certifies the
    point to ``tol``, an absolute bound: its objective-based line search
    cannot resolve much below 1e-9.
    """
    from scipy.optimize import minimize

    X = X.toarray() if hasattr(X, "toarray") else np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape

    def f(z):
        s = X @ (z[:d] - z[d : 2 * d]) + z[-1]
        r = (0.5 * (1.0 + np.tanh(0.5 * s)) - y) / n
        g = X.T @ r
        value = (np.logaddexp(0.0, s) - y * s).mean() + lam * z[: 2 * d].sum()
        return value, np.concatenate([g + lam, lam - g, [r.sum()]])

    z = np.zeros(2 * d + 1)
    bounds = [(0.0, None)] * (2 * d) + [(None, None)]
    for _ in range(10):
        z = minimize(f, z, jac=True, method="L-BFGS-B", bounds=bounds,
                     options={"maxiter": 20_000, "ftol": 1e-15, "gtol": 1e-12}).x
        w, b = z[:d] - z[d : 2 * d], float(z[-1])
        if l1_kkt_residual(X, y, w, b, lam) <= tol:
            break
    else:
        raise AssertionError("L-BFGS-B reference did not certify its optimum")
    return w, b, l1_objective("logistic", X, y, w, b, lam)


def l1_svm_reference(X, y, lam: float) -> float:
    """Optimal L1-SVM objective from a linear program with weight bounds |w_j| <= t_j.

    Variables [w, t, b, xi]: minimise lam*sum(t) + mean(xi) subject to
    -t <= w <= t and xi_i >= 1 - y_i (x_i.w + b), xi >= 0.
    """
    from scipy.optimize import linprog

    X = X.toarray() if hasattr(X, "toarray") else np.asarray(X, dtype=float)
    n, d = X.shape
    ysign = 2.0 * np.asarray(y, dtype=float) - 1.0
    eye_d, zeros_d = np.eye(d), np.zeros((d, 1 + n))
    rows = [
        np.hstack([eye_d, -eye_d, zeros_d]),  # w - t <= 0
        np.hstack([-eye_d, -eye_d, zeros_d]),  # -w - t <= 0
        np.hstack([-ysign[:, None] * X, np.zeros((n, d)), -ysign[:, None], -np.eye(n)]),
    ]
    c = np.concatenate([np.zeros(d), np.full(d, lam), [0.0], np.full(n, 1.0 / n)])
    b_ub = np.concatenate([np.zeros(2 * d), -np.ones(n)])
    bounds = [(None, None)] * d + [(0.0, None)] * d + [(None, None)] + [(0.0, None)] * n
    res = linprog(c, A_ub=np.vstack(rows), b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def templateize_oracle(description: str, drug_a: str, drug_b: str, lexicon) -> tuple[str, int]:
    """One alternation over both drugs' phrases, longest text first, compiled per pair.

    A drug missing from the lexicon contributes no phrases.
    """
    if not description:
        raise ValidationError("empty interaction description")
    phrases = list(lexicon.phrases.get(drug_a, ())) + list(lexicon.phrases.get(drug_b, ()))
    if not phrases:  # neither drug is in the lexicon: nothing to replace
        return description, 0
    phrases.sort(key=lambda p: (-len(" ".join(p)), p))
    alternation = "|".join(r"[\s\-]+".join(re.escape(tok) for tok in p) for p in phrases)
    pattern = re.compile(rf"(?<![0-9A-Za-z])(?:{alternation})(?![0-9A-Za-z])", re.IGNORECASE)
    return pattern.subn(PLACEHOLDER, description)


@dataclass
class SparseVector:
    dims: int
    entries: dict[int, float]  # no explicit zeros


def count_vector(sample, abstracts_by_id, vocab) -> SparseVector:
    """Word counts summed over one sample's abstracts, token by token."""
    entries: dict[int, float] = {}
    for aid in sorted(sample.abstract_ids):
        ab = abstracts_by_id.get(aid)
        if ab is None:
            raise ValidationError(f"sample {sample.key!r} references unknown abstract {aid!r}")
        for tok in ab.tokens:
            col = vocab.index.get(tok)
            if col is not None:
                entries[col] = entries.get(col, 0) + 1
    return SparseVector(len(vocab), entries)


def embed_abstract(ab, table, stopwords) -> tuple[np.ndarray, int]:
    """Term-frequency weighted sum of embeddings over non-stopword tokens.

    Returns (vector, misses) where misses counts the distinct tokens absent
    from the table.  Tokens are accumulated in sorted order so the float sum
    is independent of token order in the abstract.
    """
    vec = np.zeros(table.dim, dtype=float)
    misses = 0
    tf = Counter(tok for tok in ab.tokens if tok not in stopwords)
    for tok in sorted(tf):
        v = table.vectors.get(tok)
        if v is None:
            misses += 1
        else:
            vec += tf[tok] * v
    return vec, misses


def embed_sample(sample, abstracts_by_id, table, stopwords) -> tuple[np.ndarray, int]:
    """Sum of abstract embeddings over one sample's abstracts, in sorted-id order."""
    vec = np.zeros(table.dim, dtype=float)
    misses = 0
    for aid in sorted(sample.abstract_ids):
        ab = abstracts_by_id.get(aid)
        if ab is None:
            raise ValidationError(f"sample {sample.key!r} references unknown abstract {aid!r}")
        part, m = embed_abstract(ab, table, stopwords)
        vec += part
        misses += m
    return vec, misses


def load_matrix_oracle(path) -> FeatureMatrix:
    """A feature file decoded here: the ``#`` lines as the header, then its seven ``npy`` records read one by one.

    Each row sums its parts cell by cell, in part order.  A column whose sum is
    zero is not stored; the rows come back in full (A = identity).
    """
    raw = Path(path).read_bytes()
    meta: dict[str, str] = {}
    while raw.startswith(b"#"):
        line, _, raw = raw.partition(b"\n")
        key, sep, val = line.decode("utf-8")[2:].partition(": ")
        if sep:
            meta[key] = val
    assert meta["body"] == "npy"
    body = io.BytesIO(raw)
    part_ptr, cols, values, row_ptr, refs, labels, keys = (
        np.lib.format.read_array(body, allow_pickle=False).tolist() for _ in range(7)
    )
    assert body.read() == b""
    parts = [[(cols[j], float(values[j])) for j in range(start, end)] for start, end in zip(part_ptr, part_ptr[1:])]
    row_refs = [refs[start:end] for start, end in zip(row_ptr, row_ptr[1:])]
    keys = bytes(keys).decode("utf-8").split("\n") if keys or meta["rows"] != "0" else []
    assert len(parts) == int(meta["parts"]) and len(keys) == len(labels) == len(row_refs) == int(meta["rows"])
    indptr, indices, data = [0], [], []
    for refs in row_refs:
        sums: dict[int, float] = {}
        for i in refs:
            for col, val in parts[i]:
                sums[col] = sums.get(col, 0.0) + val
        for col in sorted(sums):
            if sums[col] != 0:
                indices.append(col)
                data.append(sums[col])
        indptr.append(len(indices))
    X = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(keys), int(meta["dims"])),
    )
    return full_rows(keys, X, labels, meta["kind"])
