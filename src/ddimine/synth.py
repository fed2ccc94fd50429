"""Synthetic desk-scale datasets with a planted, learnable interaction signal.

Real abstract corpora and interaction catalogs are not redistributable, so
experiments and the end-to-end smoke path run on generated data.  Drugs carry
a latent "interactor" flag; a pair is in the catalog iff either member is an
interactor, and abstracts about interactor drugs have a fixed set of signal
words injected.  Because every sample containing an interactor drug is
positive, signal-bearing abstracts are assigned only to positive samples, so
a sparse linear model on word counts can recover the signal words.

Two draws are bulk reads: each abstract's background words come from one
slice of uniforms, and all embedding components from one ``normals`` call.
Every other draw reads one value at a time.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Abstract, DrugLexicon, default_stopwords
from .labeling import InteractionCatalog
from .rng import Rng

SIGNAL_WORDS = (
    "bradycardia", "hyperkalemia", "nephrotoxicity", "hypotension", "arrhythmia",
    "prolongation", "toxicity", "clearance", "inhibition", "potentiation",
    "hemorrhage", "sedation", "hypoglycemia", "ototoxicity", "rhabdomyolysis",
    "agranulocytosis", "hepatotoxicity", "thrombocytopenia", "vasodilation", "torsades",
)

_SYLLABLES = (
    "am", "bex", "cor", "dal", "eso", "fen", "gli", "hy", "ibu", "jan", "ket",
    "lor", "met", "nad", "ox", "pra", "qui", "ros", "sul", "tam", "ur", "ver",
    "xa", "zol", "bi", "ca", "do", "el", "fu", "ga",
)
_SUFFIXES = ("ide", "olol", "ine", "ate", "pril", "arin", "axin", "mide", "statin", "osin")

_DESCRIPTION_TEMPLATES = (
    "The serum concentration of {a} can be increased when it is combined with {b}.",
    "{a} may decrease the excretion rate of {b} which could result in a higher serum level.",
    "The risk or severity of adverse effects can be increased when {a} is combined with {b}.",
    "The metabolism of {a} can be decreased when combined with {b}.",
    "{a} may increase the hypotensive activities of {b}.",
    "The bioavailability of {a} can be decreased when combined with {b}.",
    "{a} may increase the nephrotoxic activities of {b}.",
    "The therapeutic efficacy of {a} can be decreased when used in combination with {b}.",
)


@dataclass
class SynthParams:
    seed: int = 7
    n_cardiac: int = 6
    n_cardiac_high: int = 3
    n_other: int = 40
    n_other_high: int = 20
    abstracts_per_drug: int = 6
    words_per_abstract: int = 40
    background_vocab: int = 800
    signal_prob: float = 0.5
    signal_copies_max: int = 2
    second_mention_prob: float = 0.25
    n_patients: int = 4
    events_per_patient: int = 12
    embedding_dim: int = 16
    embedding_skip: int = 7  # every k-th token left out of the embedding file


def planted_params(seed: int) -> SynthParams:
    """Sizing for the planted-signal experiment: ~2000 samples, 5000-word vocab."""
    return SynthParams(
        seed=seed,
        n_cardiac=10,
        n_cardiac_high=5,
        n_other=196,
        n_other_high=98,
        abstracts_per_drug=20,
        words_per_abstract=50,
        background_vocab=6000,
        signal_prob=1.0,
        signal_copies_max=3,
        second_mention_prob=0.2,
    )


@dataclass
class SynthDataset:
    params: SynthParams
    lexicon: DrugLexicon
    catalog: InteractionCatalog
    abstracts: list[Abstract]
    lexicon_rows: list[tuple[str, str, int]]
    catalog_rows: list[tuple[str, str, str]]
    mar_rows: list[tuple[str, str, str]]
    embedding_lines: list[str]
    high_drugs: frozenset[str]
    signal_words: tuple[str, ...] = SIGNAL_WORDS
    stopword_text: str = ""


def _make_names(rng: Rng, count: int, taken: set[str]) -> list[str]:
    names = []
    while len(names) < count:
        name = rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES) + rng.choice(_SUFFIXES)
        if name not in taken:
            taken.add(name)
            names.append(name)
    return names


def generate_dataset(params: SynthParams) -> SynthDataset:
    if not (0 <= params.n_cardiac_high <= params.n_cardiac and 0 <= params.n_other_high <= params.n_other):
        raise ValueError("high-drug counts exceed drug counts")
    root = Rng(params.seed)
    name_rng = root.derive(1)
    taken: set[str] = set(SIGNAL_WORDS)
    cardiac = _make_names(name_rng, params.n_cardiac, taken)
    others = _make_names(name_rng, params.n_other, taken)
    high = frozenset(cardiac[: params.n_cardiac_high] + others[: params.n_other_high])

    lexicon_rows: list[tuple[str, str, int]] = []
    entries: dict[str, list[tuple[str, ...]]] = {}
    for drug in cardiac + others:
        lexicon_rows.append((drug, drug, 1 if drug in cardiac else 0))
        entries[drug] = [(drug,)]
        if name_rng.random() < 0.1:  # occasional two-token brand phrase
            lexicon_rows.append((drug, f"{drug} sodium", 1 if drug in cardiac else 0))
            entries[drug].append((drug, "sodium"))
    lexicon = DrugLexicon(entries, set(cardiac))

    # catalog: a pair interacts iff either member is an interactor drug
    cat_rng = root.derive(2)
    catalog_rows: list[tuple[str, str, str]] = []
    def add_pair(a: str, b: str) -> None:
        template = cat_rng.choice(_DESCRIPTION_TEMPLATES)
        catalog_rows.append((a, b, template.format(a=a.capitalize(), b=b.capitalize())))

    for c in cardiac:
        for o in others:
            if c in high or o in high:
                add_pair(c, o)
    for i, c1 in enumerate(cardiac):
        for c2 in cardiac[i + 1 :]:
            if c1 in high or c2 in high:
                add_pair(c1, c2)
    catalog = InteractionCatalog(catalog_rows)

    # abstracts: per-drug documents with signal words injected for interactors.
    # Each interactor has one primary signal word (round-robin), so every one
    # of the 20 words is necessary to cover all positives: a sparse model
    # cannot rank positives perfectly without keeping the full set.
    ab_rng = root.derive(3)
    # background words are Zipf-distributed; the running sums are Python float additions in rank order
    zipf = list(itertools.accumulate(1.0 / (i + 1) ** 1.05 for i in range(params.background_vocab)))
    cumulative, total = np.array(zipf), zipf[-1]
    vocab_tokens = [f"w{i:04d}" for i in range(params.background_vocab)]
    same_class = {True: [d for d in cardiac + others if d in high],
                  False: [d for d in cardiac + others if d not in high]}
    primary_word = {d: SIGNAL_WORDS[i % len(SIGNAL_WORDS)] for i, d in enumerate(sorted(high))}
    abstracts: list[Abstract] = []
    counter = 0
    for drug in cardiac + others:
        for _ in range(params.abstracts_per_drug):
            counter += 1
            n_words = ab_rng.randint(
                max(5, int(params.words_per_abstract * 0.8)),
                int(params.words_per_abstract * 1.2),
            )
            ranks = np.searchsorted(cumulative, ab_rng.uniforms(n_words) * total, side="left")
            tokens = [vocab_tokens[r] for r in ranks.tolist()]
            if drug in high:
                if ab_rng.random() < params.signal_prob:
                    for _ in range(ab_rng.randint(1, params.signal_copies_max)):
                        tokens.insert(ab_rng.below(len(tokens) + 1), primary_word[drug])
                if ab_rng.random() < 0.3:  # secondary effect mention
                    word = SIGNAL_WORDS[ab_rng.below(len(SIGNAL_WORDS))]
                    tokens.insert(ab_rng.below(len(tokens) + 1), word)
            mentions = [drug]
            if ab_rng.random() < params.second_mention_prob:
                pool = same_class[drug in high]
                second = pool[ab_rng.below(len(pool))]
                if second != drug:
                    mentions.append(second)
            for mention in mentions:
                for _ in range(ab_rng.randint(1, 2)):
                    tokens.insert(ab_rng.below(len(tokens) + 1), mention.capitalize())
            text = " ".join(tokens) + "."
            abstracts.append(Abstract(id=f"{90000000 + counter}", text=text))

    # MAR: co-administrations drawn from catalog pairs, plus a lone drug each
    mar_rng = root.derive(4)
    pair_pool = [catalog.display(a, b) for a, b in catalog.pairs()]
    all_drugs = cardiac + others
    mar_drugs: list[str] = []
    hours: list[int] = []  # after the base time
    for _ in range(params.n_patients):
        drugs: list[str] = []
        for _ in range(2):
            a, b = pair_pool[mar_rng.below(len(pair_pool))]
            drugs.extend([a, b])
        drugs.append(all_drugs[mar_rng.below(len(all_drugs))])
        start = 24 * mar_rng.below(60)
        for _ in range(params.events_per_patient):
            mar_drugs.append(drugs[mar_rng.below(len(drugs))])
            hours.append(start + mar_rng.below(24 * 10))
    times = np.datetime64("2015-07-01T08:00") + np.array(hours, dtype="timedelta64[h]")
    patients = [f"P{p:02d}" for p in range(1, params.n_patients + 1) for _ in range(params.events_per_patient)]
    mar_rows = sorted(zip(patients, mar_drugs, np.datetime_as_string(times, unit="s", timezone="UTC").tolist()))

    # embeddings for most tokens; every k-th is deliberately missing
    emb_tokens = vocab_tokens + list(SIGNAL_WORDS) + cardiac + others
    dim, skip = params.embedding_dim, params.embedding_skip
    values = root.derive(5).normals(len(emb_tokens) * dim).reshape(len(emb_tokens), dim).tolist()
    row = " ".join(["%.6f"] * dim)
    embedding_lines = [
        f"{tok} {row % tuple(v)}" for i, (tok, v) in enumerate(zip(emb_tokens, values)) if i % skip != skip - 1
    ]

    stopword_text = "\n".join(sorted(default_stopwords())) + "\n"
    return SynthDataset(
        params=params,
        lexicon=lexicon,
        catalog=catalog,
        abstracts=abstracts,
        lexicon_rows=lexicon_rows,
        catalog_rows=catalog_rows,
        mar_rows=mar_rows,
        embedding_lines=embedding_lines,
        high_drugs=high,
        stopword_text=stopword_text,
    )


def write_dataset(params: SynthParams, out_dir: Path | str) -> dict[str, Path]:
    """Materialize a dataset plus a ready-to-run pipeline config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = generate_dataset(params)
    paths = {
        "corpus": out / "corpus.tsv",
        "lexicon": out / "lexicon.tsv",
        "catalog": out / "catalog.tsv",
        "embeddings": out / "embeddings.txt",
        "stopwords": out / "stopwords.txt",
        "mar": out / "mar.tsv",
        "config": out / "config.json",
    }
    paths["corpus"].write_text(
        "".join(f"{ab.id}\t{ab.text}\n" for ab in ds.abstracts), encoding="utf-8"
    )
    paths["lexicon"].write_text(
        "# drug_id\tphrase\tcardiac_flag\n"
        + "".join(f"{d}\t{p}\t{f}\n" for d, p, f in ds.lexicon_rows),
        encoding="utf-8",
    )
    paths["catalog"].write_text(
        "".join(f"{a}\t{b}\t{desc}\n" for a, b, desc in ds.catalog_rows), encoding="utf-8"
    )
    paths["embeddings"].write_text("\n".join(ds.embedding_lines) + "\n", encoding="utf-8")
    paths["stopwords"].write_text(ds.stopword_text, encoding="utf-8")
    paths["mar"].write_text(
        "patient_id\tdrug\ttimestamp\n" + "".join(f"{p}\t{d}\t{t}\n" for p, d, t in ds.mar_rows),
        encoding="utf-8",
    )
    config = {
        "paths": {
            "corpus": str(paths["corpus"]),
            "lexicon": str(paths["lexicon"]),
            "catalog": str(paths["catalog"]),
            "embeddings": str(paths["embeddings"]),
            "stopwords": str(paths["stopwords"]),
            "mar": str(paths["mar"]),
            "output": str(out / "out"),
        },
        "corpus_format": "lines",
        "seed": params.seed,
        "ratios": [0.64, 0.16, 0.2],
        "top_k": 2000,
        "features": "counts",
        "vocab_stopwords": "keep",
        "drop_empty_samples": False,
        "undersample_train": True,
        "model": {"loss": "logistic", "l1_lambda": 0.0, "max_iters": 10000,
                  "tolerance": 1e-6, "standardize": False},
        "cv": {"enabled": True, "grid": None, "k": 3},
        "threshold": 0.0,
        "alerts": {"window_hours": 24.0, "per_drug_hours": {}},
    }
    paths["config"].write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths
