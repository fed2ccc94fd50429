import json

import pytest

from ddimine.config import load_config
from ddimine.corpus import DrugLexicon, TokenizedAbstract
from ddimine.features import load_vocab
from ddimine.labeling import InteractionCatalog, InteractionSample
from ddimine.pipeline import artifact_digests, run_all, run_stage
from ddimine.synth import SynthParams, write_dataset
from helpers import count_vector, templateize_oracle


def data_lines(path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line and not line.startswith("#")]


# variant -> (feature kind, fields changed in config sections)
VARIANTS = {
    "counts": ("counts", {}),
    "embeddings": ("embeddings", {}),
    "embeddings-hinge": ("embeddings", {"model": {"loss": "hinge"}, "cv": {"enabled": True}}),
}


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    """The ``mini`` preset run twice into separate output directories, once per variant."""
    root = tmp_path_factory.mktemp("mini")
    paths = write_dataset(SynthParams(seed=7), root)
    raw = json.loads(paths["config"].read_text(encoding="utf-8"))
    outputs = {}
    for variant, (kind, sections) in VARIANTS.items():
        config = root / f"config_{variant}.json"
        changed = {name: {**raw[name], **fields} for name, fields in sections.items()}
        config.write_text(json.dumps({**raw, "features": kind, **changed}), encoding="utf-8")
        outputs[variant] = []
        for rerun in ("a", "b"):
            cfg = load_config(config, {"output": str(root / f"out_{variant}_{rerun}")})
            run_all(cfg)
            outputs[variant].append(cfg.output)
    return paths, outputs


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_reruns_byte_identical(mini, variant):
    first, second = mini[1][variant]
    digests = artifact_digests(first)
    assert len(digests) == 22  # every artifact of every stage, alerts included
    assert artifact_digests(second) == digests
    assert "converged 1" in data_lines(first / "model.txt")


def test_templates_match_per_pair_oracle(mini):
    paths, outputs = mini
    catalog = InteractionCatalog.load(paths["catalog"])
    lexicon = DrugLexicon.load(paths["lexicon"])
    ids: dict[str, int] = {}
    support: dict[int, int] = {}
    for a, b in catalog.pairs():
        text, n = templateize_oracle(catalog.description(a, b), a, b, lexicon)
        if n:
            tid = ids.setdefault(text, len(ids))
            support[tid] = support.get(tid, 0) + 1
    expected = [f"{tid}\t{text}\t{support[tid]}" for text, tid in ids.items()]
    assert expected and data_lines(outputs["counts"][0] / "templates.tsv") == expected


def test_train_rows_match_count_vector_oracle(mini):
    out = mini[1]["counts"][0]
    vocab = load_vocab(out / "vocab.tsv")
    abstracts = {}
    for line in data_lines(out / "cardiac.jsonl"):
        rec = json.loads(line)
        abstracts[rec["id"]] = TokenizedAbstract(rec["id"], tuple(rec["tokens"]), frozenset(rec["mentions"]))
    samples = {}
    for line in data_lines(out / "assigned_samples.tsv"):
        cardiac, other, label, _, ids = line.split("\t")
        ids = frozenset() if ids == "-" else frozenset(ids.split(","))
        s = InteractionSample(cardiac, other, int(label), None, ids)
        samples[s.key] = s
    rows = [line for line in data_lines(out / "features_train.txt") if line.startswith("row ")]
    assert rows
    for line in rows:
        s = samples[line.split(" ")[1]]
        entries = count_vector(s, abstracts, vocab).entries
        cells = " ".join(f"{col}:{float(entries[col])!r}" for col in sorted(entries))
        assert line == f"row {s.key} {s.label} {cells}".rstrip()


def test_label_stage_with_catalog_drugs_missing_from_lexicon(tmp_path):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    lexicon = DrugLexicon.load(paths["lexicon"])
    cardiac = sorted(lexicon.cardiac)[0]
    with open(paths["catalog"], "a", encoding="utf-8") as fh:
        fh.write("aspirin\tibuprofen\tAspirin lowers ibuprofen levels.\n")
        fh.write(f"{cardiac}\taspirin\tThe risk rises when {cardiac.title()} meets aspirin.\n")
    cfg = load_config(paths["config"], {"output": str(tmp_path / "out")})
    run_stage(cfg, "label")
    catalog = InteractionCatalog.load(paths["catalog"])
    unmatched = sum(
        templateize_oracle(catalog.description(a, b), a, b, lexicon)[1] == 0 for a, b in catalog.pairs()
    )

    def rows(name):
        return [line.split("\t") for line in data_lines(cfg.output / name)]

    assert unmatched >= 1 and int(dict(rows("label_report.txt"))["template_warnings"]) == unmatched
    tid = {text: tid for tid, text, _ in rows("templates.tsv")}["The risk rises when (~drug~) meets aspirin."]
    assert [cardiac, "aspirin", "1", tid] in rows("samples.tsv")
