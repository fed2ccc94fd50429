import hashlib
import json
import random
import re
import shutil
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from ddimine import artifacts, corpus, pipeline, splitting
from ddimine.cli import _build_parser, main
from ddimine.config import build_config, load_config
from ddimine.corpus import DrugLexicon, load_stopwords
from ddimine.errors import ArtifactMismatchError
from ddimine.features import load_matrix
from ddimine.labeling import InteractionCatalog
from ddimine.learn import load_model
from ddimine.pipeline import (
    ARTIFACTS, STAGE_FUNCS, STAGE_ORDER, STAGES, file_digest, run_all, run_stage, stage_digests,
)
from ddimine.synth import SynthParams, planted_params, write_dataset
from helpers import (
    AttachedSample, artifact_digests, corpus_of, count_vector, embed_sample, header_of, load_corpus_oracle,
    load_matrix_oracle, load_vocab, read_body, read_table, save, templateize_oracle,
)


def data_lines(path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def manifest(out, stage: str) -> dict:
    return json.loads((out / "manifests" / f"{stage}.json").read_text(encoding="utf-8"))


def produced_by(stage: str) -> list[str]:
    return sorted(name for name, producer in ARTIFACTS.items() if producer == stage)


def read_samples(path) -> list[AttachedSample]:
    samples = []
    for line in data_lines(path):
        cardiac, other, label, tid, *ids = line.split("\t")
        ids = frozenset() if ids in ([], ["-"]) else frozenset(ids[0].split(","))
        samples.append(AttachedSample(cardiac, other, int(label), None if tid == "-" else int(tid), ids))
    return samples


# artifact -> an independent decoder, for calling stage functions on in-memory inputs
DECODE = {
    "cardiac.tsv": lambda path: corpus_of(load_corpus_oracle(path)[0]),
    "samples.tsv": read_samples,
    "features_train.txt": lambda path: load_matrix(path)[0],
    "features_dev.txt": lambda path: load_matrix(path)[0],
    "features_test.txt": lambda path: load_matrix(path)[0],
    "model.txt": lambda path: load_model(path)[0],
}


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
    assert len(digests) == 21  # every artifact of every stage, alerts included
    assert artifact_digests(second) == digests
    assert "converged 1" in data_lines(first / "model.txt")


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_evaluate_files_print_python_floats_and_curves_run_corner_to_corner(mini, variant):
    out = mini[1][variant][0]
    curves = 0
    for split in ("dev", "test"):
        metrics = dict(line.split("\t", 1) for line in data_lines(out / f"metrics_{split}.txt"))
        rows = [line.split("\t") for line in data_lines(out / f"curve_{split}.tsv")]
        assert all(metrics.pop(count).isdecimal() for count in ("tp", "fp", "tn", "fn"))
        cells = [cell for cell in metrics.values() if not cell.startswith("N/A")]
        cells += [cell for row in rows for cell in row]
        assert [cell for cell in cells if repr(float(cell)) != cell] == []
        texts = [(out / name).read_text(encoding="utf-8") for name in (f"metrics_{split}.txt", f"curve_{split}.tsv")]
        assert not any("float64" in text for text in texts)
        if not rows:  # a single-class split has no curve
            continue
        curves += 1
        thresholds, tpr, specificity, fpr = (list(map(float, column)) for column in zip(*rows))
        assert thresholds[0] == float("inf") and all(a > b for a, b in zip(thresholds, thresholds[1:]))
        assert tpr == sorted(tpr) and fpr == sorted(fpr)
        assert (fpr[0], tpr[0], fpr[-1], tpr[-1]) == (0.0, 0.0, 1.0, 1.0)
        assert specificity == [1.0 - x for x in fpr]
    assert curves > 0


@pytest.mark.parametrize("ratios", [(0.9, 0.1, 0.0), (0.8, 0.0, 0.2)])
def test_an_empty_split_is_evaluated_like_a_single_class_one(tmp_path, ratios):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    raw = json.loads(paths["config"].read_text(encoding="utf-8"))
    paths["config"].write_text(json.dumps({**raw, "ratios": ratios}), encoding="utf-8")
    assert main(["all", "--config", str(paths["config"])]) == 0
    out, empty = load_config(paths["config"]).output, "dev" if ratios[1] == 0 else "test"
    assert header_of(out / f"features_{empty}.txt")["rows"] == "0"
    metrics = dict(line.split("\t") for line in data_lines(out / f"metrics_{empty}.txt"))
    assert metrics == {"threshold": "0.0", **dict.fromkeys(("tp", "fp", "tn", "fn"), "0"),
                       **dict.fromkeys(("sensitivity", "specificity", "ppv", "npv"), "N/A"),
                       "auc": "N/A (empty split)"}
    assert read_body(out / f"curve_{empty}.tsv")[0] == ["# threshold\tsensitivity\tspecificity\tfpr"]


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
    abstracts = {ab.id: ab for ab in load_corpus_oracle(out / "cardiac.tsv")[0]}
    samples = {s.key: s for s in read_samples(out / "assigned_samples.tsv")}
    train = load_matrix_oracle(out / "features_train.txt")
    assert train.keys
    for i, key in enumerate(train.keys):
        s = samples[key]
        entries = count_vector(s, abstracts, vocab).entries
        assert train.y[i] == s.label
        row = train.X[i].tocsr()
        assert row.indices.tolist() == sorted(entries)
        assert row.data.tolist() == [float(entries[col]) for col in sorted(entries)]


def test_embedding_train_rows_and_misses_match_embed_sample_oracle(mini):
    paths, outputs = mini
    out = outputs["embeddings"][0]
    table, stop = read_table(paths["embeddings"]), load_stopwords(paths["stopwords"])
    abstracts = {ab.id: ab for ab in load_corpus_oracle(out / "cardiac.tsv")[0]}
    samples = {s.key: s for s in read_samples(out / "assigned_samples.tsv")}
    train = load_matrix_oracle(out / "features_train.txt")
    assert train.keys and train.kind == "embeddings"
    for i, key in enumerate(train.keys):
        vec, _ = embed_sample(samples[key], abstracts, table, stop)
        assert train.y[i] == samples[key].label
        assert train.X[i].toarray().ravel().tobytes() == vec.tobytes()  # bit for bit
    # the report counts misses before the train rows are undersampled
    rows = (line.split("\t") for line in data_lines(out / "assignment.tsv"))
    split = {key: name for kind, key, name in rows if kind == "sample"}
    misses = sum(embed_sample(s, abstracts, table, stop)[1] for key, s in samples.items() if split[key] == "train")
    report = dict(line.split("\t") for line in data_lines(out / "featurize_report.txt"))
    assert misses > 0 and int(report["embedding_misses_train"]) == misses


def test_featurize_reads_the_stopword_file_once(mini, tmp_path, monkeypatch):
    shutil.copytree(mini[1]["embeddings"][0], tmp_path / "out")
    raw = json.loads((mini[0]["config"].parent / "config_embeddings.json").read_text(encoding="utf-8"))
    cfg = build_config({**raw, "vocab_stopwords": "drop"}, {"output": str(tmp_path / "out")})
    read, load_stopwords = [], corpus.load_stopwords
    monkeypatch.setattr(corpus, "load_stopwords", lambda path: read.append(path) or load_stopwords(path))
    run_stage(cfg, "featurize")
    assert read == [cfg.stopwords]


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


def no_artifact_read(*args):
    raise AssertionError(f"a stage function read an artifact: {args}")


@pytest.mark.parametrize("variant", ["counts", "embeddings-hinge"])
def test_stages_return_their_artifacts_and_run_stage_writes_them(mini, tmp_path, monkeypatch, variant):
    cfg = load_config(mini[0]["config"].parent / f"config_{variant}.json", {"output": str(tmp_path / "out")})
    returned = {}
    for stage, func in list(STAGE_FUNCS.items()):

        def recording(cfg, *inputs, stage=stage, func=func):
            before = sorted(tmp_path.rglob("*"))
            with monkeypatch.context() as patch:  # the stage function itself reads no artifact
                patch.setattr(artifacts, "body_lines", no_artifact_read)
                patch.setattr(artifacts, "check_digest", no_artifact_read)
                outputs = func(cfg, *inputs)
            assert sorted(tmp_path.rglob("*")) == before  # and writes nothing
            returned[stage] = sorted(outputs)
            return outputs

        monkeypatch.setitem(STAGE_FUNCS, stage, recording)
    assert run_all(cfg) == list(STAGE_ORDER)
    for stage in STAGE_ORDER:
        assert returned[stage] == produced_by(stage)
        assert manifest(cfg.output, stage)["outputs"] == {
            name: file_digest(cfg.output / name) for name in produced_by(stage)
        }
        assert sorted(manifest(cfg.output, stage)) == ["elapsed_s", "outputs", "stage"]


@pytest.mark.parametrize("stage", ["split", "featurize", "train", "evaluate"])
def test_stage_runs_on_in_memory_inputs(mini, tmp_path, stage):
    out = mini[1]["counts"][0]
    cfg = load_config(mini[0]["config"].parent / "config_counts.json", {"output": str(tmp_path / "absent")})
    inputs = [DECODE[name](out / name) for name in STAGES[stage].reads]
    outputs = STAGES[stage].run(cfg, *inputs)
    assert not cfg.output.exists()
    assert sorted(outputs) == produced_by(stage)
    header = {"digest": stage_digests(cfg)(stage)}
    for name, encoded in outputs.items():
        save(tmp_path / name, encoded, header)
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def featurize_peak(cfg, kept, samples) -> int:
    """tracemalloc's peak over featurize and the writing of its outputs' bodies."""
    tracemalloc.start()
    try:
        for _, _, body in pipeline.stage_featurize(cfg, kept, samples).values():
            for _ in [body] if isinstance(body, str) else body:
                pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_featurize_peak_follows_the_words_not_the_tokens(mini):
    out = mini[1]["counts"][0]
    cfg = load_config(mini[0]["config"].parent / "config_counts.json", {"output": str(out)})
    kept = corpus.load_abstracts(out / "cardiac.tsv")
    samples = pipeline._decode_samples(out / "samples.tsv")
    longer = replace(kept, counts=kept.counts * 4)  # each abstract's tokens four times over
    featurize_peak(cfg, kept, samples)  # one-time allocations, such as lazy imports, go first
    assert featurize_peak(cfg, longer, samples) < 1.5 * featurize_peak(cfg, kept, samples)


def test_file_digest_is_the_sha256_of_the_bytes(tmp_path):
    data = random.Random(3).randbytes(5 << 19)  # 2.5 MiB: whole blocks and a part
    (tmp_path / "f").write_bytes(data)
    (tmp_path / "empty").write_bytes(b"")
    assert file_digest(tmp_path / "f") == hashlib.sha256(data).hexdigest()
    assert file_digest(tmp_path / "empty") == hashlib.sha256(b"").hexdigest()


def test_run_all_hashes_each_file_once(tmp_path, monkeypatch):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    hashed: Counter = Counter()
    digest = pipeline.file_digest

    def counting(path):
        hashed[Path(path).resolve()] += 1
        return digest(path)

    monkeypatch.setattr(pipeline, "file_digest", counting)
    run_all(load_config(paths["config"]))
    inputs = {paths[key].resolve() for key in ("corpus", "lexicon", "catalog", "mar", "embeddings", "stopwords")}
    assert inputs <= hashed.keys()  # declared by some stage, so hashed, though counts featurize reads neither
    assert set(hashed.values()) == {1}


def test_ingest_reads_a_directory_corpus(tmp_path):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    run_stage(load_config(paths["config"]), "ingest")
    members = tmp_path / "corpus_dir"
    members.mkdir()
    lines = paths["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
    (members / "part1.txt").write_text("".join(lines[:5]), encoding="utf-8")
    (members / "part2.txt").write_text("".join(lines[5:]), encoding="utf-8")
    raw = json.loads(paths["config"].read_text(encoding="utf-8"))
    raw["paths"] = {**raw["paths"], "corpus": str(members), "output": str(tmp_path / "out_dir")}
    config = tmp_path / "config_dir.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    cfg = load_config(config)
    run_stage(cfg, "ingest")
    body = (cfg.output / "cardiac.tsv").read_bytes().partition(b"# body: npy\n")[2]
    assert body and body == (tmp_path / "out" / "cardiac.tsv").read_bytes().partition(b"# body: npy\n")[2]
    assert header_of(cfg.output / "cardiac.tsv")["digest"] == stage_digests(cfg)("ingest")
    (members / ".notes").write_text("not read by ingest\n", encoding="utf-8")
    run_stage(cfg, "filter")  # a hidden file is no member: cardiac.tsv stays fresh
    with open(members / "part2.txt", "a", encoding="utf-8") as fh:
        fh.write(lines[0].replace("\t", "x\t", 1))
    with pytest.raises(ArtifactMismatchError, match="cardiac.tsv.*rerun the 'ingest' stage"):
        run_stage(cfg, "filter")


def test_ingest_keeps_the_abstracts_naming_a_drug_and_filter_reports_the_retention(tmp_path):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    synthetic = len(paths["corpus"].read_text(encoding="utf-8").splitlines())  # each names a drug
    with open(paths["corpus"], "a", encoding="utf-8") as fh:
        fh.write("no-drug\tA sentence that names no drug.\nno-text\t \n")
    cfg = load_config(paths["config"])
    for stage in ("ingest", "filter"):
        run_stage(cfg, stage)
    kept = corpus.load_abstracts(cfg.output / "cardiac.tsv")
    assert "no-drug" not in kept.ids and len(kept.ids) == synthetic
    assert kept.header["before"] == str(synthetic + 1) and kept.header["skipped_records"] == "1"
    stats = dict(line.split("\t") for line in data_lines(cfg.output / "corpus_stats.txt"))
    assert stats["n_abstracts"] == str(synthetic) and stats["retention_ratio"] == repr(synthetic / (synthetic + 1))


def test_failed_featurize_writes_nothing(tmp_path, capsys):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    raw = json.loads(paths["config"].read_text(encoding="utf-8"))
    config = tmp_path / "config_embeddings.json"
    config.write_text(json.dumps({**raw, "features": "embeddings"}), encoding="utf-8")
    for stage in ("ingest", "filter", "label", "split"):
        assert main([stage, "--config", str(config)]) == 0
    with open(paths["embeddings"], "a", encoding="utf-8") as fh:
        fh.write("malformed 0.5 not-a-number\n")
    capsys.readouterr()
    assert main(["featurize", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert "bad vector component" in err and len(err.splitlines()) == 1
    out = load_config(config).output
    assert len(produced_by("featurize")) == 5
    assert [name for name in produced_by("featurize") if (out / name).exists()] == []
    assert not (out / "manifests" / "featurize.json").exists()
    assert not list(out.glob(".*"))  # no temp file either


def copy_counts_run(mini, tmp_path) -> tuple[str, Path]:
    """The ``mini`` counts run's config and a copy of its outputs."""
    shutil.copytree(mini[1]["counts"][0], tmp_path / "out")
    return str(mini[0]["config"].parent / "config_counts.json"), tmp_path / "out"


def test_leftover_json_corpus_files_are_never_read(mini, tmp_path):
    config, out = copy_counts_run(mini, tmp_path)
    for name in ("tokenized.jsonl", "cardiac.jsonl"):  # the corpus files' former names and format
        (out / name).write_text("# ddimine tokenized-abstracts\n{not json\n", encoding="utf-8")
    for stage in ("filter", "split", "featurize", "diagnose-split"):
        assert main([stage, "--config", config, "--output", str(out)]) == 0
    for name in ("tokenized.jsonl", "cardiac.jsonl"):
        (out / name).unlink()
    digests = artifact_digests(out)
    assert digests.pop("diagnose_split.txt") and digests == artifact_digests(mini[1]["counts"][0])


# case -> (the synthetic preset, the config's top-level fields changed from write_dataset's)
SPLIT_CASES = {
    "mini": (SynthParams(seed=7), {}),
    "planted": (planted_params(7), {}),
    "train-only": (SynthParams(seed=7), {"ratios": [1, 0, 0]}),
}


@pytest.mark.parametrize("case", sorted(SPLIT_CASES))
def test_featurize_and_diagnose_split_draw_the_split_that_split_wrote(tmp_path, monkeypatch, case):
    """The codes each stage draws, read by key against ``assignment.tsv``'s text."""
    params, settings = SPLIT_CASES[case]
    raw = json.loads(write_dataset(params, tmp_path)["config"].read_text(encoding="utf-8"))
    cfg = build_config({**raw, **settings})
    for stage in ("ingest", "label", "split"):
        run_stage(cfg, stage)
    drawn, split_corpus = [], splitting.split_corpus
    monkeypatch.setattr(splitting, "split_corpus", lambda *args: drawn.append(split_corpus(*args)) or drawn[-1])
    for stage in ("featurize", "diagnose-split"):
        run_stage(cfg, stage)
    rows = (line.split("\t") for line in data_lines(cfg.output / "assignment.tsv"))
    written = {(kind, key): name for kind, key, name in rows}
    kept, samples = corpus.load_abstracts(cfg.output / "cardiac.tsv"), read_samples(cfg.output / "samples.tsv")
    keys = [("abstract", aid) for aid in kept.ids] + [("sample", s.key) for s in samples]
    assert len(drawn) == 2 and len(written) == len(keys)
    for abstract_split, sample_split in drawn:
        codes = [*abstract_split.tolist(), *sample_split.tolist()]
        assert {key: splitting.SPLITS[code] for key, code in zip(keys, codes)} == written
    if case == "train-only":
        assert set(written.values()) == {"train"}


def move_every_split(path: Path) -> None:
    moved = {"train": "dev", "dev": "test", "test": "train"}
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r"\t(train|dev|test)$", lambda m: "\t" + moved[m[1]], text, flags=re.M), encoding="utf-8")


def foreign_digest(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(re.sub(r"^# digest: .*$", "# digest: " + "0" * 64, text, count=1, flags=re.M), encoding="utf-8")


def strip_header(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(True)
    path.write_text("".join(line for line in lines if not line.startswith("#")), encoding="utf-8")


def break_last_line(path: Path) -> None:
    data = path.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    path.write_bytes(data[:last] + b"\xff" + data[last:])


# the damages that once made a reader of assignment.tsv refuse it, and an edit that once moved its model
ASSIGNMENT_DAMAGE = {
    "deleted": Path.unlink,
    "body-edited": move_every_split,
    "foreign-digest": foreign_digest,
    "stripped-header": strip_header,
    "not-utf8": break_last_line,
}


@pytest.mark.parametrize("stage", ["featurize", "diagnose-split"])
@pytest.mark.parametrize("damage", sorted(ASSIGNMENT_DAMAGE))
def test_featurize_and_diagnose_split_never_read_the_assignment_file(mini, tmp_path, damage, stage):
    """With ``assignment.tsv`` gone, damaged, or every split in its body moved under its intact header, each stage
    runs and writes what it writes beside the intact file."""
    config, out = copy_counts_run(mini, tmp_path)
    shutil.copytree(out, tmp_path / "intact")
    ASSIGNMENT_DAMAGE[damage](out / "assignment.tsv")
    for output in (out, tmp_path / "intact"):
        run_stage(load_config(config, {"output": str(output)}), stage)
    damaged, intact = artifact_digests(out), artifact_digests(tmp_path / "intact")
    assert damaged.pop("assignment.tsv", None) != intact.pop("assignment.tsv")  # the damage took
    assert damaged == intact
    assert {name: damaged[name] for name in produced_by("featurize")} == {
        name: file_digest(mini[1]["counts"][0] / name) for name in produced_by("featurize")}


def test_a_planted_cross_split_abstract_makes_split_exit_2_and_write_nothing(mini, tmp_path, capsys, monkeypatch):
    config, out = copy_counts_run(mini, tmp_path)
    for name in [*produced_by("split"), "manifests/split.json"]:
        (out / name).unlink()
    isolated = splitting.incidence
    # an incidence blind to the split attaches abstracts across it
    monkeypatch.setattr(splitting, "incidence", lambda kept, samples, assignment=None: isolated(kept, samples))
    capsys.readouterr()
    assert main(["split", "--config", config, "--output", str(out)]) == 2
    assert "cross-split abstract sharing detected" in capsys.readouterr().err
    assert [name for name in [*produced_by("split"), "manifests/split.json"] if (out / name).exists()] == []
    assert not list(out.glob(".*"))  # no temp file either


@pytest.mark.parametrize(
    "name, field, value, message",
    [
        ("samples.tsv", 2, "x", "bad label 'x' or template id"),
        ("samples.tsv", 3, "1.5", "bad label"),
        ("samples.tsv", 3, None, "expected 4 tab-separated fields, found 3"),
    ],
    ids=["label", "template-id", "samples-truncated"],
)
def test_a_malformed_row_exits_2_naming_its_line(mini, tmp_path, capsys, name, field, value, message):
    config, out = copy_counts_run(mini, tmp_path)
    lines = (out / name).read_text(encoding="utf-8").split("\n")
    fields = lines[-2].split("\t")  # the last row: its field set to value, or it and those after dropped
    lines[-2] = "\t".join(fields[:field] if value is None else [*fields[:field], value, *fields[field + 1 :]])
    (out / name).write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["split", "--config", config, "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{out / name}:{len(lines) - 1}: {message}" in err[0]


def test_filter_refuses_a_kept_corpus_whose_header_lost_its_retention(mini, tmp_path, capsys):
    config, out = copy_counts_run(mini, tmp_path)
    head, sep, body = (out / "cardiac.tsv").read_bytes().partition(b"# body: npy\n")  # the body is binary
    head = b"".join(line for line in head.splitlines(keepends=True) if not line.startswith(b"# retention: "))
    (out / "cardiac.tsv").write_bytes(head + sep + body)
    capsys.readouterr()
    assert main(["filter", "--config", config, "--output", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no retention in its header; rerun the 'ingest' stage" in err[0]


def test_ingest_rejects_an_id_the_samples_column_cannot_hold(tmp_path, capsys):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    lexicon = DrugLexicon.load(paths["lexicon"])
    with open(paths["corpus"], "a", encoding="utf-8") as fh:
        fh.write(f"a,b\t{sorted(lexicon.cardiac)[0]} was given.\n")
    assert main(["ingest", "--config", str(paths["config"])]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "abstract id 'a,b'" in err[0]


def test_ingest_rejects_a_corpus_that_is_not_utf8(tmp_path, capsys):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    with open(paths["corpus"], "ab") as fh:
        fh.write(b"badid\tabc \xff def\n")
    lineno = len(paths["corpus"].read_bytes().splitlines())
    assert main(["ingest", "--config", str(paths["config"])]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{paths['corpus']}:{lineno}: not valid UTF-8" in err[0]


# in UTC these fall outside datetime's years 1 to 9999
@pytest.mark.parametrize("stamp", ["9999-12-31T23:00:00-05:00", "0001-01-01T00:00:00+05:00"])
def test_alerts_reject_a_mar_time_outside_datetime_after_utc(tmp_path, capsys, stamp):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    with open(paths["mar"], "a", encoding="utf-8") as fh:
        fh.write(f"p0\td0\t{stamp}\n")
    lineno = len(paths["mar"].read_text(encoding="utf-8").splitlines())
    assert main(["alerts", "--config", str(paths["config"])]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{paths['mar']}:{lineno}: timestamp {stamp!r} outside the sane range" in err[0]


@pytest.mark.parametrize("alerts", [{"window_hours": 1e12}, {"per_drug_hours": {"d0": 1e-12}}])
def test_alerts_reject_a_window_timedelta_cannot_hold(tmp_path, capsys, alerts):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    raw = json.loads(paths["config"].read_text(encoding="utf-8"))
    paths["config"].write_text(json.dumps({**raw, "alerts": alerts}), encoding="utf-8")
    assert main(["alerts", "--config", str(paths["config"])]) == 2
    assert f"alerts.{next(iter(alerts))} must be" in capsys.readouterr().err


def test_every_stage_is_a_subcommand_with_its_docstring_as_help():
    parser = _build_parser()
    listing = " ".join(parser.format_help().split())
    for stage, spec in STAGES.items():
        assert parser.parse_args([stage, "--config", "c.json"]).command == stage
        assert " ".join(spec.run.__doc__.partition("\n")[0].split()) in listing
    assert parser.parse_args(["all", "--config", "c.json"]).command == "all"
    assert parser.parse_args(["gen-synthetic", "--output", "d"]).command == "gen-synthetic"


@pytest.mark.parametrize("bad_id", ["some drug", "some|drug"])
def test_label_rejects_a_catalog_id_feature_rows_cannot_hold(tmp_path, capsys, bad_id):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    cardiac = sorted(DrugLexicon.load(paths["lexicon"]).cardiac)[0]
    with open(paths["catalog"], "a", encoding="utf-8") as fh:
        fh.write(f"{cardiac}\t{bad_id}\t{cardiac} may interact with {bad_id}.\n")
    lineno = len(paths["catalog"].read_text(encoding="utf-8").splitlines())
    assert main(["label", "--config", str(paths["config"])]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{paths['catalog']}:{lineno}: drug id {bad_id!r}" in err[0]


def test_diagnose_split_cli(tmp_path, capsys):
    paths = write_dataset(SynthParams(seed=7), tmp_path)
    config = str(paths["config"])
    for missing, stages in (("cardiac.tsv", ("ingest",)), ("samples.tsv", ("label",))):  # filter and split never run
        assert main(["diagnose-split", "--config", config]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"missing artifact {missing!r}" in err[0]
        for stage in stages:
            assert main([stage, "--config", config]) == 0
    capsys.readouterr()
    assert main(["diagnose-split", "--config", config]) == 0
    printed = capsys.readouterr().out
    rows = {row[0]: row[1:] for row in (line.split("\t") for line in printed.splitlines())}
    isolated, naive = map(int, rows["total"])
    assert isolated == 0 and naive > 0
    cfg = load_config(config)
    body, header = read_body(cfg.output / "diagnose_split.txt")
    assert list(body) == printed.splitlines()
    assert header == {"digest": stage_digests(cfg)("diagnose-split")}
    digest = file_digest(cfg.output / "diagnose_split.txt")
    assert manifest(cfg.output, "diagnose-split")["outputs"] == {"diagnose_split.txt": digest}
