"""The artifact codec: header format, digest checks, missing inputs and atomic writes."""

import io
import itertools
import json
import random
import re
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ddimine import artifacts
from ddimine.cli import main
from ddimine.config import load_config
from ddimine.corpus import (
    DrugLexicon, encode_abstracts, load_abstracts, load_stopwords,
)
from ddimine.errors import ArtifactMismatchError, MissingArtifactError, ValidationError
from ddimine.features import EmbeddingTable, encode_matrix
from ddimine.labeling import InteractionCatalog
from ddimine.mar_alerts import parse_mar
from ddimine.pipeline import STAGES, run_all, run_stage
from ddimine.synth import SynthParams, write_dataset
from helpers import KeptAbstract, corpus_of, dense_matrix, load_corpus_oracle, same_corpus, save

# every artifact a later stage reads: (artifact, producing stage, a reading stage)
READS = [
    ("cardiac.tsv", "ingest", "filter"),
    ("cardiac.tsv", "ingest", "split"),
    ("cardiac.tsv", "ingest", "featurize"),
    ("samples.tsv", "label", "split"),
    ("samples.tsv", "label", "featurize"),
    ("assignment.tsv", "split", "featurize"),
    ("features_train.txt", "featurize", "train"),
    ("features_dev.txt", "featurize", "evaluate"),
    ("features_test.txt", "featurize", "evaluate"),
    ("model.txt", "train", "evaluate"),
]


def test_stage_table_declares_every_read():
    declared = {(name, stage) for stage, spec in STAGES.items() for name in spec.reads}
    diagnosis = ("cardiac.tsv", "assignment.tsv", "samples.tsv")
    expected = {(name, stage) for name, _, stage in READS} | {(name, "diagnose-split") for name in diagnosis}
    assert declared == expected


# as bytes: a feature file's body is binary
def foreign_digest(path: Path) -> None:
    lines = path.read_bytes().split(b"\n")
    i = next(i for i, line in enumerate(lines) if line.startswith(b"# digest: "))
    lines[i] = b"# digest: " + b"0" * 64
    path.write_bytes(b"\n".join(lines))


def strip_header(path: Path) -> None:
    lines = path.read_bytes().split(b"\n")
    while lines[0].startswith(b"#"):
        lines.pop(0)
    path.write_bytes(b"\n".join(lines))


DAMAGE = {"missing": Path.unlink, "foreign_digest": foreign_digest, "stripped_header": strip_header}


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The ``mini`` preset's config and the outputs of its full run."""
    root = tmp_path_factory.mktemp("chain")
    paths = write_dataset(SynthParams(seed=7), root)
    run_all(load_config(paths["config"]))
    return paths["config"], root / "out"


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("name, producer, stage", READS)
def test_damaged_input_refused(chain, tmp_path, capsys, damage, name, producer, stage):
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    DAMAGE[damage](tmp_path / "out" / name)
    cfg = load_config(config, {"output": str(tmp_path / "out")})
    if damage == "missing":
        with pytest.raises(MissingArtifactError) as info:
            run_stage(cfg, stage)
        assert (info.value.artifact, info.value.producing_stage) == (name, producer)
    else:
        with pytest.raises(ArtifactMismatchError, match=name) as info:
            run_stage(cfg, stage)
        assert f"rerun the {producer!r} stage" in str(info.value)
    capsys.readouterr()
    assert main([stage, "--config", str(config), "--output", str(cfg.output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and len(err.splitlines()) == 1


def test_header_block_then_body(tmp_path):
    path = tmp_path / "cv_results.tsv"
    fields = {"digest": "abc", "seed": 7, "ratios": "0.5 0.5"}
    body = "# lambda\tmean_auc\n0.1\t0.9\n# best_lambda: 0.1\n"
    artifacts.write(path, "cv-results", fields, body)
    header = "# ddimine cv-results\n# digest: abc\n# seed: 7\n# ratios: 0.5 0.5\n"
    assert path.read_text(encoding="utf-8") == header + body
    body, fields = artifacts.read(path)
    assert fields == {"digest": "abc", "seed": "7", "ratios": "0.5 0.5"}
    assert list(body) == ["# lambda\tmean_auc", "0.1\t0.9", "# best_lambda: 0.1"]
    artifacts.check_digest(path, "abc", "train")
    with pytest.raises(ArtifactMismatchError, match="rerun the 'train' stage"):
        artifacts.check_digest(path, "abd", "train")


def test_every_output_file_written_atomically(tmp_path, monkeypatch):
    written = []
    write_atomic = artifacts.write_atomic
    monkeypatch.setattr(
        artifacts, "write_atomic", lambda path, *texts: written.append(Path(path)) or write_atomic(path, *texts)
    )
    cfg = load_config(write_dataset(SynthParams(seed=7), tmp_path)["config"])
    run_all(cfg)
    files = sorted(p for p in Path(cfg.output).rglob("*") if p.is_file())
    assert len(files) == 21 + 8  # artifacts plus one manifest per stage
    assert sorted(written) == files


class HalfWriter:
    """A file that takes half of what it is given, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, chunks):
        data = b"".join(chunks)
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def fail_replace(src, dst):
    raise OSError("replace failed")


def failing_body():
    """A streamed body whose source fails after the first chunk."""
    yield "rows 2\n"
    raise OSError("body source failed")


@pytest.mark.parametrize("failure", ["write", "replace", "body"])
def test_failed_write_keeps_previous_artifact(tmp_path, monkeypatch, failure):
    path = tmp_path / "features_train.txt"
    save(path, encode_matrix(dense_matrix([[1.0, 2.0]], [1])), {"digest": "old"})
    before = path.read_bytes()
    if failure == "write":
        monkeypatch.setattr(artifacts, "open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False)
    elif failure == "replace":
        monkeypatch.setattr(artifacts.os, "replace", fail_replace)
    with pytest.raises(OSError):
        if failure == "body":
            artifacts.write(path, "feature-matrix", {"digest": "new"}, failing_body())
        else:
            save(path, encode_matrix(dense_matrix([[3.0, 4.0], [5.0, 6.0]], [0, 1])), {"digest": "new"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left


def test_a_text_feature_file_under_a_current_digest_is_refused(chain, tmp_path, capsys):
    """A feature file with the older text body passes the digest check, which covers inputs, not the format."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "features_train.txt"
    assert main(["show", str(path)]) == 0
    path.write_text(capsys.readouterr().out, encoding="utf-8")  # the text the older format wrote
    assert path.read_bytes().startswith(b"# ddimine feature-matrix\n# digest: ") and b"\nrow " in path.read_bytes()
    cfg = load_config(config, {"output": str(tmp_path / "out")})
    with pytest.raises(ValidationError, match="rerun featurize") as info:
        run_stage(cfg, "train")
    assert str(path) in str(info.value)
    assert main(["train", "--config", str(config), "--output", str(cfg.output)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "rerun featurize" in err


def test_a_multibyte_text_artifact_reads_the_same_through_the_binary_header_reader(tmp_path):
    path = tmp_path / "samples.tsv"
    rows = ["abstract-é\td1", "抄録 7\td1 d2", "á𝛼\t"]  # two-, three- and four-byte characters
    artifacts.write(path, "samples", {"digest": "abc", "note": "ünïcode"}, "".join(f"{row}\n" for row in rows))
    body, fields = artifacts.read(path)
    assert fields == {"digest": "abc", "note": "ünïcode"}
    assert list(body) == rows
    with artifacts.body_lines(path, width=2) as (body, _):
        assert list(body) == [row.split("\t") for row in rows]
    artifacts.check_digest(path, "abc", "label")
    with pytest.raises(ArtifactMismatchError):
        artifacts.check_digest(path, "abd", "label")
    # and the same strings as a kept corpus's records
    path = tmp_path / "cardiac.tsv"
    words = ("é", "ü", "𝛼", "é")
    corpus = corpus_of([KeptAbstract(row.partition("\t")[0], words, frozenset({"d1"})) for row in rows])
    save(path, encode_abstracts(corpus, note="ünïcode"), {"digest": "abc"})
    assert same_corpus(load_abstracts(path), corpus) and load_abstracts(path).header == fields


# a body line, as (artifact, the stage that reads it)
NOT_UTF8 = [("samples.tsv", "split"), ("assignment.tsv", "featurize"), ("model.txt", "evaluate")]


@pytest.mark.parametrize("name, stage", NOT_UTF8)
def test_a_body_line_that_is_not_utf8_exits_2_naming_its_line(chain, tmp_path, capsys, name, stage):
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / name
    data = path.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1  # the last line, whose number is the count of line ends
    lineno = data.count(b"\n")
    path.write_bytes(data[:last] + b"\xff" + data[last:])
    capsys.readouterr()
    assert main([stage, "--config", str(config), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{path}:{lineno}: not valid UTF-8" in err[0]


def test_a_text_kept_corpus_under_a_current_digest_is_refused(chain, tmp_path, capsys):
    """A kept corpus with the older text body passes the digest check, which covers inputs, not the format."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "cardiac.tsv"
    abstracts, header = load_corpus_oracle(path)
    lines = [f"{ab.id}\t{' '.join(sorted(ab.drug_mentions))}\t{' '.join(ab.tokens)}\n" for ab in abstracts]
    # the text the older format wrote, under the same header
    artifacts.write(path, "tokenized-abstracts", header, "".join(["# id\tmentions\ttokens\n", *lines]))
    for stage in ("filter", "split"):
        capsys.readouterr()
        assert main([stage, "--config", str(config), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err and "rerun ingest" in err and len(err.splitlines()) == 1


def npy_records(path: Path) -> tuple[bytes, list[np.ndarray]]:
    """The header's bytes and the body's records of a record file."""
    data = path.read_bytes()
    head, sep, body = data.partition(b"# body: npy\n")
    stream, records = io.BytesIO(body), []
    while stream.tell() < len(body):
        records.append(np.lib.format.read_array(stream))
    return head + sep, records


def write_npy_records(path: Path, head: bytes, records: list[np.ndarray]) -> None:
    body = io.BytesIO()
    for record in records:
        np.lib.format.write_array(body, record, allow_pickle=True)
    path.write_bytes(head + body.getvalue())


def swap_first_rise(indptr: np.ndarray) -> np.ndarray:
    """The indptr with its first rise after the start undone: offsets no longer ascend."""
    i = next(i for i in range(1, len(indptr) - 1) if indptr[i] < indptr[i + 1])
    out = indptr.copy()
    out[i], out[i + 1] = indptr[i + 1], indptr[i]
    return out


# record file -> (the stage that reads it; its columns record, indptr record and a record whose count must match the
# rows, by position; and its columns' bound, read off the records and the header)
RECORD_FILES = {
    "cardiac.tsv": ("filter", 6, 5, 0, lambda records, head: len(records[4].tobytes().split(b"\n"))),
    "features_train.txt": ("train", 1, 0, 5, lambda records, head: int(head.split(b"# dims: ")[1].split(b"\n")[0])),
}


def damaged(case: str, name: str, data: bytes, head: bytes, records: list[np.ndarray]) -> bytes | list[np.ndarray]:
    """The file's bytes, or its records, with one damage of ``case``."""
    _, columns, indptr, counted, bound = RECORD_FILES[name]
    records = list(records)
    if case == "truncated":
        return data[:-3]
    if case == "trailing-bytes":
        return data + b"\x00"
    if case == "object-dtype":
        records[columns] = records[columns].astype(object)
    elif case == "index-at-its-bound":
        records[columns] = records[columns].astype(np.uint64)
        records[columns][-1] = bound(records, head)
    elif case == "indptr-not-monotone":
        records[indptr] = swap_first_rise(records[indptr])
    elif case == "count-not-the-rows":
        records[counted] = records[counted][: records[counted].tobytes().rindex(b"\n") if name == "cardiac.tsv" else -1]
    return records


@pytest.mark.parametrize(
    "case", ["truncated", "trailing-bytes", "object-dtype", "index-at-its-bound", "indptr-not-monotone",
             "count-not-the-rows"],
)
@pytest.mark.parametrize("name", sorted(RECORD_FILES))
def test_damaged_records_refused_through_the_cli(chain, tmp_path, capsys, name, case):
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / name
    head, records = npy_records(path)
    result = damaged(case, name, path.read_bytes(), head, records)
    if isinstance(result, bytes):
        path.write_bytes(result)
    else:
        write_npy_records(path, head, result)
    capsys.readouterr()
    assert main([RECORD_FILES[name][0], "--config", str(config), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1


def test_random_byte_edits_load_or_are_refused_with_the_path(chain, tmp_path, capsys):
    """1 to 4 random bytes overwritten, deleted or inserted anywhere in a record file: through the CLI, each case
    exits 0, or 2 naming the file."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    rng = random.Random(26)
    outcomes = Counter()
    for name, commands in (("cardiac.tsv", (["filter"], ["show"])), ("features_train.txt", (["show"],))):
        path = tmp_path / "out" / name
        original = path.read_bytes()
        for _ in range(40):
            path.write_bytes(byte_edited(rng, original))
            for command in commands:
                args = [*command, str(path)] if command == ["show"] else [*command, "--config", str(config),
                                                                         "--output", str(tmp_path / "out")]
                code = main(args)
                err = capsys.readouterr().err
                assert code == 0 or code == 2 and str(path) in err, (name, command, err)
                outcomes[code] += 1
        path.write_bytes(original)
    assert outcomes[2] > outcomes[0] > 0  # most edits are refused; some, such as a count raised, load


def byte_edited(rng: random.Random, original: bytes) -> bytes:
    """``original`` with 1 to 4 random bytes overwritten, deleted or inserted."""
    data = bytearray(original)
    for _ in range(rng.randint(1, 4)):
        at, edit = rng.randrange(len(data)), rng.choice(("overwrite", "delete", "insert"))
        if edit == "overwrite":
            data[at] = rng.randrange(256)
        elif edit == "delete":
            del data[at]
        else:
            data.insert(at, rng.randrange(256))
    return bytes(data)


# the settings under which a stage reads an input that it reads only under some settings
READ_WITH = {"stopwords": {"vocab_stopwords": "drop"}, "embeddings": {"features": "embeddings"}}


def with_input(config: Path, root: Path, name: str, data: bytes) -> tuple[Path, Path]:
    """(a copy of ``config`` whose input ``name``, such as ``mar``, holds ``data``, with the settings its reading
    stage needs; that input), both in ``root``."""
    raw = json.loads(config.read_text(encoding="utf-8"))
    path = root / Path(raw["paths"][name]).name
    path.write_bytes(data)
    raw["paths"][name] = str(path)
    raw.update(READ_WITH.get(name, {}))
    (root / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return root / "config.json", path


def input_bytes(config: Path, name: str) -> bytes:
    return Path(json.loads(config.read_text(encoding="utf-8"))["paths"][name]).read_bytes()


def sweep(chain, tmp_path, capsys, rng: random.Random, inputs) -> Counter:
    """Each (input, reading stages, number of edits) of ``inputs``, edited as above and run through the CLI, each
    input on its own copy of the outputs: the (input, exit code) counts, once each case exits 0, or 2 naming the
    file."""
    config, out = chain
    outcomes = Counter()
    for name, stages, edits in inputs:
        shutil.copytree(out, tmp_path / name / "out")
        original = input_bytes(config, name)
        for _ in range(edits):
            damaged, path = with_input(config, tmp_path, name, byte_edited(rng, original))
            for stage in stages:
                code = main([stage, "--config", str(damaged), "--output", str(tmp_path / name / "out")])
                err = capsys.readouterr().err
                assert code == 0 or code == 2 and str(path) in err, (name, stage, err)
                outcomes[name, code] += 1
    return outcomes


def test_random_byte_edits_of_the_alerts_inputs_run_or_are_refused_with_the_path(chain, tmp_path, capsys):
    """The same edits of ``mar.tsv`` and ``catalog.tsv`` through ``alerts``, and of ``catalog.tsv`` through
    ``label``: each case exits 0, or 2 naming the file."""
    outcomes = sweep(chain, tmp_path, capsys, random.Random(28), [("mar", ("alerts",), 30),
                                                                 ("catalog", ("alerts", "label"), 12)])
    assert all(outcomes[name, code] for name in ("mar", "catalog") for code in (0, 2))


def test_random_byte_edits_of_the_lexicon_stopwords_and_embeddings_run_or_are_refused_with_the_path(
    chain, tmp_path, capsys
):
    """The same edits of ``lexicon.tsv`` through ``ingest`` and ``label``, and of the stopword list and the
    embeddings through ``featurize``: each case exits 0, or 2 naming the file."""
    inputs = [("lexicon", ("ingest", "label"), 16), ("stopwords", ("featurize",), 12),
              ("embeddings", ("featurize",), 20)]
    outcomes = sweep(chain, tmp_path, capsys, random.Random(29), inputs)
    assert all(outcomes[name, code] for name, _, _ in inputs for code in (0, 2))


# an input, and a stage that reads it
INPUT_READERS = [("mar", "alerts"), ("catalog", "label"), ("catalog", "alerts"), ("lexicon", "ingest"),
                 ("lexicon", "label"), ("stopwords", "featurize"), ("embeddings", "featurize")]


@pytest.mark.parametrize("name, stage", INPUT_READERS)
def test_an_input_line_that_is_not_utf8_exits_2_naming_its_line(chain, tmp_path, capsys, name, stage):
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    data = input_bytes(config, name)
    last = data.rindex(b"\n", 0, len(data) - 1) + 1  # the last line, whose number is the count of line ends
    lineno = data.count(b"\n")
    damaged, path = with_input(config, tmp_path, name, data[:last] + b"\xff" + data[last:])
    capsys.readouterr()
    assert main([stage, "--config", str(damaged), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{path}:{lineno}: not valid UTF-8" in err[0]


# an input refused as a whole: (input, the stage that reads it, the input's edit, the refusal)
WHOLE_INPUT_REFUSALS = [
    ("embeddings", "featurize", lambda data: b"\n \n", "embedding table is empty"),
    ("lexicon", "label", lambda data: data.replace(b"\t1\n", b"\t0\n"), "cardiac drug set is empty"),
]


@pytest.mark.parametrize("name, stage, edit, message", WHOLE_INPUT_REFUSALS, ids=["no-vectors", "no-cardiac-drug"])
def test_an_input_refused_as_a_whole_exits_2_naming_the_file_and_no_line(chain, tmp_path, capsys, name, stage, edit,
                                                                         message):
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    damaged, path = with_input(config, tmp_path, name, edit(input_bytes(config, name)))
    capsys.readouterr()
    assert main([stage, "--config", str(damaged), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {message}")


# each line-format input: its reader, its good lines ('#' lines among them in the formats with comments), and a line
# its format refuses (None: any UTF-8 line is a stopword)
LINE_FORMATS = {
    "lexicon": (DrugLexicon.load, ["# drug_id\tphrase\tflag", "d1\taspirin\t1", "d2\twarfarin sodium\t0"],
                "d3\theparin"),
    "catalog": (InteractionCatalog.load, ["# a\tb\teffect", "d1\td2\tAspirin raises warfarin."], "d1\td3"),
    "mar": (parse_mar, ["patient_id\tdrug\ttimestamp", "p1\td1\t2024-03-01T00:00:00Z"], "p1\td2\tnoon"),
    "stopwords": (load_stopwords, ["# English", "the", "of"], None),
    "embeddings": (EmbeddingTable.load, ["x 1.0 0.0", "y 0.0 1.0"], "z 1.0 zero"),
}
BAD_LINES = [(name, bad) for name, (_, _, malformed) in LINE_FORMATS.items()
             for bad in ("not-utf8", "malformed")[: 1 + (malformed is not None)]]


@pytest.mark.parametrize("name, bad", BAD_LINES)
def test_an_input_refusal_names_its_line_under_a_byte_order_mark_and_every_line_end(tmp_path, name, bad):
    """LF, CR LF and lone CR each end a line, a byte-order mark adds none, and blank and '#' lines count."""
    reader, good, malformed = LINE_FORMATS[name]
    comment = ["  # a comment"] if good[0].startswith("#") else []
    before = [*good, "", " \t", *comment, ""]
    text = "".join(line + end for line, end in zip(before, itertools.cycle(["\r\n", "\r", "\n"])))
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    reader(path)  # loads
    line = good[-1].encode() + b"\xff" if bad == "not-utf8" else malformed.encode()
    path.write_bytes(b"\xef\xbb\xbf" + text.encode() + line + b"\r\n")
    lineno = len(re.findall(r"\r\n|\r|\n", text)) + 1  # the line ends before the bad line, each of the three kinds
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:{lineno}: ')}"):
        reader(path)


@pytest.mark.parametrize("stage", ["featurize", "diagnose-split"])
@pytest.mark.parametrize("kind", ["abstract", "sample"])
def test_a_row_missing_from_the_assignment_exits_2_naming_the_file(chain, tmp_path, capsys, kind, stage):
    """A row deleted from ``assignment.tsv`` under its intact header is refused with the file's path."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "assignment.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{kind}\t"))
    key = lines[i].split("\t")[1]
    path.write_text("".join(lines[:i] + lines[i + 1 :]), encoding="utf-8")
    capsys.readouterr()
    assert main([stage, "--config", str(config), "--output", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {kind} {key!r} missing from the split assignment"]


@pytest.mark.parametrize("stage", ["split", "featurize", "diagnose-split"])
def test_a_repeated_sample_exits_2_naming_its_line(chain, tmp_path, capsys, stage):
    """A ``samples.tsv`` that holds one (cardiac, other) row twice, under its intact header, is refused at the copy."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "samples.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    path.write_text("".join(lines[: i + 4] + lines[i : i + 1] + lines[i + 4 :]), encoding="utf-8")  # at line i + 5
    capsys.readouterr()
    assert main([stage, "--config", str(config), "--output", str(tmp_path / "out")]) == 2
    cardiac, other = lines[i].split("\t")[:2]
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:{i + 5}: repeated sample {cardiac}|{other}"]


def directory_input(name: str, stage: str):
    """A case of :data:`OS_REFUSALS`: ``stage`` run with the input ``name`` an empty directory."""

    def case(config: Path, root: Path) -> tuple[list[str], Path]:
        raw = json.loads(config.read_text(encoding="utf-8"))
        (root / name).mkdir()
        raw["paths"][name] = str(root / name)
        (root / "config.json").write_text(json.dumps(raw), encoding="utf-8")
        return [stage, "--config", str(root / "config.json"), "--output", str(root / "out")], root / name

    return case


# a path the system refuses: case -> (config, a directory holding the file "f") -> (the CLI arguments, the path)
OS_REFUSALS = {
    "show-missing": lambda config, root: (["show", str(root / "absent")], root / "absent"),
    "show-directory": lambda config, root: (["show", str(root)], root),
    "output-is-a-file": lambda config, root: (["label", "--config", str(config), "--output", str(root / "f")],
                                              root / "f"),
    "output-under-a-file": lambda config, root: (["label", "--config", str(config), "--output", str(root / "f" / "o")],
                                                 root / "f" / "o"),
    "lexicon-directory-ingest": directory_input("lexicon", "ingest"),
    "catalog-directory-label": directory_input("catalog", "label"),
    "mar-directory-alerts": directory_input("mar", "alerts"),
}


@pytest.mark.parametrize("case", sorted(OS_REFUSALS))
def test_a_path_the_system_refuses_exits_2_naming_it(chain, tmp_path, capsys, case):
    config, _ = chain
    (tmp_path / "f").write_text("a file\n", encoding="utf-8")
    argv, path = OS_REFUSALS[case](config, tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err and len(err.splitlines()) == 1
