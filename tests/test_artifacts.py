"""The artifact codec: header format, digest checks, missing inputs and atomic writes; and the refusals of damaged
files, driven by a reader table derived from the stage table, ending in one sweep of byte edits over every read."""

import functools
import io
import itertools
import json
import random
import re
import shutil
from collections import Counter
from pathlib import Path
from typing import Iterator
from xml.sax.saxutils import escape

import numpy as np
import pytest

from ddimine import artifacts, cli
from ddimine.cli import main
from ddimine.config import PATH_RULES, PATHS, load_config
from ddimine.corpus import (
    DrugLexicon, encode_abstracts, load_abstracts, load_stopwords,
)
from ddimine.errors import ArtifactMismatchError, MissingArtifactError, ValidationError
from ddimine.features import encode_matrix, load_embeddings
from ddimine.labeling import InteractionCatalog
from ddimine.mar_alerts import parse_mar
from ddimine.pipeline import ARTIFACTS, STAGES, run_all, run_stage
from ddimine.synth import SynthParams, write_dataset
from helpers import KeptAbstract, corpus_of, dense_matrix, load_corpus_oracle, read_body, same_corpus, save, write_tar

# The reader table, derived from the stage table: each artifact a stage reads, as (artifact, stage), and each input
# file, as (path field, stage).  A stage reads an input under the settings that config.PATH_RULES says need it.
ARTIFACT_READS = [(name, stage) for stage, spec in STAGES.items() for name in spec.reads]
INPUT_READS = [(key, stage) for stage, spec in STAGES.items() for key in spec.config if key in PATHS]


def readers(name: str) -> list[str]:
    """The stages that read the artifact ``name``, in chain order."""
    return [stage for artifact, stage in ARTIFACT_READS if artifact == name]


def reading(key: str, stage: str) -> list[str]:
    """The stages to run in turn on an edited input ``key`` for ``stage`` to read it: each earlier stage that declares
    it and writes an artifact ``stage`` reads, then ``stage``; so filter meets the ``cardiac.tsv`` of an edited
    lexicon, and label reads the lexicon itself."""
    order = list(STAGES)
    return [s for s in order[: order.index(stage)] if key in STAGES[s].config
            and set(STAGES[s].writes) & set(STAGES[stage].reads)] + [stage]


def npy_bodied(path: Path) -> bool:
    with artifacts.opened(path) as (_, fields):
        return fields.get("body") == "npy"


def stage_args(stage: str, config: Path, output: Path) -> list[str]:
    return [stage, "--config", str(config), "--output", str(output)]


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
@pytest.mark.parametrize("name, producer, stage", [(name, ARTIFACTS[name], stage) for name, stage in ARTIFACT_READS])
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
    assert main(stage_args(stage, config, cfg.output)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and len(err.splitlines()) == 1


def test_header_block_then_body(tmp_path):
    path = tmp_path / "cv_results.tsv"
    fields = {"digest": "abc", "seed": 7, "ratios": "0.5 0.5"}
    body = "# lambda\tmean_auc\n0.1\t0.9\n# best_lambda: 0.1\n"
    artifacts.write(path, "cv-results", fields, body)
    header = "# ddimine cv-results\n# digest: abc\n# seed: 7\n# ratios: 0.5 0.5\n"
    assert path.read_text(encoding="utf-8") == header + body
    body, fields = read_body(path)
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
    body, fields = read_body(path)
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


@pytest.mark.parametrize("name, stage", ARTIFACT_READS)
def test_a_body_line_that_is_not_utf8_exits_2_naming_its_line(chain, tmp_path, capsys, name, stage):
    """A byte that is not UTF-8 at the start of the body's last line: a text body is refused at that line, an npy
    body, which has no lines, as a damaged file."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / name
    data = path.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1  # the last line, whose number is the count of line ends
    lineno = data.count(b"\n")
    path.write_bytes(data[:last] + b"\xff" + data[last:])
    capsys.readouterr()
    assert main(stage_args(stage, config, tmp_path / "out")) == 2
    err = capsys.readouterr().err.splitlines()
    refusal = f"error: {path}: " if npy_bodied(path) else f"error: {path}:{lineno}: not valid UTF-8"
    assert len(err) == 1 and err[0].startswith(refusal)


def first_weight(text: str) -> str:
    return re.search(r"^w .*$", text, re.M).group()


# a model file's body edited under its intact header: each edit, and the refusal of the line it damages
MODEL_DAMAGES = {
    "nan-weight": (lambda text: text.replace(first_weight(text), first_weight(text).rsplit(" ", 1)[0] + " nan"),
                   "malformed model file: 'nan' is not a finite number"),
    "unknown-loss": (lambda text: text.replace("loss logistic", "loss banana"),
                     "malformed model file: unknown loss 'banana'"),
    "repeated-weight-column": (lambda text: text + first_weight(text) + "\n",
                               "malformed model file: weight column .* repeated"),
    "repeated-lambda": (lambda text: text + re.search(r"^lambda .*\n", text, re.M).group(),
                        "malformed model file: lambda repeated"),
    "extra-field-on-a-weight": (lambda text: text.replace(first_weight(text), first_weight(text) + " 1"),
                                "malformed model file: 'w .* 1' is no setting or weight line"),
}


@pytest.mark.parametrize("case", sorted(MODEL_DAMAGES))
def test_a_damaged_model_file_exits_2_naming_its_line(chain, tmp_path, capsys, case):
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "model.txt"
    edit, refusal = MODEL_DAMAGES[case]
    before = path.read_text(encoding="utf-8").splitlines()
    path.write_text(edit("\n".join(before) + "\n"), encoding="utf-8")
    after = path.read_text(encoding="utf-8").splitlines()
    lineno = next(i for i, (a, b) in enumerate(itertools.zip_longest(before, after), 1) if a != b)
    capsys.readouterr()
    assert main(stage_args("evaluate", config, tmp_path / "out")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(f"error: {re.escape(str(path))}:{lineno}: {refusal}", err[0]), err


def test_a_text_kept_corpus_under_a_current_digest_is_refused(chain, tmp_path, capsys):
    """A kept corpus with the older text body passes the digest check, which covers inputs, not the format."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "cardiac.tsv"
    abstracts, header = load_corpus_oracle(path)
    lines = [f"{ab.id}\t{' '.join(sorted(ab.drug_mentions))}\t{' '.join(ab.tokens)}\n" for ab in abstracts]
    # the text the older format wrote, under the same header
    artifacts.write(path, "tokenized-abstracts", header, "".join(["# id\tmentions\ttokens\n", *lines]))
    for stage in readers("cardiac.tsv"):
        capsys.readouterr()
        assert main(stage_args(stage, config, tmp_path / "out")) == 2
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


# record file -> (its columns record, indptr record and a record whose count must match the rows, by position; and its
# columns' bound, read off the records and the header)
RECORD_FILES = {
    "cardiac.tsv": (6, 5, 0, lambda records, head: len(records[4].tobytes().split(b"\n"))),
    "features_train.txt": (1, 0, 5, lambda records, head: int(head.split(b"# dims: ")[1].split(b"\n")[0])),
}


def damaged(case: str, name: str, data: bytes, head: bytes, records: list[np.ndarray]) -> bytes | list[np.ndarray]:
    """The file's bytes, or its records, with one damage of ``case``."""
    columns, indptr, counted, bound = RECORD_FILES[name]
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
    assert main(stage_args(readers(name)[0], config, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1


def configured(config: Path, root: Path, paths: dict[str, Path], settings: dict | None = None) -> Path:
    """A copy of ``config``, in ``root``, with ``paths`` and ``settings`` set."""
    root.mkdir(parents=True, exist_ok=True)
    raw = json.loads(config.read_text(encoding="utf-8"))
    raw["paths"].update({key: str(path) for key, path in paths.items()})
    raw.update(settings or {})
    (root / "config.json").write_text(json.dumps(raw), encoding="utf-8")
    return root / "config.json"


def with_input(config: Path, root: Path, name: str, data: bytes) -> tuple[Path, Path]:
    """(a copy of ``config`` whose input ``name``, such as ``mar``, holds ``data``, with the settings under which
    its stages read it; that input), both in ``root``."""
    path = root / Path(json.loads(config.read_text(encoding="utf-8"))["paths"][name]).name
    settings = {setting: value for (setting, value), needed in PATH_RULES.items() if name in needed}
    damaged = configured(config, root, {name: path}, settings)
    path.write_bytes(data)
    return damaged, path


def input_bytes(config: Path, name: str) -> bytes:
    return Path(json.loads(config.read_text(encoding="utf-8"))["paths"][name]).read_bytes()


@pytest.mark.parametrize("name, stage", INPUT_READS)
def test_an_input_line_that_is_not_utf8_exits_2_naming_its_line(chain, tmp_path, capsys, name, stage):
    """The first stage of :func:`reading` refuses it: the stage itself, but for filter, which reads the lexicon only
    once ingest has read it into ``cardiac.tsv``."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    data = input_bytes(config, name)
    last = data.rindex(b"\n", 0, len(data) - 1) + 1  # the last line, whose number is the count of line ends
    lineno = data.count(b"\n")
    damaged, path = with_input(config, tmp_path, name, data[:last] + b"\xff" + data[last:])
    capsys.readouterr()
    assert main(stage_args(reading(name, stage)[0], damaged, tmp_path / "out")) == 2
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
    assert main(stage_args(stage, damaged, tmp_path / "out")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: {message}")


# each line-format input: its reader, its good lines ('#' lines among them in the formats with comments), and a line
# its format refuses (None: any UTF-8 line is a stopword); every format refuses a line that is not UTF-8 or holds NUL
LINE_FORMATS = {
    "lexicon": (DrugLexicon.load, ["# drug_id\tphrase\tflag", "d1\taspirin\t1", "d2\twarfarin sodium\t0"],
                "d3\theparin"),
    "catalog": (InteractionCatalog.load, ["# a\tb\teffect", "d1\td2\tAspirin raises warfarin."], "d1\td3"),
    "mar": (parse_mar, ["patient_id\tdrug\ttimestamp", "p1\td1\t2024-03-01T00:00:00Z"], "p1\td2\tnoon"),
    "stopwords": (load_stopwords, ["# English", "the", "of"], None),
    "embeddings": (functools.partial(load_embeddings, stopwords=()), ["x 1.0 0.0", "y 0.0 1.0"], "z 1.0 zero"),
}
BAD_LINES = [(name, bad) for name, (_, _, malformed) in LINE_FORMATS.items()
             for bad in ("not-utf8", "nul", "malformed")[: 2 + (malformed is not None)]]


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
    line = malformed.encode() if bad == "malformed" else good[-1].encode() + {"not-utf8": b"\xff", "nul": b"\0"}[bad]
    path.write_bytes(b"\xef\xbb\xbf" + text.encode() + line + b"\r\n")
    lineno = len(re.findall(r"\r\n|\r|\n", text)) + 1  # the line ends before the bad line, each of the three kinds
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}:{lineno}: ')}"):
        reader(path)


@pytest.mark.parametrize("stage", readers("samples.tsv"))
def test_a_repeated_sample_exits_2_naming_its_line(chain, tmp_path, capsys, stage):
    """A ``samples.tsv`` that holds one (cardiac, other) row twice, under its intact header, is refused at the copy."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "samples.tsv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    path.write_text("".join(lines[: i + 4] + lines[i : i + 1] + lines[i + 4 :]), encoding="utf-8")  # at line i + 5
    capsys.readouterr()
    assert main(stage_args(stage, config, tmp_path / "out")) == 2
    cardiac, other = lines[i].split("\t")[:2]
    assert capsys.readouterr().err.splitlines() == [f"error: {path}:{i + 5}: repeated sample {cardiac}|{other}"]


def directory_input(config: Path, root: Path, name: str, stage: str) -> tuple[list[str], Path]:
    """A case of :data:`OS_REFUSALS`: ``stage`` run with the input ``name`` an empty directory."""
    (root / name).mkdir()
    return stage_args(stage, configured(config, root, {name: root / name}), root / "out"), root / name


# a path the system refuses: case -> (config, a directory holding the file "f") -> (the CLI arguments, the path)
OS_REFUSALS = {
    "show-missing": lambda config, root: (["show", str(root / "absent")], root / "absent"),
    "show-directory": lambda config, root: (["show", str(root)], root),
    "output-is-a-file": lambda config, root: (stage_args("label", config, root / "f"), root / "f"),
    "output-under-a-file": lambda config, root: (stage_args("label", config, root / "f" / "o"), root / "f" / "o"),
    "lexicon-directory-ingest": functools.partial(directory_input, name="lexicon", stage="ingest"),
    "catalog-directory-label": functools.partial(directory_input, name="catalog", stage="label"),
    "mar-directory-alerts": functools.partial(directory_input, name="mar", stage="alerts"),
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


def corpus_layouts(config: Path, root: Path) -> list[tuple[Path, Path]]:
    """The chain's ``lines`` corpus, in two halves, laid out under ``root`` as a directory of two files, a tar
    archive of two members and a PubMed XML file: each as (a copy of ``config`` that reads it, the file to edit)."""
    lines = input_bytes(config, "corpus").splitlines(keepends=True)
    halves = {"a.tsv": b"".join(lines[: len(lines) // 2]), "b.tsv": b"".join(lines[len(lines) // 2 :])}
    (root / "corpus").mkdir(parents=True)
    for name, payload in halves.items():
        (root / "corpus" / name).write_bytes(payload)
    write_tar(root / "corpus.tar", halves)
    records = (line.decode().rstrip("\n").split("\t", 1) for line in lines)
    (root / "corpus.xml").write_text("<PubmedArticleSet>\n" + "".join(
        f"<PubmedArticle><MedlineCitation><PMID>{escape(pmid)}</PMID><Article><Abstract><AbstractText>{escape(text)}"
        "</AbstractText></Abstract></Article></MedlineCitation></PubmedArticle>\n" for pmid, text in records
    ) + "</PubmedArticleSet>\n", encoding="utf-8")
    return [(configured(config, root / "directory", {"corpus": root / "corpus"}), root / "corpus" / "b.tsv"),
            (configured(config, root / "tar", {"corpus": root / "corpus.tar"}), root / "corpus.tar"),
            (configured(config, root / "xml", {"corpus": root / "corpus.xml"}, {"corpus_format": "pubmed-xml"}),
             root / "corpus.xml")]


# random edits of each read: of an artifact, as many as the sweeps this one replaced made; of an input, as of the MAR
EDITS = {"artifact": 40, "input": 30}


def sweep_cases(config: Path, out: Path, root: Path) -> Iterator[tuple[str, Path, bytes, list[list[str]]]]:
    """Each read of the reader table, set up under ``root``, as (its kind, the file to edit, its bytes, the commands
    that read it in turn).  An artifact goes through each stage that reads it, and through ``show`` if its body is
    npy; an input through the stages of :func:`reading`; the config through each stage that reads no artifact; and
    the corpus also as a directory, a tar archive and a PubMed XML file."""
    work = root / "out"
    for name, stage in ARTIFACT_READS:
        yield "artifact", work / name, (out / name).read_bytes(), [stage_args(stage, config, work)]
    for path in sorted(path for path in out.iterdir() if path.is_file() and npy_bodied(path)):
        yield "artifact", work / path.name, path.read_bytes(), [["show", str(work / path.name)]]
    for key, stage in INPUT_READS:
        damaged, path = with_input(config, root / f"{key}-{stage}", key, input_bytes(config, key))
        yield "input", path, path.read_bytes(), [stage_args(s, damaged, work) for s in reading(key, stage)]
    shutil.copyfile(config, root / "config.json")
    for stage in (stage for stage, spec in STAGES.items() if not spec.reads):
        yield "input", root / "config.json", config.read_bytes(), [stage_args(stage, root / "config.json", work)]
    for damaged, path in corpus_layouts(config, root / "layouts"):
        yield "input", path, path.read_bytes(), [stage_args("ingest", damaged, work)]


def test_byte_edits_of_every_read_run_or_are_refused_with_the_path(chain, tmp_path, capsys, monkeypatch):
    """1 to 4 random bytes overwritten, deleted or inserted anywhere in each file of :func:`sweep_cases`, run through
    the commands that read it in turn, up to the first refusal, on fresh copies of the artifacts they read: each
    exits 0 with no error, or 2 naming the file on the error's one line (a config refusal lists its violations
    after).  Most edits of an artifact are refused, yet ``cardiac.tsv``, ``samples.tsv`` and ``model.txt`` each load
    at least once (a count raised, say); each input read both runs and is refused."""
    config, out = chain
    shutil.copytree(out, tmp_path / "out")
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))  # built once: 1.3 ms of each run
    rng = random.Random(34)
    outcomes = Counter()
    for kind, path, original, commands in sweep_cases(config, out, tmp_path):
        case = path.name, commands[-1][0]
        reads = {name for argv in commands if argv[0] in STAGES for name in STAGES[argv[0]].reads}  # show is no stage
        for _ in range(EDITS[kind]):
            for name in reads:
                shutil.copyfile(out / name, tmp_path / "out" / name)
            path.write_bytes(byte_edited(rng, original))
            for argv in commands:
                code, err = main(argv), capsys.readouterr().err.splitlines()
                assert not code and not err or code == 2 and err[0].startswith("error: ") and str(path) in err[0] \
                    and all(line.startswith("  - ") for line in err[1:]), (argv, err)
                if code:
                    break
            outcomes[case, code] += 1
        ran, refused = outcomes[case, 0], outcomes[case, 2]
        assert refused > ran if kind == "artifact" else ran and refused, case
    for name in ("cardiac.tsv", "samples.tsv", "model.txt"):
        assert any(outcomes[(name, command), 0] for command in [*readers(name), "show"]), name
    # each artifact read, and each npy-bodied artifact through show; each input read, the config through each stage that
    # reads no artifact, and the corpus's 3 layouts
    shown = sum(npy_bodied(path) for path in out.iterdir() if path.is_file())
    inputs = len(INPUT_READS) + sum(not spec.reads for spec in STAGES.values()) + 3
    assert outcomes.total() == (len(ARTIFACT_READS) + shown) * EDITS["artifact"] + inputs * EDITS["input"]
