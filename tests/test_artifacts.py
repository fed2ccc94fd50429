"""The artifact codec: header format, digest checks, missing inputs and atomic writes."""

import shutil
from pathlib import Path

import pytest

from ddimine import artifacts
from ddimine.cli import main
from ddimine.config import load_config
from ddimine.corpus import AbstractColumns, encode_abstracts, load_abstracts
from ddimine.errors import ArtifactMismatchError, MissingArtifactError, ValidationError
from ddimine.features import encode_matrix
from ddimine.pipeline import STAGES, run_all, run_stage
from ddimine.synth import SynthParams, write_dataset
from helpers import dense_matrix, save

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
    path = tmp_path / "cardiac.tsv"
    ids = ["abstract-é", "抄録 7", "á𝛼"]  # two-, three- and four-byte characters
    corpus = AbstractColumns(ids, ["d1", "d1 d2", ""], ["é ü", "ß", "x 𝛼 y"])
    save(path, encode_abstracts(corpus, note="ünïcode"), {"digest": "abc"})
    body, fields = artifacts.read(path)
    assert fields == {"digest": "abc", "note": "ünïcode"}
    assert list(body) == ["# id\tmentions\ttokens", *map("\t".join, zip(ids, corpus.mentions, corpus.tokens))]
    assert load_abstracts(path) == corpus and load_abstracts(path).header == fields
    artifacts.check_digest(path, "abc", "ingest")
    with pytest.raises(ArtifactMismatchError):
        artifacts.check_digest(path, "abd", "ingest")
