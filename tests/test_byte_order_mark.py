"""A UTF-8 byte-order mark at the start of an input file is read as absent, by every reader of the inputs."""

import numpy as np
import pytest

from ddimine.config import load_config
from ddimine.corpus import DrugLexicon, load_corpus, load_stopwords
from ddimine.features import EmbeddingTable
from ddimine.labeling import InteractionCatalog
from ddimine.mar_alerts import parse_mar
from ddimine.synth import SynthParams, write_dataset

BOM = b"\xef\xbb\xbf"  # U+FEFF in UTF-8


def plain(value):
    """``value`` as lists, dicts and scalars, so that numpy arrays compare by their elements."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: plain(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(val) for val in value]
    return value


def lexicon(path):
    loaded = DrugLexicon.load(path)
    return loaded.phrases, sorted(loaded.cardiac)


def catalog(path):
    loaded = InteractionCatalog.load(path)
    return [(pair, loaded.display(*pair), loaded.description(*pair)) for pair in loaded.pairs()]


# input file -> what its reader makes of it, in comparable form
READERS = {
    "lexicon": lexicon,
    "catalog": catalog,
    "mar": lambda path: plain(parse_mar(path)),
    "stopwords": load_stopwords,
    "embeddings": lambda path: plain(EmbeddingTable.load(path).vectors),
    "corpus": lambda path: load_corpus(path, "lines"),
    "config": load_config,
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    return write_dataset(SynthParams(seed=5), tmp_path_factory.mktemp("bom"))


@pytest.mark.parametrize("name", list(READERS))
def test_a_leading_byte_order_mark_reads_as_absent(dataset, name, tmp_path):
    path = dataset[name]
    marked = tmp_path / f"marked_{path.name}"
    marked.write_bytes(BOM + path.read_bytes())
    expected = READERS[name](path)
    assert expected  # the file holds something to compare
    assert READERS[name](marked) == expected
