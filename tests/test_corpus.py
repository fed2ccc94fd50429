import io
import re
import tarfile
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddimine import corpus
from ddimine.corpus import (
    _TOKEN_RE,
    Abstract,
    AbstractColumns,
    CorpusStats,
    DrugLexicon,
    corpus_stats,
    encode_abstracts,
    load_abstracts,
    load_corpus,
    parse_abstracts,
    render_stats,
    _parse_lines,
    tokenize,
    tokenize_abstracts,
)
from ddimine.cli import main
from ddimine.errors import CorpusParseError, ValidationError
from ddimine.pipeline import stage_ingest
from ddimine.synth import SynthParams, write_dataset
from helpers import KeptAbstract, corpus_of, load_corpus_oracle, match_oracle, same_corpus, save

FIG1_SENTENCE = "Bumetanide and furosemide in heart failure."

_LEXICON = DrugLexicon(
    {
        "furosemide": [("furosemide",)],
        "bumetanide": [("bumetanide",)],
        "digoxin": [("digoxin",)],
        "aspirin": [("aspirin",), ("acetyl", "salicylic", "acid")],
    },
    cardiac={"furosemide", "bumetanide"},
)


@pytest.fixture
def small_lexicon():
    return _LEXICON


def ingested(texts, lexicon) -> AbstractColumns:
    """The kept corpus of ``texts`` (ids "0", "1", ...) through ``tokenize_abstracts`` and the column builder."""
    codes: dict[str, int] = {}
    tokenized = tokenize_abstracts([Abstract(str(i), text) for i, text in enumerate(texts)], codes)
    return AbstractColumns.mentioning(tokenized, codes, lexicon)


def matches_oracle(token_lists, lexicon) -> bool:
    """Whether ingest keeps of abstracts that hold ``token_lists`` what ``match_oracle`` finds a drug in, with
    those drugs and the words each abstract holds."""
    rows = [KeptAbstract(str(i), tuple(tokens), frozenset(match_oracle(tokens, lexicon)))
            for i, tokens in enumerate(token_lists)]
    expected = corpus_of([ab for ab in rows if ab.drug_mentions])
    return same_corpus(ingested(map(" ".join, token_lists), lexicon), expected)


def mentions(text: str, lexicon) -> set[str]:
    """The drugs ingest finds in one abstract."""
    kept = ingested([text], lexicon)
    return {kept.drugs[j] for j in kept.mentions.indices.tolist()}


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_opening_sentence(self):
        assert tokenize(FIG1_SENTENCE) == ["bumetanide", "and", "furosemide", "in", "heart", "failure"]

    def test_quotes_and_edge_hyphen(self):
        # hand-worked: curly quotes separate; the hyphen after the closing
        # quote has no run to its left, so it does not join
        assert tokenize("“Dose”-response curves") == ["dose", "response", "curves"]

    def test_internal_hyphen_kept(self):
        assert tokenize("state-of-the-art dose--response") == ["state-of-the-art", "dose", "response"]

    def test_digits(self):
        assert tokenize("40 mg and 2.0 mg") == ["40", "mg", "and", "2", "0", "mg"]

    def test_deterministic(self):
        text = "Bumetanide (1.0 and 2.0 mg) -- “Dose”-response!"
        assert tokenize(text) == tokenize(text)

    # characters where a fast path could part from the regex: non-ASCII letters, digits and
    # combining marks, '_', hyphen runs, Unicode spaces and line breaks, and letters whose
    # lowercase is ASCII (KELVIN SIGN) or two characters long (I WITH DOT ABOVE)
    TRICKY = list("aZ9-_ .,;\t\n\x0b\x1c") + ["\u00e9", "\u0301", "\u0663", "\u540d", "\u00a0", "\u2028", "\x85",
                                              "\u212a", "\u0130", "\u00df", "\u01c5", "\u2012", "\uff3f", "\u00b2"]

    @given(st.text(st.sampled_from(TRICKY) | st.characters(), max_size=200))
    @settings(max_examples=500, deadline=None)
    def test_equals_the_regex_on_any_text(self, text):
        assert tokenize(text) == _TOKEN_RE.findall(text.lower())

    @given(st.text(max_size=200))
    @settings(max_examples=200)
    def test_tokens_are_fixed_points(self, text):
        # every emitted token satisfies the tokenizer's own character rule
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()
            assert tokenize(tok) == [tok]


class TestParseLines:
    def test_empty_stream(self):
        abstracts, skipped = parse_abstracts(io.BytesIO(b""), "lines")
        assert abstracts == [] and skipped == 0

    def test_single_record(self):
        data = f"X1\t{FIG1_SENTENCE} We assessed the handling of oral bumetanide.".encode()
        abstracts, skipped = parse_abstracts(io.BytesIO(data), "lines")
        assert skipped == 0
        assert abstracts[0].id == "X1"
        assert abstracts[0].text.startswith("Bumetanide and furosemide")

    def test_record_without_body_skipped(self):
        data = b"A\tfirst text\nB\t\nC\tthird text\n"
        abstracts, skipped = parse_abstracts(io.BytesIO(data), "lines")
        assert [a.id for a in abstracts] == ["A", "C"]
        assert skipped == 1

    def test_records_break_only_at_line_ends(self):
        data = "1\tFirst abstract.\r\n2\tSecond\x0cabstract\x1ctext\u2028more.\r3\tThird\x85one.\n".encode()
        abstracts, skipped = parse_abstracts(io.BytesIO(data), "lines")
        assert [(a.id, a.text) for a in abstracts] == [
            ("1", "First abstract."), ("2", "Second\x0cabstract\x1ctext\u2028more."), ("3", "Third\x85one.")
        ]
        assert skipped == 0

    @pytest.mark.parametrize("inner", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                             ids=lambda c: f"U+{ord(c):04X}")
    @pytest.mark.parametrize("endings", [("\n", "\n"), ("\r\n", "\r\n"), ("\r", "\r"), ("\r", "\r\n"), ("\r\n", "\n")],
                             ids=["lf", "crlf", "cr", "cr-crlf", "crlf-lf"])
    def test_only_lf_crlf_and_cr_end_a_line(self, endings, inner):
        # str.splitlines would also end a line at ``inner``
        first, second = endings
        data = f"1\tone{inner}text{first}2\ttwo{second}{second}3\tthree{inner}end".encode()
        abstracts, skipped = _parse_lines(data)
        expected = [("1", f"one{inner}text"), ("2", "two"), ("3", f"three{inner}end")]
        assert [(a.id, a.text) for a in abstracts] == expected
        assert skipped == 0
        with pytest.raises(CorpusParseError, match="^line 4: record has no id$"):  # the blank line counts
            _parse_lines(data.replace(b"3\tthree", b"\tthree"))

    def test_parse_peak_is_under_four_times_the_input(self, tmp_path):
        data = write_dataset(SynthParams(words_per_abstract=150), tmp_path)["corpus"].read_bytes()
        tracemalloc.start()
        try:
            abstracts, _ = _parse_lines(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(abstracts) > 200 and peak < 4 * len(data)

    def test_duplicate_id_rejected(self):
        data = b"A\tone\nA\ttwo\n"
        with pytest.raises(ValidationError, match="duplicate"):
            parse_abstracts(io.BytesIO(data), "lines")

    def test_unknown_format(self):
        with pytest.raises(ValidationError, match="format"):
            parse_abstracts(io.BytesIO(b""), "csv")


PUBMED_DOC = b"""<?xml version="1.0"?>
<PubmedArticleSet>
  <PubmedArticle>
    <MedlineCitation>
      <PMID>101</PMID>
      <Article>
        <ArticleTitle>Bumetanide and furosemide in heart failure.</ArticleTitle>
        <Abstract><AbstractText>We assessed oral bumetanide and furosemide.</AbstractText></Abstract>
      </Article>
    </MedlineCitation>
  </PubmedArticle>
  <PubmedArticle>
    <MedlineCitation>
      <PMID>102</PMID>
      <Article><ArticleTitle>No abstract here.</ArticleTitle></Article>
    </MedlineCitation>
  </PubmedArticle>
  <PubmedArticle>
    <MedlineCitation>
      <PMID>103</PMID>
      <Article>
        <Abstract>
          <AbstractText Label="BACKGROUND">Part one.</AbstractText>
          <AbstractText Label="RESULTS">Part two.</AbstractText>
        </Abstract>
      </Article>
    </MedlineCitation>
  </PubmedArticle>
</PubmedArticleSet>
"""


class TestParsePubmedXml:
    def test_records_and_skip(self):
        abstracts, skipped = parse_abstracts(io.BytesIO(PUBMED_DOC), "pubmed-xml")
        assert [a.id for a in abstracts] == ["101", "103"]
        assert skipped == 1
        assert abstracts[0].text == (
            "Bumetanide and furosemide in heart failure. We assessed oral bumetanide and furosemide."
        )
        assert abstracts[1].text == "Part one. Part two."

    def test_invalid_xml_names_byte_offset(self):
        with pytest.raises(CorpusParseError, match="byte offset") as err:
            parse_abstracts(io.BytesIO(b"<a><b></a>"), "pubmed-xml")
        assert err.value.byte_offset is not None

    @pytest.mark.parametrize("doc", [
        b"<a>\n<b>\n</a>", b"<a>\r\n<b>\r\n</a>", b"<a>\r<b>\r</a>", b"<a>\n\r\n\r<b>\r</a>",
        "<a>é漢<b></a>".encode(), "<a>\r\né<b>\r漢</a>".encode(), "\ufeff<a>\r<b>é</a>".encode(),
    ], ids=["lf", "crlf", "cr", "mixed", "multibyte", "multibyte-after-endings", "byte-order-mark"])
    def test_invalid_xml_byte_offset_is_where_the_error_is(self, doc):
        with pytest.raises(CorpusParseError) as err:
            parse_abstracts(io.BytesIO(doc), "pubmed-xml")
        assert err.value.byte_offset == doc.rindex(b"a>")  # expat stops at the mismatched end tag's name

    def test_invalid_byte_offset_counts_the_multibyte_characters_before_it(self):
        doc = "<a>\r\né漢 ".encode() + b"\xff</a>"
        with pytest.raises(CorpusParseError, match="invalid XML") as err:
            parse_abstracts(io.BytesIO(doc), "pubmed-xml")
        assert err.value.byte_offset == doc.index(b"\xff")

    def test_duplicate_pmid_rejected(self):
        doc = PUBMED_DOC.replace(b"<PMID>103</PMID>", b"<PMID>101</PMID>")
        with pytest.raises(ValidationError, match="duplicate"):
            parse_abstracts(io.BytesIO(doc), "pubmed-xml")


@pytest.mark.parametrize(
    "fmt, doc, rec_id",
    [
        ("lines", b"a,b\tsome text\n", "a,b"),
        ("lines", b"-\tsome text\n", "-"),
        ("pubmed-xml", PUBMED_DOC.replace(b"<PMID>103</PMID>", b"<PMID>1\t3</PMID>"), "1\t3"),
        ("pubmed-xml", PUBMED_DOC.replace(b"<PMID>103</PMID>", b"<PMID>1,3</PMID>"), "1,3"),
    ],
    ids=["lines-comma", "lines-dash", "xml-tab", "xml-comma"],
)
def test_id_the_samples_column_cannot_hold_rejected(fmt, doc, rec_id):
    # assigned_samples.tsv joins abstract ids with "," and writes "-" for none
    with pytest.raises(ValidationError, match=re.escape(repr(rec_id))):
        parse_abstracts(io.BytesIO(doc), fmt)


class TestLoadCorpus:
    def test_directory(self, tmp_path):
        (tmp_path / "b.tsv").write_text("B1\tbeta text\n")
        (tmp_path / "a.tsv").write_text("A1\talpha text\n")
        abstracts, _ = load_corpus(tmp_path, "lines")
        assert [a.id for a in abstracts] == ["A1", "B1"]  # sorted file order

    def test_tar_archive(self, tmp_path):
        archive = tmp_path / "corpus.tar"
        with tarfile.open(archive, "w") as tar:
            for name, payload in [("x.xml", PUBMED_DOC)]:
                info = tarfile.TarInfo(name)
                info.size = len(payload)
                tar.addfile(info, io.BytesIO(payload))
        abstracts, skipped = load_corpus(archive, "pubmed-xml")
        assert [a.id for a in abstracts] == ["101", "103"]
        assert skipped == 1

    def test_invalid_utf8_names_the_line(self, tmp_path):
        doc = b"A1\tfine text\r\nA2\tmore\rA3\tabc \xff def\n"
        with pytest.raises(CorpusParseError, match=r"^line 3: not valid UTF-8 \(byte offset 29\)$") as err:
            parse_abstracts(io.BytesIO(doc), "lines")
        assert err.value.byte_offset == doc.index(b"\xff")
        with pytest.raises(CorpusParseError, match="invalid XML"):  # expat refuses it too
            parse_abstracts(io.BytesIO(PUBMED_DOC.replace(b"Part one.", b"Part \xff one.")), "pubmed-xml")

        single = tmp_path / "corpus.tsv"
        single.write_bytes(doc)
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir" / "a.tsv").write_text("B1\tgood\n")
        (tmp_path / "dir" / "b.tsv").write_bytes(doc)
        archive = tmp_path / "corpus.tar"
        with tarfile.open(archive, "w") as tar:
            for name, payload in [("a.tsv", b"B1\tgood\n"), ("b.tsv", doc)]:
                info = tarfile.TarInfo(name)
                info.size = len(payload)
                tar.addfile(info, io.BytesIO(payload))
        for path, name in [(single, single), (tmp_path / "dir", tmp_path / "dir" / "b.tsv"), (archive, f"{archive}:b.tsv")]:
            with pytest.raises(CorpusParseError, match=re.escape(f"{name}: line 3: not valid UTF-8")):
                load_corpus(path, "lines")

    def test_duplicate_across_files(self, tmp_path):
        (tmp_path / "a.tsv").write_text("A1\tone\n")
        (tmp_path / "b.tsv").write_text("A1\ttwo\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_corpus(tmp_path, "lines")


class TestMatchDrugs:
    """Ingest's mentions, from the word counts and the phrases' positions, against a scan of every phrase."""

    def test_fig1_mentions(self, small_lexicon):
        assert mentions(FIG1_SENTENCE, small_lexicon) == {"furosemide", "bumetanide"}
        assert matches_oracle([tokenize(FIG1_SENTENCE)], small_lexicon)

    def test_empty_tokens(self, small_lexicon):
        assert mentions("", small_lexicon) == set()
        assert matches_oracle([[], []], small_lexicon) and ingested([], small_lexicon).ids == []

    def test_multi_token_phrase(self, small_lexicon):
        tokens = ["took", "acetyl", "salicylic", "acid", "daily"]
        assert match_oracle(tokens, small_lexicon) == {"aspirin"}
        assert mentions(" ".join(tokens), small_lexicon) == {"aspirin"}

    def test_partial_phrase_no_match(self, small_lexicon):
        assert mentions("acetyl salicylic", small_lexicon) == set()

    @given(
        token_lists=st.lists(
            st.lists(st.sampled_from(["acetyl", "salicylic", "acid", "furosemide", "bumetanide", "and", "mg", "x"]),
                     max_size=200),
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_scan(self, token_lists):
        assert matches_oracle(token_lists, _LEXICON)

    # few words, so that phrases of one to three tokens often share a first token or sit inside each other; blocks
    # of three abstracts, so that a corpus spans several
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_scan_on_random_lexicons(self, data):
        words = st.sampled_from(["a", "b", "c", "d", "e"])
        phrases = st.lists(st.lists(words, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3)
        entries = data.draw(st.dictionaries(st.sampled_from([f"drug{i}" for i in range(6)]), phrases, min_size=1))
        lexicon = DrugLexicon(entries, cardiac=[])
        token_lists = data.draw(st.lists(st.lists(words, max_size=60), max_size=8))
        with mock.patch.object(corpus, "_BLOCK", 3):
            assert matches_oracle(token_lists, lexicon)

    # every phrase starts with "a", and "a" recurs in the tokens, often where no phrase follows
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_phrases_sharing_a_first_token_with_repeated_starts(self, data):
        words = st.sampled_from(["a", "b", "c"])
        phrases = st.lists(st.lists(words, max_size=3).map(lambda rest: ("a", *rest)), min_size=1, max_size=4)
        entries = data.draw(st.dictionaries(st.sampled_from([f"drug{i}" for i in range(5)]), phrases, min_size=1))
        lexicon = DrugLexicon(entries, cardiac=[])
        assert matches_oracle(data.draw(st.lists(st.lists(words, max_size=40), max_size=4)), lexicon)

    def test_longer_phrase_found_after_a_failed_start(self, small_lexicon):
        tokens = ["acetyl", "x", "acetyl", "salicylic", "x", "acetyl", "salicylic", "acid"]
        assert mentions(" ".join(tokens), small_lexicon) == match_oracle(tokens, small_lexicon) == {"aspirin"}

    def test_a_phrase_that_is_a_whole_abstract(self, small_lexicon):
        assert mentions("Acetyl salicylic acid", small_lexicon) == {"aspirin"}
        assert matches_oracle([["acetyl", "salicylic", "acid"], ["acid", "salicylic", "acetyl"]], small_lexicon)

    def test_a_phrase_whose_words_occur_apart_but_never_in_order(self, small_lexicon):
        tokens = ["acid", "acetyl", "x", "salicylic", "acetyl", "acid", "salicylic", "acetyl"]
        assert mentions(" ".join(tokens), small_lexicon) == match_oracle(tokens, small_lexicon) == set()
        assert matches_oracle([tokens, ["furosemide", *tokens]], small_lexicon)

    def test_a_phrase_with_a_repeated_word(self):
        lexicon = DrugLexicon({"d1": [("a", "a")], "d2": [("b", "a", "b")]}, cardiac=[])
        token_lists = [["a"], ["a", "b", "a"], ["b", "a", "a"], ["a", "a"], ["b", "a", "b"], ["b", "a"], ["a", "b"]]
        assert [mentions(" ".join(tokens), lexicon) for tokens in token_lists] == [
            set(), set(), {"d1"}, {"d1"}, {"d2"}, set(), set()]
        assert matches_oracle(token_lists, lexicon)


class TestFilterCardiac:
    """Ingest keeps an abstract iff it mentions a lexicon drug: the paper's filter, applied as the corpus is read."""

    LEXICON = "furosemide\tfurosemide\t1\ndigoxin\tdigoxin\t0\naspirin\tacetyl salicylic acid\t0\n"

    def _ingest(self, tmp_path, texts: dict[str, str]) -> AbstractColumns:
        """The kept corpus that the ingest stage returns for ``texts``, id -> text, as a file would decode it."""
        (tmp_path / "lexicon.tsv").write_text(self.LEXICON, encoding="utf-8")
        (tmp_path / "corpus.tsv").write_text("".join(map("{}\t{}\n".format, *zip(*texts.items()))), encoding="utf-8")
        cfg = SimpleNamespace(corpus=tmp_path / "corpus.tsv", corpus_format="lines", lexicon=tmp_path / "lexicon.tsv")
        outputs = stage_ingest(cfg)
        assert list(outputs) == ["cardiac.tsv"]
        save(tmp_path / "cardiac.tsv", outputs["cardiac.tsv"])
        return load_abstracts(tmp_path / "cardiac.tsv")

    def test_mentioning_retained_and_empty_dropped(self, tmp_path):
        # "aspirin" is a drug id, not a phrase of the lexicon: D names no drug
        kept = self._ingest(tmp_path, {"K": "Furosemide, then acetyl salicylic acid.", "D": "Aspirin was not given."})
        tokens = ("furosemide", "then", "acetyl", "salicylic", "acid")
        assert same_corpus(kept, corpus_of([KeptAbstract("K", tokens, frozenset({"aspirin", "furosemide"}))]))
        assert (kept.drugs, kept.words) == (["aspirin", "furosemide"], sorted(tokens))
        assert kept.header == {"skipped_records": "0", "retention": "0.5", "before": "2"}

    def test_subset_and_idempotent(self, tmp_path):
        texts = {f"A{i}": "digoxin daily" if i % 2 else "rest daily" for i in range(10)}
        once = self._ingest(tmp_path, texts)
        assert set(once.ids) <= texts.keys() and len(once.ids) == 5
        again = self._ingest(tmp_path, {aid: texts[aid] for aid in once.ids})
        assert same_corpus(again, once) and again.header["retention"] == "1.0"


class TestCorpusStats:
    def test_empty(self):
        assert corpus_stats(corpus_of([])) == CorpusStats(0, 0.0, 0, 0.0, 0.0, 0)

    def test_hand_example(self):
        # multisets {a,a,b} and {b,c}: 5 tokens, 3 distinct overall,
        # 4 per-abstract distinct -> avg count per word 5/4
        abstracts = [
            KeptAbstract("1", ("a", "a", "b"), frozenset()),
            KeptAbstract("2", ("b", "c"), frozenset({"d1"})),
        ]
        stats = corpus_stats(corpus_of(abstracts))
        assert stats.avg_words_per_abstract == 2.5
        assert stats.n_distinct_words == 3
        assert stats.avg_count_per_word == 5 / 4
        assert stats.avg_drugs_per_abstract == 0.5
        assert stats.max_drugs_per_abstract == 1

    def test_render_mentions_reference_figures(self):
        text = render_stats(corpus_stats(corpus_of([])))
        assert "n_abstracts\t0" in text
        assert "# avg_words_per_abstract\t149.5" in text  # documented, not asserted


class TestLexicon:
    def test_load(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text(
            "# comment\n"
            "furosemide\tFurosemide\t1\n"
            "furosemide\tLasix\t1\n"
            "aspirin\tacetyl salicylic acid\t0\n"
        )
        lex = DrugLexicon.load(path)
        assert lex.cardiac == {"furosemide"}
        assert ("acetyl", "salicylic", "acid") in lex.phrases["aspirin"]
        assert len(lex.phrases["furosemide"]) == 2

    def test_conflicting_flag_rejected(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("a\ta\t1\na\talpha\t0\n")
        with pytest.raises(ValidationError, match="conflicting"):
            DrugLexicon.load(path)

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("a\ta\tmaybe\n")
        with pytest.raises(ValidationError, match="flag"):
            DrugLexicon.load(path)

    def test_drug_id_with_whitespace_rejected(self):
        with pytest.raises(ValidationError):
            DrugLexicon({"bad id": [("bad",)]}, set())

    @pytest.mark.parametrize("bad_id", ["bad id", "bad|id", ""])
    def test_bad_drug_id_in_file_names_its_line(self, tmp_path, bad_id):
        path = tmp_path / "lexicon.tsv"
        path.write_text(f"# comment\na\talpha\t1\n{bad_id}\tbad\t0\n")
        message = f"{path}:3: drug id {bad_id!r} is empty or contains whitespace or '|'"
        with pytest.raises(ValidationError, match=re.escape(message)):
            DrugLexicon.load(path)

    @pytest.mark.parametrize("phrase", [(), ("",), ("acetyl", "")])
    def test_empty_phrase_or_token_rejected(self, phrase):
        # an empty token would match the empty string in a template pattern
        with pytest.raises(ValidationError, match="empty phrase"):
            DrugLexicon({"d": [phrase]}, set())


def test_tokenize_abstracts_deterministic(small_lexicon):
    abstracts = [Abstract("X1", FIG1_SENTENCE), Abstract("X2", "Digoxin toxicity case.")]
    runs = []
    for _ in range(2):
        codes: dict[str, int] = {}
        runs.append(([(ab.id, ab.tokens.tolist()) for ab in tokenize_abstracts(abstracts, codes)], dict(codes)))
    assert runs[0] == runs[1]
    kept = ingested([FIG1_SENTENCE, "Digoxin toxicity case."], small_lexicon)
    assert kept.ids == ["0", "1"] and kept.drugs == ["bumetanide", "digoxin", "furosemide"]
    assert [row.indices.tolist() for row in kept.mentions] == [[0, 2], [1]]


def test_tokenize_abstracts_gives_equal_words_one_code():
    texts = [FIG1_SENTENCE + " Heart failure, heart.", "HEART failure and digoxin."]
    codes: dict[str, int] = {}
    tokenized = tokenize_abstracts([Abstract(str(i), text) for i, text in enumerate(texts)], codes)
    word = dict(map(reversed, codes.items()))
    assert sorted(word) == list(range(len(codes)))  # one code per distinct word, from 0
    assert [[word[c] for c in ab.tokens.tolist()] for ab in tokenized] == list(map(tokenize, texts))
    assert [c for ab in tokenized for c in ab.tokens.tolist()].count(codes["heart"]) == 4


class TestCorpusFile:
    ABSTRACTS = [
        KeptAbstract("id with spaces", ("dose", "x-ray"), frozenset({"digoxin", "aspirin"})),
        KeptAbstract("# a: b", ("ünïcödé", "ω", "名前"), frozenset({"furosemide"})),
        KeptAbstract("no mentions", ("plain", "words"), frozenset()),
        KeptAbstract("no tokens", (), frozenset()),
        KeptAbstract("12", ("1", "twelve"), frozenset({"bumetanide"})),
    ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cardiac.tsv"
        corpus = corpus_of(self.ABSTRACTS)
        assert corpus.drugs == ["aspirin", "bumetanide", "digoxin", "furosemide"]  # sorted
        assert corpus.mentions[0].indices.tolist() == [0, 2] and corpus.counts[3].nnz == 0
        save(path, encode_abstracts(corpus, before=7), {"digest": "abc"})
        header = b"# ddimine kept-corpus\n# digest: abc\n# before: 7\n# body: npy\n"
        assert path.read_bytes().startswith(header + b"\x93NUMPY")
        loaded = load_abstracts(path)
        assert same_corpus(loaded, corpus) and loaded.header == {"digest": "abc", "before": "7"}
        decoded, header = load_corpus_oracle(path)
        assert header == {"digest": "abc", "before": "7"}
        assert decoded == [KeptAbstract(ab.id, tuple(sorted(ab.tokens)), ab.drug_mentions)
                           for ab in self.ABSTRACTS]

    def test_empty_corpus_round_trip(self, tmp_path):
        save(tmp_path / "c.tsv", encode_abstracts(corpus_of([])), {"digest": "abc"})
        assert same_corpus(load_abstracts(tmp_path / "c.tsv"), corpus_of([]))

    def test_show_prints_each_abstract_with_its_sorted_words_and_counts(self, tmp_path, capsys):
        path = tmp_path / "cardiac.tsv"
        corpus = corpus_of([
            KeptAbstract("b 2", ("x-ray", "dose", "x-ray", "ω"), frozenset({"furosemide", "digoxin"})),
            KeptAbstract("a1", ("名前", "dose"), frozenset({"digoxin"})),
        ])
        save(path, encode_abstracts(corpus, skipped_records=0, retention=1.0, before=2), {"digest": "abc"})
        assert main(["show", str(path)]) == 0
        assert capsys.readouterr().out == (
            "# ddimine kept-corpus\n# digest: abc\n# skipped_records: 0\n# retention: 1.0\n# before: 2\n"
            "b 2\tdigoxin furosemide\tdose:1 x-ray:2 ω:1\n"
            "a1\tdigoxin\tdose:1 名前:1\n"
        )

    @pytest.mark.parametrize(
        "body",
        [
            "# id\tmentions\ttokens\na\tdigoxin\tx\nb\tdigoxin\n",
            "# id\tmentions\ttokens\na\t\tx\ty\n",
            "a\tdigoxin\tx\n",
            "",
        ],
        ids=["truncated", "extra-field", "no-column-line", "empty"],
    )
    def test_malformed_line_named(self, tmp_path, body):
        # a text body is refused as older, not parsed: malformed lines give the same error as well-formed ones
        path = tmp_path / "cardiac.tsv"
        save(path, ("tokenized-abstracts", {}, body), {"digest": "abc"})
        with pytest.raises(ValidationError, match=re.escape(f"{path}: ") + ".*rerun ingest"):
            load_abstracts(path)
