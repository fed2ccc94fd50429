"""Abstract ingestion: parsing, tokenization, lexicon matching, stats, stopwords.

The kept corpus ``cardiac.tsv``, the abstracts that mention a lexicon drug,
holds :class:`AbstractColumns` as records of the codec in
:mod:`ddimine.artifacts`: the ids; the mentions, a CSR over the sorted drug ids
with that list; and the word counts, a CSR over the sorted words with that
list.  Ingest holds an abstract as word codes from tokenizing on: each token is
looked up once, in one dict (:func:`tokenize_abstracts`).  The word counts are
built from the codes, and the mentions are their product with the lexicon's
phrases, a phrase of several words tried by position only in the rows that
hold all its words (:meth:`AbstractColumns.mentioning`).  No later stage reads
a token, so filter's statistics are row and column sums and featurize's
vocabulary a column sum.  ``ddimine show`` prints the file as text.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import re
import tarfile
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import artifacts
from .errors import CorpusParseError, ValidationError

if TYPE_CHECKING:  # scipy.sparse loads in 0.2 s; it is imported where a matrix is built, not by synth's import
    import scipy.sparse as sp

# Tokens are maximal runs of letters/digits, optionally joined by single
# internal hyphens; a hyphen without a run on both sides is a separator.
_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*", re.UNICODE)
# every ASCII character that is neither alphanumeric nor '-' is a separator
_ASCII_SEPARATORS = str.maketrans({c: " " for c in map(chr, range(128)) if not c.isalnum() and c != "-"})

CORPUS_FORMATS = ("lines", "pubmed-xml")
_BLOCK = 4096  # rows per block of :meth:`AbstractColumns.mentioning`

# Full-scale figures for the reference corpus this pipeline was designed
# against (663,597 abstracts filtered to 69,713).  They are documented in
# stats reports for context but never asserted: that corpus is not shipped.
REFERENCE_FIGURES = {
    "abstracts_before_filter": 663_597,
    "abstracts_after_filter": 69_713,
    "cardiac_drugs": 44,
    "cardiac_drugs_in_abstracts": 36,
    "related_drugs": 1_781,
    "avg_drugs_per_abstract": 1.3,
    "max_drugs_per_abstract": 80,
    "avg_words_per_abstract": 149.5,
    "avg_count_per_word": 1.9,
    "n_distinct_words": 53_338,
}


@dataclass(frozen=True)
class Abstract:
    """One publication abstract; ``text`` may have the title prepended."""

    id: str
    text: str


class TokenizedAbstract(NamedTuple):
    id: str
    tokens: np.ndarray  # its tokens' word codes, in text order (see :func:`tokenize_abstracts`)


@dataclass(frozen=True, eq=False)
class AbstractColumns:
    """The kept corpus as columns: abstract i's id, row i of ``mentions`` (abstract x drug, 1 where it mentions the
    drug) over the sorted ``drugs``, and row i of ``counts`` (abstract x word, how often it holds the word) over the
    sorted ``words``; each row's columns ascend.  Token order is not kept: no stage reads it."""

    ids: list[str]
    drugs: list[str]
    mentions: sp.csr_matrix
    words: list[str]
    counts: sp.csr_matrix
    header: dict[str, str] = field(default_factory=dict)  # the file's header fields, when read

    @classmethod
    def mentioning(cls, abstracts: Sequence[TokenizedAbstract], codes: Mapping[str, int],
                   lexicon: DrugLexicon) -> "AbstractColumns":
        """The abstracts that mention a lexicon drug, in order, over the drugs and words they hold.

        ``codes`` maps each word to its code.  Row j of Q (phrases x words) counts phrase j's words, so a row of the
        counts C holds them all where (C > 0) @ Qᵀ is the phrase's length: a mention, if the phrase is one word or
        occurs in order.  C is built :data:`_BLOCK` rows at a time, each block keeping its rows with a mention.
        """
        import scipy.sparse as sp

        words = sorted(codes)
        order = np.fromiter(map(codes.__getitem__, words), np.int32, len(words))  # column -> code
        rank = np.argsort(order).astype(np.int32)  # code -> column, int32 as the counts' indices
        drugs = sorted(lexicon.phrases)
        pairs = [(rank[[codes[w] for w in p]], d) for d, drug in enumerate(drugs) for p in lexicon.phrases[drug]
                 if all(w in codes for w in p)]  # each phrase whose words all occur, as columns, and its drug
        phrases, drug_of = [p for p, _ in pairs], np.array([d for _, d in pairs], dtype=np.int64)
        lengths = np.array(list(map(len, phrases)), dtype=np.int64)  # a repeated word is counted twice, as in Q
        Q = sp.csr_matrix((np.ones(lengths.sum(), np.int32), np.concatenate([np.zeros(0, np.int32), *phrases]),
                           np.concatenate([[0], np.cumsum(lengths)])), shape=(len(phrases), len(words)))
        ids, mentions, counts = [], [], []
        for start in range(0, max(len(abstracts), 1), _BLOCK):
            part = abstracts[start : start + _BLOCK]
            cells = rank[np.concatenate([np.zeros(0, np.int32), *(ab.tokens for ab in part)])]
            indptr = np.cumsum([0, *(len(ab.tokens) for ab in part)])
            C = sp.csr_matrix((np.ones(len(cells), dtype=np.int32), cells, indptr), shape=(len(part), len(words)))
            C.sum_duplicates()  # sorts each row's columns, then adds a repeated one's ones
            C.data = artifacts.narrowed(C.data, int(C.data.max(initial=0)))
            H = ((C > 0) @ Q.T).tocoo()
            whole = H.data == lengths[H.col]  # the row holds all the phrase's words
            row, phrase = H.row[whole], H.col[whole]
            found = lengths[phrase] == 1
            for k in np.flatnonzero(~found).tolist():  # a longer phrase is tried by position
                p, tokens = phrases[phrase[k]], rank[part[row[k]].tokens]
                found[k] = any(np.array_equal(tokens[i : i + len(p)], p) for i in np.flatnonzero(tokens == p[0]))
            mention = (row[found], drug_of[phrase[found]])  # a drug two phrases name is one cell: True + True is True
            M = sp.csr_matrix((np.ones(len(mention[0]), bool), mention), shape=(len(part), len(drugs)))
            keep = np.flatnonzero(np.diff(M.indptr))
            ids += [part[i].id for i in keep.tolist()]
            mentions.append(M[keep])
            counts.append(C[keep])
        M, drug_columns = referenced(sp.vstack(mentions, format="csr"))
        C, word_columns = referenced(sp.vstack(counts, format="csr"))
        return cls(ids, [drugs[j] for j in drug_columns.tolist()], M, [words[j] for j in word_columns.tolist()], C)


def referenced(M: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """M on the columns some row references, and those columns, ascending: so each row keeps its order."""
    import scipy.sparse as sp

    column = np.zeros(M.shape[1], dtype=M.indices.dtype)
    column[M.indices] = 1
    used = np.flatnonzero(column)
    column[used] = np.arange(len(used))  # a used column's place among the used ones
    return sp.csr_matrix((M.data, column[M.indices], M.indptr), shape=(M.shape[0], len(used))), used


# the kept corpus's body, in order, and each record's form
_RECORDS = {
    "ids": artifacts.STRINGS, "drugs": artifacts.STRINGS, "mention indptr": artifacts.INTEGERS,
    "mention columns": artifacts.INTEGERS, "words": artifacts.STRINGS, "word indptr": artifacts.INTEGERS,
    "word columns": artifacts.INTEGERS, "word counts": artifacts.INTEGERS,
}


def encode_abstracts(corpus: AbstractColumns, **fields) -> artifacts.Encoded:
    """The corpus file: ``fields`` in the header, then the ids, the mentions and the word counts as records."""
    M, C = corpus.mentions, corpus.counts
    return artifacts.encode_records("kept-corpus", fields, (
        corpus.ids, corpus.drugs, artifacts.narrowed(M.indptr, M.nnz), artifacts.narrowed(M.indices, len(corpus.drugs)),
        corpus.words, artifacts.narrowed(C.indptr, C.nnz), artifacts.narrowed(C.indices, len(corpus.words)),
        artifacts.narrowed(C.data, int(C.data.max(initial=0))),
    ))


def load_abstracts(path: Path | str) -> AbstractColumns:
    """Inverse of :func:`encode_abstracts`, header included, read once.

    Besides what :func:`ddimine.artifacts.read_records` refuses, an id given
    twice, a drug or word list that does not ascend strictly, and a count of 0
    are refused with the path.
    """
    import scipy.sparse as sp

    records, header = artifacts.read_records(path, _RECORDS, "kept corpus", "ingest")
    ids, drugs, mention_ptr, mention_cols, words, word_ptr, word_cols, counts = records.values()
    n = len(ids)
    artifacts.check_csr(path, mention_ptr, mention_cols, n, len(drugs), "abstract", "drug column")
    artifacts.check_csr(path, word_ptr, word_cols, n, len(words), "abstract", "word column")
    if len(set(ids)) != n or any(a >= b for names in (drugs, words) for a, b in zip(names, names[1:])):
        raise ValidationError(f"{path}: damaged kept corpus: an id is repeated, or the drugs or words do not ascend")
    if len(counts) != len(word_cols) or counts.size and counts.min() == 0:
        raise ValidationError(f"{path}: damaged kept corpus: {len(counts)} word counts for {len(word_cols)} cells, "
                              "or a count of 0")
    mentions = sp.csr_matrix((np.ones(len(mention_cols), dtype=np.uint8), mention_cols, mention_ptr),
                             shape=(n, len(drugs)))
    return AbstractColumns(ids, drugs, mentions, words, sp.csr_matrix((counts, word_cols, word_ptr),
                                                                      shape=(n, len(words))), header)


def check_drug_id(drug_id: str) -> None:
    """Refuse an id that is empty or holds whitespace or '|'.

    Sample keys join two ids with '|', and feature rows are space-separated.
    """
    if not drug_id or re.search(r"[\s|]", drug_id):  # \s matches what str.isspace() does
        raise ValidationError(f"drug id {drug_id!r} is empty or contains whitespace or '|'")


class DrugLexicon:
    """Canonical drug ids, their name phrases, and the cardiac-subset flag.

    Phrases are stored as lowercase token tuples produced by :func:`tokenize`,
    so matching agrees with the corpus tokenization by construction.
    """

    def __init__(self, entries: Mapping[str, Iterable[tuple[str, ...]]], cardiac: Iterable[str]):
        self.phrases: dict[str, tuple[tuple[str, ...], ...]] = {}
        for drug_id, phrase_list in entries.items():
            check_drug_id(drug_id)
            phrases = tuple(tuple(p) for p in phrase_list)
            if not phrases or any(not p or "" in p for p in phrases):
                raise ValidationError(f"drug {drug_id!r} has an empty phrase")
            self.phrases[drug_id] = phrases
        self.cardiac = frozenset(cardiac)
        unknown = self.cardiac - self.phrases.keys()
        if unknown:
            raise ValidationError(f"cardiac drugs missing from lexicon: {sorted(unknown)}")

    @classmethod
    def load(cls, path: Path | str) -> "DrugLexicon":
        """Read rows ``drug_id TAB phrase TAB cardiac_flag``; '#' lines are comments."""
        entries: dict[str, list[tuple[str, ...]]] = {}
        flags: dict[str, bool] = {}
        with artifacts.input_lines(path, comments=True) as lines:
            for drug_id, phrase_text, flag_text in map(three_fields, lines):
                check_drug_id(drug_id)
                phrase = tuple(tokenize(phrase_text))
                if not phrase:
                    raise ValidationError("phrase tokenizes to nothing")
                flag = flag_text.strip().lower()
                if flag not in ("1", "true", "yes", "0", "false", "no"):
                    raise ValidationError(f"bad cardiac flag {flag_text!r}")
                cardiac = flag in ("1", "true", "yes")
                if flags.setdefault(drug_id, cardiac) != cardiac:
                    raise ValidationError(f"conflicting cardiac flag for {drug_id!r}")
                entries.setdefault(drug_id, []).append(phrase)
        if not entries:
            raise ValidationError(f"{path}: lexicon is empty")
        return cls(entries, [drug_id for drug_id, flag in flags.items() if flag])


def three_fields(line: str) -> list[str]:
    """The tab-separated fields of a lexicon or catalog row, refused unless there are three."""
    parts = line.split("\t")
    if len(parts) != 3:
        raise ValidationError("expected 3 tab-separated fields")
    return parts


def tokenize(text: str) -> list[str]:
    """Lowercase tokens: alphanumeric runs joined by internal hyphens, as ``_TOKEN_RE.findall(text.lower())``.

    Fast path: ASCII separators become spaces and the text is split at whitespace, which no token crosses; an
    all-alphanumeric piece is one token, and only the others (a hyphen or a non-ASCII separator) meet the regex.
    """
    tokens: list[str] = []
    for piece in text.lower().translate(_ASCII_SEPARATORS).split():
        if piece.isalnum():  # the regex's [^\W_] is exactly str.isalnum()
            tokens.append(piece)
        else:
            tokens += _TOKEN_RE.findall(piece)
    return tokens


def load_stopwords(path: Path | str) -> frozenset[str]:
    """One word per line, lowercased; blank lines and ``#`` lines are skipped."""
    with artifacts.input_lines(path, comments=True) as lines:
        return frozenset(line.strip().lower() for line in lines)


def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package."""
    with resources.as_file(resources.files("ddimine").joinpath("data/stopwords.txt")) as path:
        return load_stopwords(path)


def parse_abstracts(source: BinaryIO, fmt: str, seen: set[str] | None = None) -> tuple[list[Abstract], int]:
    """Parse one byte stream of abstracts.

    Returns (abstracts, skipped) where ``skipped`` counts records that lack an
    abstract body.  Input order is preserved.  Duplicate ids raise, within the
    stream and against ``seen``, the ids read so far, which it extends.
    """
    if fmt == "pubmed-xml":
        abstracts, skipped = _parse_pubmed_xml(source.read())
    elif fmt == "lines":
        abstracts, skipped = _parse_lines(source.read())
    else:
        raise ValidationError(f"unknown corpus format {fmt!r}; expected one of {CORPUS_FORMATS}")
    _check_ids(abstracts, set() if seen is None else seen)
    return abstracts, skipped


def _check_ids(abstracts: list[Abstract], seen: set[str]) -> None:
    """Ids are unique and fit the tab-separated files and ``assigned_samples.tsv``'s ","-joined list ("-": none)."""
    for ab in abstracts:
        if ab.id == "-" or any(c in ab.id for c in ",\t\r\n"):
            raise ValidationError(
                f"abstract id {ab.id!r} is not allowed: '-', ',', tabs and line breaks are reserved"
            )
        if ab.id in seen:
            raise ValidationError(f"duplicate abstract id {ab.id!r}")
        seen.add(ab.id)


def _parse_lines(data: bytes) -> tuple[list[Abstract], int]:
    """One ``id TAB text`` record per line; a line ends at LF, CR LF or CR only."""
    try:
        decoded = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(re.findall(r"\r\n|\r|\n", data[: exc.start].decode("utf-8"))) + 1
        raise CorpusParseError(f"line {lineno}: not valid UTF-8", exc.start) from None
    # not str.splitlines, which also ends a line at \x0b, \x0c, \x1c-\x1e, \x85, U+2028 and U+2029
    lines = decoded.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    del decoded
    lines[0] = lines[0].removeprefix("\ufeff")  # a UTF-8 byte-order mark
    abstracts: list[Abstract] = []
    skipped = 0
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        rec_id, sep, text = raw.partition("\t")
        rec_id = rec_id.strip()
        if not rec_id:
            raise CorpusParseError(f"line {lineno}: record has no id")
        if not sep or not text.strip():
            skipped += 1
            continue
        abstracts.append(Abstract(id=rec_id, text=text.strip()))
    return abstracts, skipped


def _parse_pubmed_xml(data: bytes) -> tuple[list[Abstract], int]:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise CorpusParseError(f"invalid XML: {exc.msg}", _byte_offset(data, line, col)) from exc
    if root.tag == "PubmedArticle":
        records = [root]
    else:
        records = list(root.iter("PubmedArticle"))
    abstracts: list[Abstract] = []
    skipped = 0
    for rec in records:
        pmid_el = rec.find(".//PMID")
        if pmid_el is None or not (pmid_el.text or "").strip():
            raise CorpusParseError("PubmedArticle record without a PMID")
        pmid = pmid_el.text.strip()
        parts = [
            " ".join(t.strip() for t in el.itertext() if t.strip())
            for el in rec.findall(".//Abstract//AbstractText")
        ]
        body = " ".join(p for p in parts if p)
        if not body:
            skipped += 1
            continue
        title_el = rec.find(".//ArticleTitle")
        title = " ".join(t.strip() for t in title_el.itertext()) if title_el is not None else ""
        text = f"{title} {body}".strip() if title else body
        abstracts.append(Abstract(id=pmid, text=text))
    return abstracts, skipped


def _byte_offset(data: bytes, line: int, col: int) -> int:
    """Where expat's (line, column) falls in ``data``: lines end at LF, CR LF or CR, and the column counts
    UTF-8 characters, an undecodable byte as one."""
    start = 0
    for end in itertools.islice(re.finditer(rb"\r\n|\r|\n", data), line - 1):
        start = end.end()
    chars = data[start : start + 4 * col].decode("utf-8", "surrogateescape")[:col]  # 4 bytes hold any character
    return start + len(chars.encode("utf-8", "surrogateescape"))


def corpus_members(path: Path) -> list[Path]:
    """The files of a directory corpus that :func:`load_corpus` reads, in its order; hidden files are skipped."""
    return sorted(p for p in path.iterdir() if p.is_file() and not p.name.startswith("."))


def _sources(path: Path) -> Iterator[tuple[str, BinaryIO]]:
    """Each file of the corpus at ``path`` (a file, a directory, or a tar archive) in sorted name order: its name,
    as a parse error gives it, and its open byte stream."""
    if path.is_dir():
        if not (members := corpus_members(path)):
            raise ValidationError(f"{path}: directory contains no corpus files")
        for member in members:
            with open(member, "rb") as fh:
                yield str(member), fh
    elif tarfile.is_tarfile(path):
        with tarfile.open(path) as tar:
            for name in sorted(m.name for m in tar.getmembers() if m.isfile()):
                yield f"{path}:{name}", tar.extractfile(name)
    else:
        with open(path, "rb") as fh:
            yield str(path), fh


def load_corpus(path: Path | str, fmt: str) -> tuple[list[Abstract], int]:
    """Load abstracts from a file, a directory of files, or a tar archive.

    Each file is parsed in turn (see :func:`_sources`); ids must be unique
    across the whole corpus.  A parse error names the file or member.
    """
    abstracts: list[Abstract] = []
    skipped, seen = 0, set()
    with contextlib.closing(_sources(Path(path))) as sources:  # on an error too, the open file is closed now
        for name, source in sources:
            try:
                part, skip = parse_abstracts(source, fmt, seen)
            except CorpusParseError as exc:
                exc.args = (f"{name}: {exc}",)
                raise
            abstracts += part
            skipped += skip
    return abstracts, skipped


def tokenize_abstracts(abstracts: Iterable[Abstract], codes: dict[str, int]) -> list[TokenizedAbstract]:
    """Each abstract's tokens as word codes, each token looked up once; ``codes``, word -> code, gains each word it
    lacks with the next code, so equal words share one code."""
    code = collections.defaultdict(lambda: len(code), codes)
    tokenized = [TokenizedAbstract(ab.id, np.fromiter(map(code.__getitem__, tokenize(ab.text)), np.int32))
                 for ab in abstracts]
    codes.update(code)
    return tokenized


@dataclass(frozen=True)
class CorpusStats:
    n_abstracts: int
    avg_drugs_per_abstract: float
    max_drugs_per_abstract: int
    avg_words_per_abstract: float
    avg_count_per_word: float
    n_distinct_words: int


def corpus_stats(corpus: AbstractColumns) -> CorpusStats:
    """Corpus summary from row and column sums; averages over an empty corpus are defined as zero.

    ``avg_count_per_word`` is total token occurrences divided by the summed
    per-abstract distinct word counts (how often a word repeats within an
    abstract that uses it).  Sums are Python ints, so each ratio is the one a
    count over the tokens gives.
    """
    n = len(corpus.ids)
    if n == 0:
        return CorpusStats(0, 0.0, 0, 0.0, 0.0, 0)
    C = corpus.counts
    total_tokens, distinct_per_abstract = int(C.data.sum(dtype=np.int64)), C.nnz
    drugs = np.diff(corpus.mentions.indptr)
    return CorpusStats(
        n_abstracts=n,
        avg_drugs_per_abstract=int(drugs.sum()) / n,
        max_drugs_per_abstract=int(drugs.max()),
        avg_words_per_abstract=total_tokens / n,
        avg_count_per_word=(total_tokens / distinct_per_abstract) if distinct_per_abstract else 0.0,
        n_distinct_words=int(np.count_nonzero(np.bincount(C.indices, minlength=C.shape[1]))),
    )


def render_stats(stats: CorpusStats) -> str:
    """Key/value text document for the stats fields, plus reference context."""
    lines = [f"{f.name}\t{getattr(stats, f.name)!r}" for f in fields(stats)]  # an int's repr is its str
    lines += ["#", "# Reference full-scale corpus figures (documented, not asserted):"]
    lines += [f"# {key}\t{val}" for key, val in REFERENCE_FIGURES.items()]
    return "\n".join(lines) + "\n"
