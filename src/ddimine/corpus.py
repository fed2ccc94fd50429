"""Abstract ingestion: parsing, tokenization, lexicon matching, stats, stopwords.

A corpus is a file, a directory or a tar archive of ``lines`` files (``id TAB
text`` per line), read by :func:`ddimine.artifacts.input_lines` as every
line-format input is, or of PubMed XML files.  A refusal, a repeated id among
them, names the file or member, and its line or XML byte offset.  A tar archive
is refused, naming it, unless every member header parses and a full zero block,
the end-of-archive marker, follows the last, since ``tarfile`` reads a damaged
header, or a cut, as the archive's end; a tar or decompression error is refused
so too.  A compressed archive is read to the end of its stream, where its
checksum is met, so edited data that still decompresses is refused as well.
An archive whose first header is damaged is no tar to ``tarfile``: it is read
as one corpus file, whose NUL bytes both formats refuse.

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
import lzma
import re
import tarfile
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import artifacts, csr
from .errors import ValidationError

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
    mentions: csr.CSR
    words: list[str]
    counts: csr.CSR
    header: dict[str, str] = field(default_factory=dict)  # the file's header fields, when read

    @classmethod
    def mentioning(cls, abstracts: Sequence[TokenizedAbstract], codes: Mapping[str, int],
                   lexicon: DrugLexicon) -> "AbstractColumns":
        """The abstracts that mention a lexicon drug, in order, over the drugs and words they hold.

        ``codes`` maps each word to its code.  Row j of Q (phrases x words) counts phrase j's words, so a row of the
        counts C holds them all where (C > 0) @ Qᵀ is the phrase's length: a mention, if the phrase is one word or
        occurs in order.  C is built :data:`_BLOCK` rows at a time, each block keeping its rows with a mention; the
        blocks are stacked once, each dropped as it is copied.
        """
        words = sorted(codes)
        order = np.fromiter(map(codes.__getitem__, words), np.int32, len(words))  # column -> code
        rank = np.argsort(order).astype(np.int32)  # code -> column, int32 as the counts' indices
        drugs = sorted(lexicon.phrases)
        pairs = [(rank[[codes[w] for w in p]], d) for d, drug in enumerate(drugs) for p in lexicon.phrases[drug]
                 if all(w in codes for w in p)]  # each phrase whose words all occur, as columns, and its drug
        phrases, drug_of = [p for p, _ in pairs], np.array([d for _, d in pairs], dtype=np.int64)
        lengths = np.array(list(map(len, phrases)), dtype=np.int64)  # a repeated word is counted twice, as in Q
        QT = csr.from_cells(np.concatenate([np.zeros(0, np.int32), *phrases]), np.repeat(np.arange(len(phrases)),
                            lengths), np.ones(lengths.sum(), np.int32), (len(words), len(phrases)))
        ids, mentions, counts = [], [], []
        for start in range(0, max(len(abstracts), 1), _BLOCK):
            part = abstracts[start : start + _BLOCK]
            cells = rank[np.concatenate([np.zeros(0, np.int32), *(ab.tokens for ab in part)])]
            row = np.repeat(np.arange(len(part)), [len(ab.tokens) for ab in part])
            C = csr.from_cells(row, cells, np.ones(len(cells), np.int32), (len(part), len(words)))  # tokens counted
            C = C._replace(data=artifacts.narrowed(C.data, int(C.data.max(initial=0))))
            H = csr.product(C._replace(data=np.ones(C.nnz, bool)), QT)  # C > 0: no count is 0
            row = np.repeat(np.arange(len(part)), np.diff(H.indptr))
            whole = H.data == lengths[H.indices]  # the row holds all the phrase's words
            row, phrase = row[whole], H.indices[whole]
            found = lengths[phrase] == 1
            for k in np.flatnonzero(~found).tolist():  # a longer phrase is tried by position
                p, tokens = phrases[phrase[k]], rank[part[row[k]].tokens]
                found[k] = any(np.array_equal(tokens[i : i + len(p)], p) for i in np.flatnonzero(tokens == p[0]))
            # a drug two phrases name is one cell: True + True is True
            M = csr.from_cells(row[found], drug_of[phrase[found]], np.ones(np.count_nonzero(found), bool),
                               (len(part), len(drugs)))
            keep = np.flatnonzero(np.diff(M.indptr))
            ids += [part[i].id for i in keep.tolist()]
            mentions.append(csr.rows(M, keep))
            counts.append(csr.rows(C, keep))
        M, drug_columns = referenced(mentions)
        C, word_columns = referenced(counts)
        return cls(ids, [drugs[j] for j in drug_columns.tolist()], M, [words[j] for j in word_columns.tolist()], C)


def referenced(blocks: list[csr.CSR]) -> tuple[csr.CSR, np.ndarray]:
    """The row blocks, one above the other, on the columns some row references, and those columns, ascending: so
    each row keeps its order.  A lone block keeps its rows and values; several are stacked by
    :func:`ddimine.csr.stack`, which renumbers each block's columns as it copies it, so no second copy of the whole
    is held."""
    column = np.zeros(blocks[0].shape[1], dtype=blocks[0].indices.dtype)
    for M in blocks:
        column[M.indices] = 1
    used = np.flatnonzero(column)
    column[used] = np.arange(len(used))  # a used column's place among the used ones
    M = blocks[0]._replace(indices=column[blocks[0].indices]) if len(blocks) == 1 else csr.stack(blocks, column)
    return M._replace(shape=(M.shape[0], len(used))), used


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
    mentions = csr.of(mention_ptr, mention_cols, np.ones(len(mention_cols), dtype=np.uint8), (n, len(drugs)))
    return AbstractColumns(ids, drugs, mentions, words, csr.of(word_ptr, word_cols, counts, (n, len(words))), header)


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
        with artifacts.input_lines(path, comments=True, width=3) as rows:
            for drug_id, phrase_text, flag_text in rows:
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


def parse_abstracts(source: BinaryIO, fmt: str, name: str, seen: set[str] | None = None) -> tuple[list[Abstract], int]:
    """Parse one byte stream of abstracts, ``name`` the file or member it holds, as a refusal gives it.

    Returns (abstracts, skipped) where ``skipped`` counts records that lack an
    abstract body.  Input order is preserved.  Each kept record's id is checked
    as it is read (:func:`_kept_id`), against ``seen``, the ids read so far,
    which it extends.
    """
    seen = set() if seen is None else seen
    if fmt == "pubmed-xml":
        return _parse_pubmed_xml(source.read(), name, seen)
    if fmt == "lines":
        return _parse_lines(source, name, seen)
    raise ValidationError(f"unknown corpus format {fmt!r}; expected one of {CORPUS_FORMATS}")


def _kept_id(rec_id: str, seen: set[str], where: str = "") -> str:
    """``rec_id``, added to ``seen``; refused, after ``where``, if ``seen`` holds it, or if it is what the
    tab-separated files and ``assigned_samples.tsv``'s ","-joined list ("-": none) reserve."""
    if rec_id == "-" or any(c in rec_id for c in ",\t\r\n"):
        raise ValidationError(f"{where}abstract id {rec_id!r} is not allowed: '-', ',', tabs and line breaks are "
                              "reserved")
    if rec_id in seen:
        raise ValidationError(f"{where}duplicate abstract id {rec_id!r}")
    seen.add(rec_id)
    return rec_id


def _parse_lines(source: BinaryIO, name: str, seen: set[str]) -> tuple[list[Abstract], int]:
    """One ``id TAB text`` record per line, read by :func:`ddimine.artifacts.input_lines`, so a refusal names
    ``name:line``; a record with no text is skipped.  The texts are cut once every line is read, all together: cut
    as the lines are read or freed, they interleave with the freed lines, and ingest's peak grows by a tenth."""
    records: list[tuple[str, str]] = []  # (id, line) of each record with a text
    skipped = 0
    with artifacts.input_lines(name, source=source) as lines:
        for line in lines:
            tab = line.find("\t")
            rec_id = (line if tab < 0 else line[:tab]).strip()
            if not rec_id:
                raise ValidationError("record has no id")
            if tab < 0 or len(line.rstrip()) <= tab + 1:  # no text after the tab, which rstrip strips too
                skipped += 1
            else:
                records.append((_kept_id(rec_id, seen), line))
    return [Abstract(rec_id, line[line.index("\t") + 1 :].strip()) for rec_id, line in records], skipped


def _parse_pubmed_xml(data: bytes, name: str, seen: set[str]) -> tuple[list[Abstract], int]:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ValidationError(f"{name}: invalid XML: {exc.msg} (byte offset {_byte_offset(data, line, col)})") from None
    abstracts: list[Abstract] = []
    skipped = 0
    for rec in [root] if root.tag == "PubmedArticle" else root.iter("PubmedArticle"):
        pmid_el = rec.find(".//PMID")
        if pmid_el is None or not (pmid_el.text or "").strip():
            raise ValidationError(f"{name}: PubmedArticle record without a PMID")
        parts = [" ".join(t.strip() for t in el.itertext() if t.strip())
                 for el in rec.findall(".//Abstract//AbstractText")]
        body = " ".join(p for p in parts if p)
        if not body:
            skipped += 1
            continue
        title_el = rec.find(".//ArticleTitle")
        title = " ".join(t.strip() for t in title_el.itertext()) if title_el is not None else ""
        pmid = _kept_id(pmid_el.text.strip(), seen, f"{name}: ")
        abstracts.append(Abstract(pmid, f"{title} {body}".strip() if title else body))
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
    as a refusal gives it, and its open byte stream."""
    if path.is_dir():
        if not (members := corpus_members(path)):
            raise ValidationError(f"{path}: directory contains no corpus files")
        for member in members:
            with open(member, "rb") as fh:
                yield str(member), fh
    elif _checked_tar(path, tarfile.is_tarfile, path):
        with tarfile.open(path) as tar:
            for name in sorted(m.name for m in _checked_tar(path, _members, tar, OSError) if m.isfile()):
                with tar.extractfile(name) as fh:
                    yield f"{path}:{name}", fh
    else:
        with open(path, "rb") as fh:
            yield str(path), fh


def _members(tar: tarfile.TarFile) -> list[tarfile.TarInfo]:
    """The archive's members, once a full zero block, the end-of-archive marker, is found after the last, and the
    stream is read to its end: a compressed stream's check (gzip's CRC, bz2's block CRCs) is met only there."""
    members = tar.getmembers()
    tar.fileobj.seek(tar.offset)
    if tar.fileobj.read(tarfile.BLOCKSIZE) != bytes(tarfile.BLOCKSIZE):
        raise tarfile.ReadError(f"no end-of-archive block at byte {tar.offset}: a header is damaged or the archive "
                                "is cut short")
    while tar.fileobj.read(1 << 16):
        pass
    return members


def _checked_tar(path: Path, read: Callable, arg, *errors: type[Exception]):
    """``read(arg)``, a read of the tar archive at ``path``; a tar or decompression error, or one of ``errors`` (on an
    open archive, an ``OSError`` is bz2's "Invalid data stream", say), is refused naming it."""
    try:
        return read(arg)
    except (tarfile.TarError, EOFError, zlib.error, lzma.LZMAError, *errors) as exc:
        raise ValidationError(f"{path}: damaged tar archive: {exc}") from None


def load_corpus(path: Path | str, fmt: str) -> tuple[list[Abstract], int]:
    """Load abstracts from a file, a directory of files, or a tar archive.

    Each file is parsed in turn (see :func:`_sources`); ids must be unique
    across the whole corpus.  A refusal names the file or member.
    """
    abstracts: list[Abstract] = []
    skipped, seen = 0, set()
    with contextlib.closing(_sources(Path(path))) as sources:  # on an error too, the open file is closed now
        for name, source in sources:
            part, skip = parse_abstracts(source, fmt, name, seen)
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
