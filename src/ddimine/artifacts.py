"""The artifact codec: one header format, one digest check, one atomic writer.

Every artifact starts with a header block::

    # ddimine <kind>
    # digest: <sha256 of what the producing stage read: see ddimine.pipeline>
    # <key>: <value>        (per-file fields, e.g. seed and ratios, or skipped_records)

The header is the first line, when it starts with ``#``, and the run of
``# key: value`` lines (the key an identifier) after it; the body starts at
the first other line.  Column lines such as ``# template_id<TAB>text`` and
the ``# best_lambda:`` notes after the CV rows are therefore body.  The
header is read as bytes, so a body may be text or binary.

A binary body is the record codec's: the header carries ``body: npy``, and the
body is a fixed sequence of named ``npy`` records (``numpy.lib.format``, no
pickles), each a 1-D array.  An index record is the smallest unsigned type that
holds its bound (:func:`narrowed`); a values record is too when that type
widens back to every float bit for bit, else float64 (:func:`narrowed_values`);
a strings record is one ``"\n"``-joined UTF-8 ``uint8`` blob.  The feature
files (:mod:`ddimine.features`) and the kept corpus (:mod:`ddimine.corpus`)
are written by :func:`encode_records` and read by :func:`read_records` and
:func:`check_csr`, which refuse any damage with a :class:`ValidationError`
that names the path.

The line-format inputs (lexicon, catalog, MAR, stopwords, embeddings, and
each file or archive member of a ``lines`` corpus) and the text artifact bodies
are read by one line reader.  :func:`input_lines` opens an input, or reads one
already open, such as a tar member, a byte-order mark read as absent, and skips
blank lines, and ``#`` lines in the formats with comments; :func:`body_lines`
reads a body after the header.  A line ends at LF, CR LF or CR, comes without
its end, and is refused unless it is UTF-8 and free of NUL bytes, which no text
input or body holds and a binary file read as text, such as a tar archive whose
first header is damaged, does; with a ``width``, it comes as its tab-separated
fields, refused unless there are that many.  A
:class:`ValidationError` raised while the lines are read, by the reader or its
caller, is raised again as ``path:line: message``, naming the last line read.
"""

from __future__ import annotations

import io
import itertools
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from tokenize import TokenError
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ArtifactMismatchError, ValidationError

Bytes = bytes | memoryview
# an artifact before it is written: (kind, per-file header fields, body);
# the body is newline-terminated text or bytes, or their chunks, as :func:`write` takes it
Encoded = tuple[str, Mapping[str, object], str | Bytes | Iterable[str] | Iterable[Bytes]]


def header_text(kind: str, fields: Mapping[str, object]) -> str:
    return f"# ddimine {kind}\n" + "".join(f"# {key}: {val}\n" for key, val in fields.items())


def write_atomic(path: Path | str, chunks: Iterable[str | Bytes]) -> None:
    """Replace ``path`` with ``chunks``, concatenated text or bytes, through a temp file in the same directory.

    Text is written as UTF-8; chunks are written as they come, so a generator streams.  A reader, or
    a stage killed mid-write, or a chunk source that raises, leaves the old file
    or the new one, never a part.  No fsync: this guards against partial files,
    not power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunk.encode() if isinstance(chunk, str) else chunk for chunk in chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(path: Path | str, kind: str, fields: Mapping[str, object], body: str | Bytes | Iterable[str | Bytes]) -> None:
    """Write one artifact: the header, then ``body``, newline-terminated text or bytes, or their chunks."""
    whole = isinstance(body, (str, bytes, memoryview))
    write_atomic(path, itertools.chain([header_text(kind, fields)], [body] if whole else body))


@contextmanager
def opened(path: Path | str) -> Iterator[tuple[BinaryIO, dict[str, str]]]:
    """The file, open in binary at its body's first byte, and its header fields."""
    with open(path, "rb") as fh:
        fields: dict[str, str] = {}
        start, line = 0, fh.readline()
        if line.startswith(b"#"):  # the kind line
            start, line = fh.tell(), fh.readline()
        while line.startswith(b"# "):
            try:
                key, sep, val = line[2:].rstrip(b"\r\n").decode("utf-8").partition(": ")
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}: a header line is not UTF-8") from exc
            if not (sep and key.isidentifier()):
                break
            fields[key] = val
            start, line = fh.tell(), fh.readline()
        fh.seek(start)
        yield fh, fields


@contextmanager
def body_lines(path: Path | str, width: int | None = None) -> Iterator[tuple[Iterator, dict[str, str]]]:
    """A text artifact's body lines, numbered from the first after the header, and its header fields.

    With ``width``, each line comes as its tab-separated fields, refused unless there are ``width``.
    """
    with opened(path) as (fh, fields), io.TextIOWrapper(fh, encoding="utf-8", errors="surrogateescape") as text:
        with _numbered(path, text, 2 + len(fields)) as lines:  # after the kind line and the fields
            yield (lines if width is None else _rows(lines, width)), fields


def _rows(lines: Iterator[str], width: int) -> Iterator[list[str]]:
    for line in lines:
        fields = line.split("\t")
        if len(fields) != width:
            raise ValidationError(f"expected {width} tab-separated fields, found {len(fields)}")
        yield fields


@contextmanager
def input_lines(path: Path | str, comments: bool = False, width: int | None = None,
                source: BinaryIO | None = None) -> Iterator[Iterator]:
    """An input file's lines, numbered from 1, but blank ones, and with ``comments`` those that start with ``#``.

    With ``width``, each line comes as its tab-separated fields, refused unless there are ``width``.  With
    ``source``, the lines are read from that open binary stream, which is closed after, and ``path`` only names it.
    """
    with open(path, "rb") if source is None else source as fh:
        with io.TextIOWrapper(fh, encoding="utf-8-sig", errors="surrogateescape") as text:
            with _numbered(path, text, 1, "#" if comments else "") as lines:
                yield lines if width is None else _rows(lines, width)


@contextmanager
def _numbered(path: Path | str, text: Iterable[str], first: int, skip: str | None = None) -> Iterator[Iterator[str]]:
    """The lines of ``text``, the first numbered ``first``: the core of :func:`body_lines` and :func:`input_lines`.

    With ``skip`` set, blank lines are passed over, and so are those that start with ``skip`` after any blanks.
    """
    lineno = 0

    def lines() -> Iterator[str]:
        nonlocal lineno
        for lineno, line in enumerate(text, first):
            line = line.rstrip("\n")
            if skip is not None and (not line.strip() or skip and line.lstrip().startswith(skip)):
                continue
            if "\x00" in line:  # no text holds one; a binary file read as text, such as a tar archive, does
                raise ValidationError("holds a NUL byte")
            if not line.isascii():
                try:
                    line.encode("utf-8")  # a byte that is not UTF-8 was read as a lone surrogate, which fails here
                except UnicodeEncodeError:
                    raise ValidationError("not valid UTF-8") from None
            yield line

    try:
        yield lines()
    except ValidationError as exc:
        raise ValidationError(f"{path}:{lineno}: {exc}" if lineno else f"{path}: {exc}") from None


def kind_of(path: Path | str) -> str:
    """The kind the first line names, or "" when it names none."""
    with open(path, "rb") as fh:
        line = fh.readline()
    return line[10:].rstrip(b"\r\n").decode("utf-8", "replace") if line.startswith(b"# ddimine ") else ""


# the forms of a record: unsigned integers; unsigned integers or float64; strings
INTEGERS, NUMBERS, STRINGS = "integers", "numbers", "strings"


def narrowed(a: np.ndarray, bound: int) -> np.ndarray:
    """``a``, whose values lie in [0, bound], as the smallest unsigned type that holds ``bound``."""
    return a.astype(np.min_scalar_type(bound), copy=False)


def narrowed_values(values: np.ndarray) -> np.ndarray:
    """``values`` as the smallest unsigned type that widens back to every one bit for bit, else as they are."""
    if values.size and 0 <= values.min() and values.max() < 2.0**64:  # NaN fails both tests
        narrow = narrowed(values, int(values.max()))
        if np.array_equal(narrow.astype(np.float64).view(np.int64), values.view(np.int64)):  # no fraction or -0.0
            return narrow
    return values


def encode_records(kind: str, fields: Mapping[str, object], records: Iterable[np.ndarray | Sequence[str]]) -> Encoded:
    """An artifact of ``fields`` and ``body: npy``, then each record in order: an array as it is, strings as a blob.

    The body is encoded as it is written, one record at a time.
    """
    return kind, {**fields, "body": "npy"}, map(_npy, records)


def _npy(record: np.ndarray | Sequence[str]) -> memoryview:
    if not isinstance(record, np.ndarray):
        record = np.frombuffer("\n".join(record).encode(), dtype=np.uint8)
    body = io.BytesIO()
    np.lib.format.write_array(body, record, allow_pickle=False)
    return body.getbuffer()


def read_records(
    path: Path | str, records: Mapping[str, str], what: str, producer: str
) -> tuple[dict[str, np.ndarray | list[str]], dict[str, str]]:
    """The named records of ``path``'s body, each checked against its form, and the header's other fields.

    ``records`` maps each name, in body order, to its form.  A strings record
    comes back as its list of strings (none for an empty blob).  A body other
    than exactly these records is refused, naming the path; one that is not
    ``npy`` (an older text body) is refused with "rerun ``producer``".
    """
    with opened(path) as (fh, header):
        if header.pop("body", None) != "npy":
            raise ValidationError(f"{path}: not a {what} with an npy body (a text one is older); rerun {producer}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning about a damaged header, such as an invalid escape, refuses it
                arrays = [np.lib.format.read_array(fh, allow_pickle=False) for _ in records]
            if fh.read(1):
                raise ValueError("bytes after the last record")
        # numpy's parse of a damaged npy header can raise a ValueError, TypeError, SyntaxError, TokenError or a
        # warning, and MemoryError for a shape past what can be allocated
        except (ValueError, TypeError, SyntaxError, TokenError, MemoryError, Warning) as exc:
            raise ValidationError(f"{path}: damaged {what}: {exc}") from exc
    out: dict[str, np.ndarray | list[str]] = {}
    for (name, form), a in zip(records.items(), arrays):
        unsigned = a.dtype == np.uint8 if form == STRINGS else a.dtype.kind == "u"
        if a.ndim != 1 or not (unsigned or form == NUMBERS and a.dtype == np.float64):
            raise ValidationError(f"{path}: damaged {what}: the {name} record is {a.dtype} of shape {a.shape}")
        if form == STRINGS:
            try:
                text = a.tobytes().decode("utf-8")
            except UnicodeDecodeError:
                raise ValidationError(f"{path}: damaged {what}: the {name} record is not valid UTF-8") from None
            out[name] = text.split("\n") if text else []
        else:
            out[name] = a
    return out, header


def check_csr(path, indptr: np.ndarray, indices: np.ndarray, n: int, bound: int, row: str, index: str) -> None:
    """Refuse an indptr other than n + 1 ascending offsets from 0 to the indices' end, or a row whose indices do not
    ascend strictly in [0, bound)."""
    if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(indices) or (indptr[:-1] > indptr[1:]).any():
        raise ValidationError(f"{path}: the {row} indptr is not {n + 1} ascending offsets from 0 to {len(indices)}")
    if indices.size and indices.max() >= bound:
        raise ValidationError(f"{path}: a {row}'s {index} is not in [0, {bound})")
    ascends = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    ascends[starts[(0 < starts) & (starts < len(indices))].astype(np.int64) - 1] = True  # a row's first index
    if not ascends.all():
        raise ValidationError(f"{path}: a {row}'s {index}es do not ascend")


def check_digest(path: Path | str, expected: str, producer: str) -> None:
    """Refuse an artifact whose digest is not ``expected``, the one ``producer`` would write now.

    Reads the header alone, so a stale body is never decoded.
    """
    with opened(path) as (_, fields):
        found = fields.get("digest")
    if found != expected:
        raise ArtifactMismatchError(
            f"{path} is stale: its digest is {found!r}, its inputs now give {expected!r}; "
            f"rerun the {producer!r} stage"
        )
