"""The artifact codec: one header format, one digest check, one atomic writer.

Every artifact starts with a header block::

    # ddimine <kind>
    # digest: <sha256 of what the producing stage read: see ddimine.pipeline>
    # <key>: <value>        (per-file fields, e.g. seed and ratios, or skipped_records)

The header is the first line, when it starts with ``#``, and the run of
``# key: value`` lines (the key an identifier) after it; the body starts at
the first other line.  Column lines such as ``# template_id<TAB>text`` and
the ``# best_lambda:`` notes after the CV rows are therefore body.  The
header is read as bytes, so a body may be text or binary (a feature file's
``npy`` records, see :mod:`ddimine.features`).
"""

from __future__ import annotations

import io
import itertools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping

from .errors import ArtifactMismatchError, ValidationError

# an artifact before it is written: (kind, per-file header fields, body);
# the body is newline-terminated text or its chunks, or bytes, as :func:`write` takes it
Encoded = tuple[str, Mapping[str, object], str | bytes | Iterable[str]]


def header_text(kind: str, fields: Mapping[str, object]) -> str:
    return f"# ddimine {kind}\n" + "".join(f"# {key}: {val}\n" for key, val in fields.items())


def write_atomic(path: Path | str, chunks: Iterable[str] | bytes) -> None:
    """Replace ``path`` with ``chunks``, concatenated text or bytes, through a temp file in the same directory.

    Text is written as UTF-8, and its chunks as they come, so a generator streams.  A reader, or
    a stage killed mid-write, or a chunk source that raises, leaves the old file
    or the new one, never a part.  No fsync: this guards against partial files,
    not power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    binary = isinstance(chunks, bytes)
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            fh.writelines([chunks] if binary else chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(path: Path | str, kind: str, fields: Mapping[str, object], body: str | bytes | Iterable[str]) -> None:
    """Write one artifact: the header, then ``body``, newline-terminated text or its chunks, or bytes."""
    header = header_text(kind, fields)
    if isinstance(body, bytes):
        write_atomic(path, header.encode() + body)
    else:
        write_atomic(path, itertools.chain([header], [body] if isinstance(body, str) else body))


def read(path: Path | str) -> tuple[Iterator[str], dict[str, str]]:
    """(body lines, header fields) of one artifact; the kind line is not a field.

    The body is an iterator that reads the file as it goes, so no list of every
    line exists; the file closes when the iterator is exhausted or dropped.
    """
    lines = _read(path)
    return lines, next(lines)


def read_rows(path: Path | str, width: int) -> Iterator[tuple[int, list[str]]]:
    """Each body line's number and tab-separated fields; one without ``width`` fields is refused as ``path:line``."""
    lines, header = read(path)
    for lineno, line in enumerate(lines, start=2 + len(header)):  # after the kind line and the fields
        fields = line.split("\t")
        if len(fields) != width:
            raise ValidationError(f"{path}:{lineno}: expected {width} tab-separated fields, found {len(fields)}")
        yield lineno, fields


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


def _read(path: Path | str) -> Iterator:
    """The header fields, then each body line: the file is open from the first ``next`` to the last."""
    with opened(path) as (fh, fields):
        yield fields
        with io.TextIOWrapper(fh, encoding="utf-8") as text:
            for line in text:
                yield line.rstrip("\n")


def check_digest(path: Path | str, expected: str, producer: str) -> None:
    """Refuse an artifact whose digest is not ``expected``, the one ``producer`` would write now.

    Reads the header alone, so a stale body is never decoded.
    """
    found = read(path)[1].get("digest")
    if found != expected:
        raise ArtifactMismatchError(
            f"{path} is stale: its digest is {found!r}, its inputs now give {expected!r}; "
            f"rerun the {producer!r} stage"
        )
