"""Reading inputs and writing outputs, with errors that name the file.

This is the one module that opens, decodes, splits or parses an input. Every
input is decoded by one rule, UTF-8 less a leading byte-order mark, whether
it is read a line at a time (``read_lines``, for JSONL, CSV, TSV and the
predicate map) or a block of characters at a time (``read_blocks``, for the
XML document, which is parsed as it is read, and for JSON, which
``read_json`` joins and parses). Every output is written through a temp file
beside it, made with the mode ``open()`` would give, then synced and renamed
into place (``write_atomic``), so a failed run leaves no half-written file.
"""

from __future__ import annotations

import errno
import json
import os
from contextlib import contextmanager
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .errors import ParseError, TableTriplesError, located

# How every input is decoded: as UTF-8, without the byte-order mark a file may begin with
# (utf-8-sig drops one at the start and reads UTF-8 text without one as it is).
_ENCODING = "utf-8-sig"
# How many characters of a file are decoded at a time, when it is checked and by read_blocks
_BLOCK = 1 << 16


def _not_utf8(path: str | Path, fh: TextIO, exc: UnicodeDecodeError) -> Exception:
    """The error for the first byte of ``fh``, the file at ``path``, that is not UTF-8.

    ``exc`` is what decoding part of it raised. A file is read again to name
    the line of that byte, and ``exc`` is the error if it decodes whole now,
    having changed while it was read. A pipe cannot be read twice, so its
    error is the codec's without the position, which is into a chunk.
    """
    if not fh.seekable():
        head, _, tail = str(exc).partition(" in position ")
        return located(ParseError(head + tail[tail.index(":"):]), path)
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:  # its offset is into the file, not into a chunk
        head = data[:first.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return located(ParseError(str(first)), path, line)
    return exc


def read_json(path: str | Path, error: type[Exception] = TableTriplesError):
    """The JSON document at ``path``; invalid JSON is an ``error`` naming the file."""
    try:
        return json.loads("".join(read_blocks(path)))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from exc


def read_lines(path: str | Path, newline: str | None = None) -> Iterator[str]:
    """The lines of the UTF-8 file at ``path``, read as they are asked for.

    A leading byte-order mark is dropped. ``\\r\\n``, ``\\r`` and ``\\n`` each
    end a line, and are read as ``\\n``; ``newline=""`` keeps them as they
    are, which ``csv`` needs to keep a line end inside a quoted cell. The file
    is opened now, so a missing input fails before any output is begun, and
    read through once first, a block at a time: a byte that is not UTF-8 is a
    ParseError at ``PATH: line N:`` before any line is given, wherever in the
    file it is. A pipe cannot be read twice, so its lines are decoded only as
    they are read.
    """
    return _read(path, newline, iter)  # a text file iterates by lines


def read_blocks(path: str | Path) -> Iterator[str]:
    """The text of the UTF-8 file at ``path`` by ``read_lines``' rules, a block at a time.

    Each block holds up to ``_BLOCK`` characters, so a document on one line
    streams as well as one on many; ``"".join(read_blocks(path))`` is the
    whole text.
    """
    return _read(path, None, lambda fh: iter(partial(fh.read, _BLOCK), ""))


def _read(path: str | Path, newline: str | None,
          parts: Callable[[TextIO], Iterable[str]]) -> Iterator[str]:
    """``parts`` of the file at ``path``, which is opened and checked now."""
    text = _checked(path, open(path, encoding=_ENCODING, newline=newline), parts)
    next(text)  # into the with block, so the file is closed even if nothing is asked for
    return text


def _checked(path: str | Path, fh: TextIO,
             parts: Callable[[TextIO], Iterable[str]]) -> Iterator[str]:
    with fh:
        try:
            if fh.seekable():
                while fh.read(_BLOCK):
                    pass
                fh.seek(0)
            yield ""
            yield from parts(fh)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, fh, exc) from None


@contextmanager
def _naming(path: Path) -> Iterator[None]:
    """``with`` it, an OSError is raised again as one of its type that reads ``PATH: reason``."""
    try:
        yield
    except OSError as exc:
        raise type(exc)(f"{path}: {exc.strerror or exc}") from exc


def write_atomic(path: str | Path, chunks: Iterable[str],
                 *more: tuple[str | Path, Iterable[str]]) -> None:
    """Write ``chunks`` to ``path`` as they come, then each ``(path, chunks)`` of ``more``.

    Each output goes to a temp file beside it, made with the mode ``open()``
    would give before its first chunk is asked for, and synced after its
    last. Only once every output is written are they renamed into place, in
    order, so a stage's outputs appear only if all of them could be written;
    whatever fails, no temp file is left. An OSError of an output names its
    path as given; an error raised in making a chunk passes through as it is.
    """
    written: list[tuple[str, Path]] = []  # (temp file, path)
    try:
        for path, chunks in ((path, chunks), *more):
            path = Path(path)
            with _naming(path):
                if path.is_dir():  # os.replace would refuse it, but only after the stream
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                tmp = f"{path}.{os.urandom(6).hex()}"  # 48 random bits: no clash to retry
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            written.append((tmp, path))
            chunks = iter(chunks)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # one write per chunk costs more than joining a few hundred first
                while batch := list(islice(chunks, 256)):
                    with _naming(path):
                        fh.write("".join(batch))
                with _naming(path):
                    fh.flush()
                    os.fsync(fh.fileno())  # the bytes are on disk before the name points at them
        for tmp, path in written:
            with _naming(path):
                os.replace(tmp, path)
    except BaseException:
        for tmp, _ in written:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
