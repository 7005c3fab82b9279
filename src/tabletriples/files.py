"""Reading inputs and writing outputs, with errors that name the file.

This is the one module that opens, decodes, splits or parses an input. Every
input is decoded by one rule, UTF-8 less a leading byte-order mark, whether
it is read a line at a time (``read_lines``, for JSONL, the predicate map,
and CSV and TSV, which ``read_csv`` splits into rows) or a block of
characters at a time (``read_blocks``, for XML, parsed as it is read, and
JSON). A JSON document (``read_json``) and each JSONL line (``read_jsonl``)
are checked by one rule (``_json_object``): an object, whose escapes decode
to no lone surrogate, which no UTF-8 output can hold. A field of a decoded
record is read by one rule too (``field``, whose fault is always a
ParseError for its caller to locate). Every output is written through a
temp file beside it, made with the mode ``open()`` would give, then synced
and renamed into place (``write_atomic``), so a failed run leaves no
half-written file. An error here names its file through ``errors.located``,
but an OSError's through ``_naming``, as its message is its OS reason.
"""

from __future__ import annotations

import errno
import json
import os
import re
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
_JSON_NAMES = {str: "a string", int: "an integer", float: "a number", list: "a list"}  # in errors
# what a JSON escape can decode to that UTF-8 cannot encode
_SURROGATE = re.compile("[\ud800-\udfff]")
_encode = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(v, ensure_ascii=False), once
# what json.loads runs on a line once it has found no byte-order mark and skipped whitespace
_scan = json.JSONDecoder().scan_once


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


def read_json(path: str | Path, error: type[TableTriplesError] = TableTriplesError) -> dict:
    """The JSON object of the document at ``path``; ``_json_object``'s error names the file."""
    try:
        return _json_object("".join(read_blocks(path)), error)
    except TableTriplesError as exc:
        raise located(exc, path)


def read_jsonl(lines: Iterable[str], path: object = None,
               decode: Callable[[dict], object] | None = None,
               error: type[TableTriplesError] = TableTriplesError) -> Iterator[tuple[int, object]]:
    """Each non-blank line's JSON object, or ``decode`` of it, after its line number.

    ``lines`` end at ``\n`` only, as ``read_lines`` gives them: the writer
    leaves U+0085, U+2028 and U+2029 unescaped inside strings, and
    ``str.splitlines`` would break lines there. One trailing ``\n`` is not
    part of a line's JSON. ``_json_object``'s error for a line, or a
    TableTriplesError that ``decode`` raises, is located at ``PATH: line N:``.
    Lines are read as they are asked for, so the first bad line is the one
    reported.
    """
    try:
        for lineno, line in enumerate(lines, 1):
            try:  # one call of json.loads' scanner reads a line of one value and its "\n"
                record, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = 0
            try:
                if end and line[end:] in ("", "\n"):
                    record = _json_object(line, error, record)
                elif not line.strip():
                    continue
                else:  # json.loads words the fault; a "\n" left on changes it for a cut-off string
                    record = _json_object(line[:-1] if line[-1] == "\n" else line, error)
                if decode is not None:
                    record = decode(record)
            except TableTriplesError as exc:
                raise located(exc, path, lineno)
            yield lineno, record
    finally:  # a bad line's error refers back to this frame, and must not keep the input open
        del lines


def _json_object(text: str, error: type[TableTriplesError], value=...) -> dict:
    """The JSON object ``text`` holds (``value``, if decoded already), or an ``error``.

    The error, for the caller to locate, names the first of three faults:
    JSON that json.loads refuses (also too deep, or an integer too long), in
    its words; a value that is no object; a lone surrogate (``lone_surrogate``).
    """
    if value is ...:
        try:
            value = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise error(f"invalid JSON: {exc}") from exc
    if type(value) is not dict:
        raise error("expected a JSON object")
    if "\\u" in text and (lone := lone_surrogate(value)):
        raise error(lone)
    return value


def write_jsonl(records: Iterable[dict]) -> Iterator[str]:
    """One line of JSON per record, as the lines are asked for; non-ASCII written as it is."""
    return (_encode(r) + "\n" for r in records)


def lone_surrogate(value) -> str | None:
    """Why ``value``, a string or a decoded JSON value, cannot be written as UTF-8; None if it can.

    Text decoded from UTF-8 holds no surrogate, so in JSON read from a file
    only a ``\\u`` escape can make one: a caller checks for one first.
    """
    lone = _SURROGATE.search(_encode(value))
    if lone is None:
        return None
    return f"character U+{ord(lone.group()):04X} (a lone surrogate) cannot be written as UTF-8"


def read_csv(path: str | Path, delimiter: str = ",") -> Iterator[tuple[int, list[str]]]:
    """Each row of the CSV file at ``path``, split at ``delimiter``, after its first line number.

    The file is read by ``read_lines``' rules, a row as it is asked for. A
    quoted cell can span lines, and keeps its line ends as they are; a blank
    line is a row of no cells. A row that ``csv`` cannot read, such as one
    with a cell over its field size limit, is a ParseError at ``PATH: line N:``.
    """
    import csv  # here, not at start-up: only the two stages that read CSV load it

    reader = csv.reader(read_lines(path, newline=""), delimiter=delimiter)
    first = 1
    try:
        for cells in reader:
            yield first, cells
            first = reader.line_num + 1
    except csv.Error as exc:  # csv.field_size_limit is process-wide, so it stays as it is
        raise located(ParseError(str(exc)), path, first) from None


def field(record: dict, key: str, *kinds: type, default=...):
    """``record[key]`` if it is of one of ``kinds`` (any, if none); ``default`` if absent.

    A kind is a JSON type, matched exactly (a bool is no int), or an Enum, whose
    member the value names is returned. A null is accepted only if ``default`` is
    None. A fault is a ParseError, for the caller to locate: ``missing field 'K'``,
    ``field 'K' must be a string or an integer, got V`` or ``field 'K' must be
    one of 'v1', 'v2', got V``.
    """
    value = record.get(key, default)
    if value is ...:
        raise ParseError(f"missing field {key!r}")
    if not kinds or type(value) in kinds or value is default:
        return value
    members = getattr(kinds[0], "_value2member_map_", {})  # an Enum's by value; a type's: none
    if type(value) not in (list, dict) and value in members:  # a list or an object is no key
        return members[value]
    wanted = (f"one of {', '.join(map(repr, members))}" if members
              else " or ".join(_JSON_NAMES[kind] for kind in kinds))
    raise ParseError(f"field {key!r} must be {wanted}, got {value!r}")


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
    Two outputs that resolve to one file would lose the first, so they are a
    TableTriplesError at the second, as given, before any output is begun.
    """
    outputs = ((path, chunks), *more)
    real = [os.path.realpath(out) for out, _ in outputs]
    for i, (out, _) in enumerate(outputs):
        if real[i] in real[:i]:
            first = outputs[real.index(real[i])][0]
            raise located(TableTriplesError(f"the same file as the output {first}"), out)
    written: list[tuple[str, Path]] = []  # (temp file, path)
    try:
        for path, chunks in outputs:
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
