"""Reading inputs and writing outputs, with errors that name the file.

Every input is decoded by one rule, UTF-8 less a leading byte-order mark,
whether it is read whole (``read_text``) or a line at a time
(``read_lines``). Every output is written through a temp file that is synced
and renamed into place (``write_atomic``), so a failed run leaves no
half-written file.
"""

from __future__ import annotations

import errno
import os
import tempfile
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import ParseError, located

# How every input is decoded: as UTF-8, without the byte-order mark a file may begin with
# (utf-8-sig drops one at the start and reads UTF-8 text without one as it is).
_ENCODING = "utf-8-sig"


def _not_utf8(path: str | Path, exc: UnicodeDecodeError) -> Exception:
    """The error for the first byte of the file at ``path`` that is not UTF-8.

    ``exc`` is what decoding part of the file raised; it is the error if the
    whole file decodes now, having changed while it was read.
    """
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:  # its offset is into the file, not into a chunk
        head = data[:first.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return located(ParseError(str(first)), path, line)
    return exc


def read_text(path: str | Path, newline: str | None = None) -> str:
    """The text of the UTF-8 file at ``path``, line ends as ``open`` reads them with ``newline``.

    A leading byte-order mark is dropped. A byte that is not UTF-8 is a
    ParseError at ``PATH: line N:``; ``\\r\\n``, ``\\r`` and ``\\n`` each end a
    line, as every reader here counts them.
    """
    try:
        with open(path, encoding=_ENCODING, newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def read_lines(path: str | Path) -> Iterator[str]:
    """The lines of the UTF-8 file at ``path`` by ``read_text``'s rules, read as asked for.

    ``\\r\\n``, ``\\r`` and ``\\n`` each end a line, and are read as ``\\n``. The
    file is opened now, so a missing input fails before any output is begun,
    and read through once first, a block at a time: a byte that is not UTF-8
    is the error before any line is given, as it is for ``read_text``,
    wherever in the file it is. A pipe cannot be read twice, so its lines are
    decoded only as they are read, and a bad byte in it is the codec's error.
    """
    fh = open(path, encoding=_ENCODING)
    try:
        if fh.seekable():
            while fh.read(1 << 16):
                pass
            fh.seek(0)
    except BaseException as exc:
        fh.close()
        if isinstance(exc, UnicodeDecodeError):
            raise _not_utf8(path, exc) from None
        raise
    lines = _lines(fh)
    next(lines)  # into the with block, so the file is closed even if no line is asked for
    return lines


def _lines(fh: TextIO) -> Iterator[str]:
    with fh:
        yield ""
        yield from fh


class _Naming:
    """``with`` it, an OSError is raised again as one of its type that reads ``PATH: reason``."""

    def __init__(self, path: Path):
        self.path = path

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, OSError):
            raise kind(f"{self.path}: {exc.strerror or exc}") from exc


def write_atomic(path: str | Path, chunks: Iterable[str],
                 *more: tuple[str | Path, Iterable[str]]) -> None:
    """Write ``chunks`` to ``path`` as they come, then each ``(path, chunks)`` of ``more``.

    Each output goes to a temp file beside it, made before its first chunk is
    asked for and synced after its last. Only once every output is written
    are they renamed into place, in order, so a stage's outputs appear only
    if all of them could be written; whatever fails, no temp file is left.
    An OSError of an output names its path as given; an error raised in
    making a chunk passes through as it is.
    """
    umask = os.umask(0)  # os.umask is the only way to read it; restore it at once
    os.umask(umask)
    written: list[tuple[str, Path, _Naming]] = []  # (temp file, path, its naming)
    try:
        for path, chunks in ((path, chunks), *more):
            path = Path(path)
            named = _Naming(path)
            with named:
                if path.is_dir():  # os.replace would refuse it, but only after the stream
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
            written.append((tmp, path, named))
            chunks = iter(chunks)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # one write per chunk costs more than joining a few hundred first
                while batch := list(islice(chunks, 256)):
                    with named:
                        fh.write("".join(batch))
                with named:
                    fh.flush()
                    os.fsync(fh.fileno())  # the bytes are on disk before the name points at them
            with named:
                os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes 0600; give the mode open() would
        for tmp, path, named in written:
            with named:
                os.replace(tmp, path)
    except BaseException:
        for tmp, _, _ in written:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
