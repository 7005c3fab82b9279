"""Exception types shared across the toolkit, and where an error happened.

Everything raised on purpose derives from TableTriplesError so the CLI can
catch one base class and emit a structured error report. ``located`` puts
the place of the offending record or file before an error's message;
``read_text`` does so for a file that is not UTF-8.
"""

from __future__ import annotations

from pathlib import Path


class TableTriplesError(Exception):
    """Base class for all toolkit errors."""


class DuplicateHeaderError(TableTriplesError):
    """A table has repeated (or empty) column headers; must be fixed upstream."""


class CycleError(TableTriplesError):
    """Parent annotations form a cycle among columns."""


class BadIndexError(TableTriplesError):
    """A column parent reference is out of range or points at itself, or a
    highlight names a node its table's tree does not have."""


class EmptyTreeError(TableTriplesError):
    """The ontology tree has no nodes besides the root."""


class OversizeError(TableTriplesError):
    """A tripleset exceeded the maximum allowed number of triples."""


class ParseError(TableTriplesError):
    """Malformed textual input (meaning representation, annotation record, ...)."""


class MalformedEntryError(TableTriplesError):
    """An entry, in an XML document, on a JSONL line or being built, is invalid.

    Carries the entry id (when known) so callers can point at the offender.
    """

    def __init__(self, message: str, eid: str | None = None):
        super().__init__(message if eid is None else f"entry {eid}: {message}")
        self.eid = eid


class BoundError(TableTriplesError, ValueError):
    """A sampler or split setting is out of range; the message names its flag."""


class DegenerateSplitError(TableTriplesError):
    """A dataset split ended up with an empty train, dev, or test partition."""


class PredicateMapError(TableTriplesError):
    """A predicate mapping table violates the no-chains closure or the format."""


# what handling one input record can raise about that record
RECORD_ERRORS = (TableTriplesError, KeyError, TypeError, ValueError)


def located(exc: Exception, path: object, line: int | None = None) -> Exception:
    """``exc`` with ``PATH: line N: `` before its message, to raise in its place.

    ``PATH: `` alone locates an error in a whole file; a ``path`` of None
    gives ``line N: `` for text read without one. A KeyError becomes
    ``TableTriplesError: missing field 'k'``; any other error keeps its type.
    Called in an ``except`` clause, so records that raise nothing pay nothing.
    """
    where = f"line {line}" if path is None else path if line is None else f"{path}: line {line}"
    if isinstance(exc, KeyError):
        return TableTriplesError(f"{where}: missing field {exc}")
    exc.args = (f"{where}: {exc}",)
    return exc


def read_text(path: str | Path, newline: str | None = None) -> str:
    """The text of the UTF-8 file at ``path``, line ends as ``open`` reads them with ``newline``.

    A byte that is not UTF-8 is a ParseError at ``PATH: line N:``; ``\\r\\n``,
    ``\\r`` and ``\\n`` each end a line, as every reader here counts them.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:  # its offset is into the file, not into a chunk
            head = data[:exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise located(ParseError(str(exc)), path, line) from None
        raise
