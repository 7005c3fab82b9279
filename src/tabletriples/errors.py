"""Exception types shared across the toolkit, and where an error happened.

Everything raised on purpose derives from TableTriplesError so the CLI can
catch one base class and emit a structured error report. ``located`` puts
the place of the offending record or file before an error's message.
"""

from __future__ import annotations


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


class EmptyRealizationError(TableTriplesError):
    """An entry was assembled without any (non-empty) realization text."""


class ParseError(TableTriplesError):
    """Malformed textual input (meaning representation, annotation record, ...)."""


class MalformedEntryError(TableTriplesError):
    """An entry, in an XML document or on a JSONL line, is invalid.

    Carries the entry id (when known) so callers can point at the offender.
    """

    def __init__(self, message: str, eid: str | None = None):
        super().__init__(message if eid is None else f"entry {eid}: {message}")
        self.eid = eid


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
