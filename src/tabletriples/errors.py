"""Exception types shared across the toolkit, and where an error happened.

Every input fault is raised where it is found as a TableTriplesError, so
the CLI catches that base class and OSError alone for its error report; a
KeyError, TypeError or ValueError there is a bug. ``located`` alone puts the
place of the offending record or file before an error's message, and keeps
that place as data: the file as the error's ``path``, the line as its
``line``, beside the ``eid`` of a MalformedEntryError. Only
``files._naming`` names the file of an OSError, whose message is its OS
reason. A value type that checks its fields is one ``NamedTuple`` class
under ``@checked``, so every way of building one runs its check.
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


class ParseError(TableTriplesError):
    """Malformed textual input (meaning representation, annotation record, ...)."""


class MalformedEntryError(TableTriplesError):
    """An entry, in an XML document, on a JSONL line or being built, is invalid.

    Carries the entry id (when known) so callers can point at the offender.
    """

    def __init__(self, message: str, eid: str | None = None):
        super().__init__(message if eid is None else f"entry {eid}: {message}")
        self.eid = eid


class OversizeError(MalformedEntryError):
    """A tripleset exceeded the maximum allowed number of triples; an entry's carries its eid."""


class BoundError(TableTriplesError, ValueError):
    """A sampler or split setting is out of range; ``flags`` are the flags its message names."""

    def __init__(self, message: str, *flags: str):
        super().__init__(message)
        self.flags = flags


class DegenerateSplitError(TableTriplesError):
    """A split has fewer than 3 tables, or an empty train, dev, or test partition."""


class PredicateMapError(TableTriplesError):
    """A predicate mapping table violates the no-chains closure or the format."""


def located(exc: Exception, path: object, line: int | None = None) -> Exception:
    """``exc`` with ``PATH: line N: `` before its message, to raise in its place.

    ``PATH: `` alone locates an error in a whole file; a ``path`` of None
    gives ``line N: `` for text read without one; the error keeps its type,
    and ``path`` and ``line`` as attributes. An error whose file is named
    already is returned as it is, so a caller that locates whatever a stream
    raises at the stream's file leaves an error its reader located at a line
    alone; one located at a line alone keeps that line when put in a file.
    Called in an ``except`` clause, so records that raise nothing pay nothing.
    """
    if getattr(exc, "path", None) is not None:
        return exc
    where = f"line {line}" if path is None else path if line is None else f"{path}: line {line}"
    exc.args = (f"{where}: {exc}",)
    exc.path = path
    exc.line = line if line is not None else getattr(exc, "line", None)
    return exc


def checked(cls):
    """The ``NamedTuple`` type ``cls``, made to run its ``_check``, which raises on bad
    fields, however a value is built: by position, by keyword, or through ``_make``,
    which ``_replace`` calls and which would otherwise build the tuple without ``__new__``.
    """
    new = cls.__new__

    def __new__(*args, **kwargs):
        self = new(*args, **kwargs)
        self._check()
        return self

    cls.__new__ = staticmethod(__new__)
    cls._make = classmethod(lambda kind, iterable: kind(*iterable))
    return cls
