"""Corpus entries: the value types every entries stage decodes, and their rule.

``tables`` and ``triples`` re-export these names; the stages that only read
and write entries import this module alone, and so compile neither of those.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import MalformedEntryError, OversizeError

MAX_TRIPLES = 10


class Provenance(str, Enum):
    WIKITABLEQUESTIONS = "wikitablequestions"
    WIKISQL = "wikisql"
    WEBNLG = "webnlg"
    E2E = "e2e"
    SYNTHETIC = "synthetic"
    OTHER = "other"


class Annotator(str, Enum):
    INTERNAL = "internal"
    MTURK = "mturk"
    AUTO_DECLARATIVE = "auto_declarative"
    EXTERNAL_DATASET = "external_dataset"


# each enum's members by value, so the entry decoders look a known value up
# in one dict; the JSONL decoder hands anything else to files.field
PROVENANCES = {p.value: p for p in Provenance}
ANNOTATORS = {a.value: a for a in Annotator}


# Like every value type of the package, the entry types are immutable
# NamedTuples: every stage after extraction decodes whole corpora of them, a
# tuple is about half the cost to build of a frozen dataclass, and no stage
# pays to import ``dataclasses``. Use ``._replace`` to derive a changed copy.
class Triple(NamedTuple):
    subject: str
    predicate: str
    object: str


class Realization(NamedTuple):
    text: str
    annotator: Annotator = Annotator.INTERNAL
    comment: str = ""


class Dropped(NamedTuple):
    """A record that a stage skips, and why. Defined here, not in ``adapters``, because
    ``cli._write_entries``, loaded by every stage at start-up, counts skips by ``reason``."""
    reason: str


class CorpusEntry(NamedTuple):
    triples: tuple[Triple, ...]
    realizations: tuple[Realization, ...]
    category: str
    eid: str
    provenance: Provenance = Provenance.OTHER
    table_id: str | None = None
    row_index: int | None = None
    flags: tuple[str, ...] = ()


def check_entry(entry: CorpusEntry) -> CorpusEntry:
    """``entry`` itself if it obeys the rule every entry obeys, however it is made.

    An entry has at least one realization, no realization whose text is
    blank, and 1 to MAX_TRIPLES triples. The first fault found, in that
    order, is a MalformedEntryError with the entry's eid; too many triples is
    its subclass OversizeError, which the record stages skip as ``oversize
    tripleset``.
    """
    if not entry.realizations:
        raise MalformedEntryError("no realizations", eid=entry.eid)
    for r in entry.realizations:
        if not r.text.strip():
            raise MalformedEntryError("empty realization text", eid=entry.eid)
    size = len(entry.triples)
    if not size:
        raise MalformedEntryError("entry has no triples", eid=entry.eid)
    if size > MAX_TRIPLES:
        raise OversizeError(f"{size} triples, limit is {MAX_TRIPLES}", eid=entry.eid)
    return entry
