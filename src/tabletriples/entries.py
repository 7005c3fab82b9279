"""Corpus entries: their value types, rule and maker, and the ``Highlight`` of a table row.

The stages that need no table (the entries stages, ``convert-e2e`` and ``ingest-webnlg``)
import this module, not ``tables`` or ``triples``, which re-export some of its names.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import MalformedEntryError, OversizeError, checked

if TYPE_CHECKING:
    from .tables import NodeId

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


@checked
class Highlight(NamedTuple):  # here, so that adapters.align_row loads no table module
    table_id: str
    row_index: int
    nodes: frozenset[NodeId]

    def _check(self):
        if not self.nodes:
            raise ValueError("highlight must contain at least one node")


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


def assemble_entry(
    triples: tuple[Triple, ...],
    realizations: list[Realization] | tuple[Realization, ...],
    category: str,
    eid: str,
    provenance: Provenance = Provenance.OTHER,
    table_id: str | None = None,
    row_index: int | None = None,
    flags: tuple[str, ...] = (),
) -> CorpusEntry:
    """The entry of these fields, if ``check_entry`` accepts it.

    Every entry built from a source's parts is made here (``convert-e2e``, and
    ``extract`` and ``align-wikisql`` through ``triples.entry_for_highlight``).
    The entries decoded from a file (``formats``' JSONL and XML decoders, which
    check each one too) and those rebuilt from one (``adapters.webnlg_ingest``,
    ``unify.unify_entry``) are made as ``CorpusEntry`` directly.
    """
    return check_entry(CorpusEntry(triples, tuple(realizations), category, eid,
                                   provenance, table_id, row_index, flags))
