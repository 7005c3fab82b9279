"""Serialization: XML entry documents, internal JSONL, linearized strings.

The XML layout follows the WebNLG entry convention: an ``<entries>`` document
of ``<entry category eid size>`` elements, each with a ``modifiedtripleset``
of ``<mtriple>subject | predicate | object</mtriple>`` children and one
``<lex comment lid>`` child per realization. The writer fixes attribute
order and two-space indentation so output is stable enough for golden files.
The reader inverts the writer except where XML itself normalizes: ``\r\n``
and a lone ``\r`` in triple or realization text read back as ``\n``, and
realization text is read back stripped. Characters XML 1.0 cannot carry
(most C0 controls, lone surrogates, U+FFFE, U+FFFF) make the writer raise.

Literal pipes inside triple fields would corrupt the ``" | "`` separator, so
they are escaped as the two-character sequence ``\\|`` (and backslash as
``\\\\``) inside mtriple text.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Iterable
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

from .errors import MalformedEntryError
from .triples import (
    Annotator,
    CorpusEntry,
    Provenance,
    Realization,
    Triple,
    TripleSet,
)

SCHEMA_VERSION = 1

_ANNOTATOR_TAGS = {a.value for a in Annotator}

# the characters outside XML 1.0's Char production (the complement of that
# production compiles several times slower, and every stage imports this module)
_XML_ILLEGAL = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


# --- pipe escaping ----------------------------------------------------------

def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|")


def unescape_field(text: str) -> str:
    return text.replace("\\\\", "\x00").replace("\\|", "|").replace("\x00", "\\")


def _split_mtriple(text: str, eid: str | None) -> Triple:
    protected = text.replace("\\\\", "\x00").replace("\\|", "\x01")
    parts = protected.split(" | ")
    if len(parts) != 3:
        raise MalformedEntryError(
            f"mtriple does not have three ' | '-separated fields: {text!r}", eid=eid
        )
    restore = lambda s: s.replace("\x01", "|").replace("\x00", "\\")
    return Triple(*(restore(p) for p in parts))


# --- XML --------------------------------------------------------------------

def write_xml(entries: Iterable[CorpusEntry]) -> str:
    """Render entries as an XML document string.

    Raises MalformedEntryError naming the entry when a field holds a
    character XML cannot represent.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>', "<entries>"]
    for entry in entries:
        first = len(lines)
        attrs = [
            f"category={quoteattr(entry.category)}",
            f"eid={quoteattr(entry.eid)}",
            f"size={quoteattr(str(len(entry.tripleset.triples)))}",
        ]
        if entry.tripleset.provenance is not Provenance.OTHER:
            attrs.append(f"provenance={quoteattr(entry.tripleset.provenance.value)}")
        if entry.table_id is not None:
            attrs.append(f"table_id={quoteattr(entry.table_id)}")
        if entry.row_index is not None:
            attrs.append(f"row={quoteattr(str(entry.row_index))}")
        if entry.flags:
            attrs.append(f"flags={quoteattr(','.join(entry.flags))}")
        lines.append(f'  <entry {" ".join(attrs)}>')
        lines.append("    <modifiedtripleset>")
        for t in entry.tripleset.triples:
            body = " | ".join(
                escape_field(part) for part in (t.subject, t.predicate, t.object)
            )
            lines.append(f"      <mtriple>{escape(body)}</mtriple>")
        lines.append("    </modifiedtripleset>")
        for i, r in enumerate(entry.realizations, start=1):
            comment = r.comment if r.comment else r.annotator.value
            lines.append(
                f"    <lex comment={quoteattr(comment)} lid={quoteattr(f'Id{i}')}>"
                f"{escape(r.text)}</lex>"
            )
        lines.append("  </entry>")
        bad = _XML_ILLEGAL.search("".join(lines[first:]))
        if bad:
            raise MalformedEntryError(
                f"character U+{ord(bad.group()):04X} cannot be written as XML", eid=entry.eid
            )
    lines.append("</entries>")
    return "\n".join(lines) + "\n"


def read_xml(document: str) -> list[CorpusEntry]:
    """Parse an XML entry document; inverse of write_xml.

    Wrapper elements other than <entry> are tolerated, so documents wrapped
    in e.g. <benchmark><entries> parse as well. The size attribute must match
    the triple count.
    """
    try:
        root = ElementTree.fromstring(document)
    except ElementTree.ParseError as exc:
        raise MalformedEntryError(f"invalid XML: {exc}") from exc

    elements = [root] if root.tag == "entry" else root.iter("entry")
    entries = []
    for el in elements:
        eid = el.get("eid")
        if eid is None:
            raise MalformedEntryError("entry element has no eid attribute")
        category = el.get("category")
        size = el.get("size")
        if category is None or size is None:
            raise MalformedEntryError("missing category or size attribute", eid=eid)

        tripleset_el = el.find("modifiedtripleset")
        if tripleset_el is None:
            raise MalformedEntryError("entry has no modifiedtripleset", eid=eid)
        triples = tuple(
            _split_mtriple(mt.text or "", eid)
            for mt in tripleset_el.findall("mtriple")
        )
        try:
            declared = int(size)
        except ValueError:
            raise MalformedEntryError(f"size attribute {size!r} is not an integer", eid=eid)
        if declared != len(triples):
            raise MalformedEntryError(
                f"size attribute says {declared} but entry has {len(triples)} triples",
                eid=eid,
            )

        realizations = []
        for lex in el.findall("lex"):
            comment = lex.get("comment", "")
            if comment in _ANNOTATOR_TAGS:
                annotator, comment = Annotator(comment), ""
            else:
                annotator = Annotator.EXTERNAL_DATASET
            realizations.append(
                Realization(
                    text=(lex.text or "").strip(), annotator=annotator, comment=comment
                )
            )

        provenance = Provenance(el.get("provenance", Provenance.OTHER.value))
        flags_attr = el.get("flags", "")
        row = el.get("row")
        entries.append(
            CorpusEntry(
                tripleset=TripleSet(triples=triples, provenance=provenance),
                realizations=tuple(realizations),
                category=category,
                eid=eid,
                table_id=el.get("table_id"),
                row_index=int(row) if row is not None else None,
                flags=tuple(f for f in flags_attr.split(",") if f),
            )
        )
    return entries


# --- linearization ----------------------------------------------------------

def linearize(ts: TripleSet) -> str:
    """``<H> s <R> p <T> o`` per triple, single-space separated.

    The title predicate is rendered lowercase ``[title]`` in linearized
    strings (the subject token ``[TABLECONTEXT]`` keeps its casing).
    """
    if not ts.triples:
        raise ValueError("cannot linearize an empty tripleset")
    parts = []
    for t in ts.triples:
        predicate = "[title]" if t.predicate == "[TITLE]" else t.predicate
        parts.append(f"<H> {t.subject} <R> {predicate} <T> {t.object}")
    return " ".join(parts)


# --- internal JSONL ---------------------------------------------------------

def entry_to_dict(entry: CorpusEntry) -> dict:
    record = {
        "schema_version": SCHEMA_VERSION,
        "eid": entry.eid,
        "category": entry.category,
        "provenance": entry.tripleset.provenance.value,
        "triples": [[t.subject, t.predicate, t.object] for t in entry.tripleset.triples],
        "realizations": [
            {"text": r.text, "annotator": r.annotator.value, "comment": r.comment}
            for r in entry.realizations
        ],
    }
    if entry.table_id is not None:
        record["table_id"] = entry.table_id
    if entry.row_index is not None:
        record["row_index"] = entry.row_index
    if entry.flags:
        record["flags"] = list(entry.flags)
    return record


# entry fields whose JSON type is checked: a test of a present value, what it must be
_FIELD_TYPES = (
    ("eid", lambda v: type(v) is str, "a string"),
    ("category", lambda v: type(v) is str, "a string"),
    ("table_id", lambda v: v is None or type(v) is str, "a string or null"),
    ("row_index", lambda v: v is None or type(v) is int, "an integer or null"),
    ("flags", lambda v: type(v) is list and all(type(f) is str for f in v), "a list of strings"),
)


def entry_from_dict(record: dict) -> CorpusEntry:
    version = record.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise MalformedEntryError(
            f"unsupported schema version {version}", eid=record.get("eid")
        )
    for name, fits, wanted in _FIELD_TYPES:
        if name in record and not fits(record[name]):
            raise MalformedEntryError(f"field {name!r} must be {wanted}, got {record[name]!r}",
                                      eid=None if name == "eid" else record.get("eid"))
    return CorpusEntry(
        tripleset=TripleSet(
            triples=tuple(Triple(*t) for t in record["triples"]),
            provenance=Provenance(record.get("provenance", "other")),
        ),
        realizations=tuple(
            Realization(
                text=r["text"],
                annotator=Annotator(r.get("annotator", "internal")),
                comment=r.get("comment", ""),
            )
            for r in record["realizations"]
        ),
        category=record["category"],
        eid=record["eid"],
        table_id=record.get("table_id"),
        row_index=record.get("row_index"),
        flags=tuple(record.get("flags", ())),
    )


def write_entries_jsonl(entries: Iterable[CorpusEntry]) -> str:
    return "".join(
        json.dumps(entry_to_dict(e), ensure_ascii=False) + "\n" for e in entries
    )


def read_entries_jsonl(text: str) -> list[CorpusEntry]:
    """Decode entry lines; MalformedEntryError names the line and eid of a bad one."""
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        record = None
        try:
            record = json.loads(line)
            entries.append(entry_from_dict(record))
        except (AttributeError, KeyError, TypeError, ValueError, MalformedEntryError) as exc:
            if not isinstance(exc, MalformedEntryError):
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                eid = record.get("eid") if isinstance(record, dict) else None
                exc = MalformedEntryError(detail, eid=eid)
            exc.args = (f"line {lineno}: {exc}",)
            raise exc
    return entries


def read_entries_file(path: str | Path) -> list[CorpusEntry]:
    try:
        return read_entries_jsonl(Path(path).read_text(encoding="utf-8"))
    except MalformedEntryError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
