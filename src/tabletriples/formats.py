"""Serialization: internal JSONL and linearized strings.

The writers yield their text a line at a time, and the readers decode each
JSONL line as it is asked for, so a stage can stream a corpus one entry at a
time. The XML entry codec is ``xmlcodec``, which only ``export-xml`` and
``ingest-webnlg`` import; ``read_xml`` and ``write_xml`` still resolve here,
importing it when first looked up.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .entries import Annotator, CorpusEntry, Provenance, Realization, Triple, check_entry
from .errors import MalformedEntryError, ParseError, TableTriplesError, located
from .files import _encode, field, lone_surrogate, read_lines

SCHEMA_VERSION = 1

# enum members by value: decoding a known value is a dict lookup; anything
# else goes through files.field, whose error names the field
_PROVENANCES = {p.value: p for p in Provenance}
_ANNOTATORS = {a.value: a for a in Annotator}

# what json.loads runs on a line once it has found no byte-order mark and skipped whitespace
_scan = json.JSONDecoder().scan_once


def __getattr__(name: str):
    # perfbench's tracer looks these two up here; no other name, since ``from .formats
    # import x`` asks for ``__path__``, and no stage but two may import the XML codec
    if name in ("read_xml", "write_xml"):
        from . import xmlcodec
        return getattr(xmlcodec, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# --- linearization ----------------------------------------------------------

def linearize(triples: tuple[Triple, ...]) -> str:
    """``<H> s <R> p <T> o`` per triple, single-space separated, on one line.

    The title predicate is rendered lowercase ``[title]`` in linearized
    strings (the subject token ``[TABLECONTEXT]`` keeps its casing). A field
    that holds a line break (any that ``str.splitlines`` knows) would split
    the line, so then the string's lines are joined with single spaces.
    """
    if not triples:
        raise ValueError("cannot linearize an empty tripleset")
    parts = []
    for subject, predicate, obj in triples:
        if predicate == "[TITLE]":
            predicate = "[title]"
        parts.append(f"<H> {subject} <R> {predicate} <T> {obj}")
    text = " ".join(parts)
    if not text.isprintable():  # every line break is unprintable
        return " ".join(text.splitlines())
    return text


# --- internal JSONL ---------------------------------------------------------

def entry_to_dict(entry: CorpusEntry) -> dict:
    record = {
        "schema_version": SCHEMA_VERSION,
        "eid": entry.eid,
        "category": entry.category,
        "provenance": entry.provenance.value,
        "triples": [[s, p, o] for s, p, o in entry.triples],
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


# what each entry field whose JSON type is checked must be, in checking order
_FIELD_WANTED = {"eid": "a string", "category": "a string", "table_id": "a string or null",
                 "row_index": "an integer or null", "flags": "a list of strings"}


def _fields_fit(record: dict) -> bool:
    """Whether every field of _FIELD_WANTED that ``record`` has is what it must be."""
    get = record.get
    table_id, row_index, flags = get("table_id"), get("row_index"), get("flags", [])
    return (type(get("eid", "")) is type(get("category", "")) is str
            and (table_id is None or type(table_id) is str)
            and (row_index is None or type(row_index) is int)  # a bool is no int
            and type(flags) is list and (not flags or all(type(f) is str for f in flags)))


def _field_error(record: dict, name: str, wanted: str) -> MalformedEntryError:
    return MalformedEntryError(f"field {name!r} must be {wanted}, got {record[name]!r}",
                               eid=None if name == "eid" else record.get("eid"))


def _decode_triples(record: dict) -> tuple[Triple, ...]:
    value = record["triples"]
    if type(value) is list:
        triples = tuple([Triple._make(t) for t in value if type(t) is list and len(t) == 3
                         and type(t[0]) is type(t[1]) is type(t[2]) is str])
        if len(triples) == len(value):
            return triples
    raise _field_error(record, "triples", "a list of [subject, predicate, object] string lists")


def _decode_realizations(record: dict) -> tuple[Realization, ...]:
    value = record["realizations"]
    if type(value) is list:
        realizations = []
        for r in value:
            if type(r) is not dict:
                break
            text, comment = r["text"], r.get("comment", "")
            if not type(text) is type(comment) is str:
                break
            try:
                annotator = _ANNOTATORS[r.get("annotator", "internal")]
            except (KeyError, TypeError):
                annotator = field(r, "annotator", Annotator)
            realizations.append(Realization(text, annotator, comment))
        else:
            return tuple(realizations)
    raise _field_error(record, "realizations",
                       "a list of objects whose 'text' and 'comment' are strings")


def entry_from_dict(record: dict) -> CorpusEntry:
    """The entry ``record`` holds, checked by ``check_entry``.

    Any fault in the record is a MalformedEntryError, except more than
    MAX_TRIPLES triples, which is check_entry's OversizeError.
    """
    get = record.get
    try:
        version = get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise MalformedEntryError(f"unsupported schema version {version}", eid=get("eid"))
        if not _fields_fit(record):
            for name, wanted in _FIELD_WANTED.items():
                if name in record and not _fields_fit({name: record[name]}):
                    raise _field_error(record, name, wanted)
        triples = _decode_triples(record)
        try:
            provenance = _PROVENANCES[get("provenance", "other")]
        except (KeyError, TypeError):
            provenance = field(record, "provenance", Provenance)
        return check_entry(CorpusEntry(
            triples, _decode_realizations(record), record["category"], record["eid"],
            provenance, get("table_id"), get("row_index"), tuple(get("flags", ()))))
    except (KeyError, TypeError, ValueError, ParseError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
        raise MalformedEntryError(detail, eid=get("eid")) from exc


def write_jsonl(records: Iterable[dict]) -> Iterator[str]:
    """One line of JSON per record, as the lines are asked for; non-ASCII written as it is."""
    return (_encode(r) + "\n" for r in records)


def read_jsonl(lines: Iterable[str], path: object = None,
               decode: Callable[[dict], object] | None = None,
               error: type[TableTriplesError] = TableTriplesError) -> Iterator[tuple[int, object]]:
    """Each non-blank line's JSON object, or ``decode`` of it, after its line number.

    ``lines`` end at ``\n`` only, as ``read_lines`` gives them: the writer
    leaves U+0085, U+2028 and U+2029 unescaped inside strings, and
    ``str.splitlines`` would break lines there. One trailing ``\n`` is not
    part of a line's JSON. A line that is not a JSON object, or whose escapes
    decode to a lone surrogate (which no UTF-8 output can hold), is an
    ``error`` located at ``PATH: line N:``; so is JSON nested deeper, or with
    an integer longer, than the decoder takes, as json.loads words it. A
    TableTriplesError that ``decode`` raises is located there too. Lines are
    read as they are asked for, so the first bad line is the one reported.
    """
    try:
        for lineno, line in enumerate(lines, 1):
            try:  # one call of json.loads' scanner reads a line of one value and its "\n"
                record, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = 0
            if not end or line[end:] not in ("", "\n"):  # json.loads gives the rest its message
                if not line.strip():
                    continue
                if line[-1] == "\n":  # else json's message for a cut-off string would change
                    line = line[:-1]
                try:
                    record = json.loads(line)
                except (ValueError, RecursionError) as exc:  # too deep, or too many digits
                    raise located(error(f"invalid JSON: {exc}"), path, lineno) from exc
            if type(record) is not dict:
                raise located(error("expected a JSON object"), path, lineno)
            if "\\u" in line and (lone := lone_surrogate(record)):
                raise located(error(lone), path, lineno)
            if decode is not None:
                try:
                    record = decode(record)
                except TableTriplesError as exc:
                    raise located(exc, path, lineno)
            yield lineno, record
    finally:  # a bad line's error refers back to this frame, and must not keep the input open
        del lines


def write_entries_jsonl(entries: Iterable[CorpusEntry]) -> Iterator[str]:
    return write_jsonl(map(entry_to_dict, entries))


def read_entries_jsonl(lines: Iterable[str],
                       path: str | Path | None = None) -> Iterator[CorpusEntry]:
    """Decode entry lines as asked for; MalformedEntryError names the line and eid of a bad one."""
    return (entry for _, entry in read_jsonl(lines, path, entry_from_dict, MalformedEntryError))


def read_entries_file(*paths: str | Path) -> Iterator[CorpusEntry]:
    """The entries of the JSONL files at ``paths``, in order, decoded as asked for.

    Every file is opened now and read by ``read_lines``' rules, each on its
    own: a byte-order mark, a missing last newline or a bad line's number.
    """
    return chain.from_iterable([read_entries_jsonl(read_lines(path), path) for path in paths])
