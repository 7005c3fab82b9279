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

The writers yield their text a line or an entry at a time, and the readers
decode each JSONL line or XML entry as it is asked for, so a stage can stream
a corpus one entry at a time; ``"".join(write_xml(entries))`` is the whole
document, and ``read_xml([document])`` reads it back.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .errors import RECORD_ERRORS, MalformedEntryError, TableTriplesError, located
from .files import read_lines
from .triples import Annotator, CorpusEntry, Provenance, Realization, Triple, check_entry

SCHEMA_VERSION = 1

# enum members by value: decoding a known value is a dict lookup; anything
# else goes through the enum call, which raises the usual error
_PROVENANCES = {p.value: p for p in Provenance}
_ANNOTATORS = {a.value: a for a in Annotator}

# the characters outside XML 1.0's Char production (the complement of that
# production compiles several times slower, and every stage imports this module)
_XML_ILLEGAL = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# what a JSON escape can decode to that UTF-8 cannot encode
_SURROGATE = re.compile("[\ud800-\udfff]")
# json.dumps(r, ensure_ascii=False), without building an encoder for every record
_encode = json.JSONEncoder(ensure_ascii=False).encode


# --- pipe escaping ----------------------------------------------------------

def escape_field(text: str) -> str:
    return text.replace("\\", "\\\\").replace("|", "\\|")


def _split_mtriple(text: str, eid: str | None) -> Triple:
    protected = text.replace("\\\\", "\x00").replace("\\|", "\x01")
    parts = protected.split(" | ")
    if len(parts) != 3:
        raise MalformedEntryError(
            f"mtriple does not have three ' | '-separated fields: {text!r}", eid=eid
        )
    restore = lambda s: s.replace("\x01", "|").replace("\x00", "\\")
    # from a list, not a generator, for the reason given in adapters.webnlg_ingest
    return Triple(*[restore(p) for p in parts])


# --- XML --------------------------------------------------------------------
# escape and quoteattr behave as xml.sax.saxutils's do; importing that module
# also imports urllib.request, http.client and email, about 40 modules that
# every stage would pay for at start-up

def escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"{}"'.format(text.replace('"', "&quot;"))


def write_xml(entries: Iterable[CorpusEntry]) -> Iterator[str]:
    """Render entries as an XML document, yielded one entry's text at a time.

    Raises MalformedEntryError naming the entry when a field holds a
    character XML cannot represent.
    """
    yield '<?xml version="1.0" encoding="UTF-8"?>\n<entries>\n'
    for entry in entries:
        attrs = [
            f"category={quoteattr(entry.category)}",
            f"eid={quoteattr(entry.eid)}",
            f"size={quoteattr(str(len(entry.triples)))}",
        ]
        if entry.provenance is not Provenance.OTHER:
            attrs.append(f"provenance={quoteattr(entry.provenance.value)}")
        if entry.table_id is not None:
            attrs.append(f"table_id={quoteattr(entry.table_id)}")
        if entry.row_index is not None:
            attrs.append(f"row={quoteattr(str(entry.row_index))}")
        if entry.flags:
            attrs.append(f"flags={quoteattr(','.join(entry.flags))}")
        lines = [f'  <entry {" ".join(attrs)}>', "    <modifiedtripleset>"]
        for t in entry.triples:
            body = " | ".join(escape_field(part) for part in t)
            lines.append(f"      <mtriple>{escape(body)}</mtriple>")
        lines.append("    </modifiedtripleset>")
        for i, r in enumerate(entry.realizations, start=1):
            comment = r.comment if r.comment else r.annotator.value
            lines.append(
                f"    <lex comment={quoteattr(comment)} lid={quoteattr(f'Id{i}')}>"
                f"{escape(r.text)}</lex>"
            )
        lines.append("  </entry>\n")
        text = "\n".join(lines)
        bad = _XML_ILLEGAL.search(text)
        if bad:
            raise MalformedEntryError(
                f"character U+{ord(bad.group()):04X} cannot be written as XML", eid=entry.eid
            )
        yield text
    yield "</entries>\n"


def read_xml(chunks: Iterable[str]) -> Iterator[CorpusEntry]:
    """The entries of the XML document whose text is ``chunks``; inverse of write_xml.

    Wrapper elements other than <entry> are tolerated, so documents wrapped
    in e.g. <benchmark><entries> parse as well. The size attribute must match
    the triple count, and each entry is checked by ``check_entry``. The
    chunks are parsed as they are asked for, and each entry is given at its
    own ``</entry>`` and then removed from its parent, so memory holds one
    chunk's entries, not the document's; the first fault met in that order,
    in the XML or in an entry, is the one reported. An entry inside an
    entry, which no writer makes, comes before the entry that holds it.
    """
    ancestors: list = []  # the elements that hold the one being parsed, the root first
    for event, el in _parsed(chunks):
        if event == "start":
            ancestors.append(el)
            continue
        ancestors.pop()
        if el.tag == "entry":
            yield _entry(el)
            if ancestors:
                ancestors[-1].remove(el)


def _parsed(chunks: Iterable[str]) -> Iterator[tuple[str, object]]:
    """Each ``(event, element)`` of the XML text ``chunks``, as it is parsed.

    XML that is not well formed is a MalformedEntryError, raised where it is met.
    """
    from xml.etree import ElementTree  # only ingest-webnlg parses XML

    parser = ElementTree.XMLPullParser(("start", "end"))
    try:
        for chunk in chunks:
            parser.feed(chunk)
            yield from parser.read_events()
        parser.close()
        yield from parser.read_events()
    except ElementTree.ParseError as exc:
        raise MalformedEntryError(f"invalid XML: {exc}") from exc
    finally:  # an error the parser queued and nothing read refers back to this frame,
        del chunks  # and must not keep the input open


def _entry(el) -> CorpusEntry:
    """The entry an ``<entry>`` element holds, checked by ``check_entry``."""
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
        if comment in _ANNOTATORS:
            annotator, comment = _ANNOTATORS[comment], ""
        else:
            annotator = Annotator.EXTERNAL_DATASET
        realizations.append(Realization((lex.text or "").strip(), annotator, comment))

    provenance = el.get("provenance", "other")
    if provenance not in _PROVENANCES:
        raise MalformedEntryError(
            f"provenance attribute {provenance!r} is not a known provenance", eid=eid)
    row = el.get("row")
    try:
        row_index = int(row) if row is not None else None
    except ValueError:
        raise MalformedEntryError(f"row attribute {row!r} is not an integer", eid=eid)
    flags = tuple(f for f in el.get("flags", "").split(",") if f)
    return check_entry(CorpusEntry(
        triples, tuple(realizations), category, eid, _PROVENANCES[provenance],
        el.get("table_id"), row_index, flags))


# --- linearization ----------------------------------------------------------

def linearize(triples: tuple[Triple, ...]) -> str:
    """``<H> s <R> p <T> o`` per triple, single-space separated.

    The title predicate is rendered lowercase ``[title]`` in linearized
    strings (the subject token ``[TABLECONTEXT]`` keeps its casing).
    """
    if not triples:
        raise ValueError("cannot linearize an empty tripleset")
    parts = []
    for subject, predicate, obj in triples:
        if predicate == "[TITLE]":
            predicate = "[title]"
        parts.append(f"<H> {subject} <R> {predicate} <T> {obj}")
    return " ".join(parts)


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
                annotator = Annotator(r.get("annotator", "internal"))
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
            provenance = Provenance(get("provenance", "other"))
        return check_entry(CorpusEntry(
            triples, _decode_realizations(record), record["category"], record["eid"],
            provenance, get("table_id"), get("row_index"), tuple(get("flags", ()))))
    except (KeyError, TypeError, ValueError) as exc:
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
    ``error`` located at ``PATH: line N:``, as is any record error ``decode``
    raises. Lines are read as they are asked for, so the first bad line is the
    one reported.
    """
    try:
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            if line[-1] == "\n":  # else json's message for a cut-off string would change
                line = line[:-1]
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise located(error(f"invalid JSON: {exc}"), path, lineno) from exc
            if type(record) is not dict:
                raise located(error("expected a JSON object"), path, lineno)
            # a file read as UTF-8 holds no surrogate; only a \u escape makes one
            if "\\u" in line:
                lone = _SURROGATE.search(_encode(record))
                if lone:
                    raise located(error(f"character U+{ord(lone.group()):04X} (a lone "
                                        "surrogate) cannot be written as UTF-8"), path, lineno)
            if decode is not None:
                try:
                    record = decode(record)
                except RECORD_ERRORS as exc:
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


def read_entries_file(path: str | Path) -> Iterator[CorpusEntry]:
    """The entries of the JSONL file at ``path``, which is opened now, decoded as asked for."""
    return read_entries_jsonl(read_lines(path), path)
