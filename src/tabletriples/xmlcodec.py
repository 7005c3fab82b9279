"""The XML entry codec: WebNLG-style entry documents, written and read.

The layout follows the WebNLG entry convention: an ``<entries>`` document
of ``<entry category eid size>`` elements, each with a ``modifiedtripleset``
of ``<mtriple>subject | predicate | object</mtriple>`` children and one
``<lex comment lid>`` child per realization. The writer fixes attribute
order and two-space indentation so output is stable enough for golden files.
The reader inverts the writer except where XML normalizes (``\r\n`` and a
lone ``\r`` in triple or realization text read back as ``\n``) and where the
layout has no place for a field: realization text reads back stripped; the
comment stands in for the annotator, so a realization with a comment reads
back as ``external_dataset``'s and one whose comment is an annotator's value
(``mturk``) as that annotator's with none; flags ``("a,b", "")`` read back as
``("a", "b")``. Characters XML 1.0 cannot carry (most C0 controls, lone
surrogates, U+FFFE, U+FFFF) make the writer raise.

Literal pipes inside triple fields would corrupt the ``" | "`` separator, so
they are escaped as the two-character sequence ``\\|`` (and backslash as
``\\\\``) inside mtriple text.

The writer yields its text an entry at a time, and the reader decodes each
entry as it is asked for; ``"".join(write_xml(entries))`` is the whole
document, and ``read_xml([document])`` reads it back. Only ``export-xml``
and ``ingest-webnlg`` import this module, so no other stage compiles it.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from .entries import Annotator, CorpusEntry, Provenance, Realization, Triple, check_entry
from .errors import MalformedEntryError
from .formats import _ANNOTATORS, _PROVENANCES

# the characters outside XML 1.0's Char production (the complement of that
# production compiles several times slower)
_XML_ILLEGAL = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


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
# also imports urllib.request, http.client and email, about 40 modules

def escape(text: str) -> str:
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"{}"'.format(text.replace('"', "&quot;"))


# what write_xml writes for each provenance, and as the comment of a realization without one
_PROVENANCE_ATTRS = {p: f" provenance={quoteattr(p.value)}" for p in Provenance}
_PROVENANCE_ATTRS[Provenance.OTHER] = ""
_ANNOTATOR_COMMENTS = {a: quoteattr(a.value) for a in Annotator}


def write_xml(entries: Iterable[CorpusEntry]) -> Iterator[str]:
    """Render entries as an XML document, yielded one entry's text at a time.

    Raises MalformedEntryError naming the entry when a field holds a
    character XML cannot represent.
    """
    yield '<?xml version="1.0" encoding="UTF-8"?>\n<entries>\n'
    for entry in entries:
        head = (f"  <entry category={quoteattr(entry.category)} eid={quoteattr(entry.eid)}"
                f' size="{len(entry.triples)}"{_PROVENANCE_ATTRS[entry.provenance]}')
        if entry.table_id is not None:
            head += f" table_id={quoteattr(entry.table_id)}"
        if entry.row_index is not None:
            head += f' row="{entry.row_index}"'
        if entry.flags:
            head += f" flags={quoteattr(','.join(entry.flags))}"
        lines = [head + ">", "    <modifiedtripleset>"]
        for s, p, o in entry.triples:
            held = s + p + o  # the fields are pipe-escaped, then XML-escaped, if either applies
            if "\\" in held or "|" in held or "&" in held or "<" in held or ">" in held:
                s, p, o = [escape(escape_field(part)) for part in (s, p, o)]
            lines.append(f"      <mtriple>{s} | {p} | {o}</mtriple>")
        lines.append("    </modifiedtripleset>")
        for i, r in enumerate(entry.realizations, start=1):
            comment = quoteattr(r.comment) if r.comment else _ANNOTATOR_COMMENTS[r.annotator]
            lines.append(f'    <lex comment={comment} lid="Id{i}">{escape(r.text)}</lex>')
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
        declared = _written_int(size)
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
        row_index = _written_int(row) if row is not None else None
    except ValueError:
        raise MalformedEntryError(f"row attribute {row!r} is not an integer", eid=eid)
    flags = tuple(f for f in el.get("flags", "").split(",") if f)
    return check_entry(CorpusEntry(
        triples, tuple(realizations), category, eid, _PROVENANCES[provenance],
        el.get("table_id"), row_index, flags))


def _written_int(text: str) -> int:
    """``int(text)`` if ``text`` is ASCII digits after an optional ``-``, as write_xml writes
    an integer, else ValueError; ``int`` alone also reads spaces, ``+``, ``_`` and non-ASCII
    digits.
    """
    if text.isascii() and text.removeprefix("-").isdigit():
        return int(text)
    raise ValueError(text)
