import io
import json
import random
from xml.sax import saxutils

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabletriples import files
from tabletriples.adapters import webnlg_ingest
from tabletriples.errors import MalformedEntryError, ParseError, TableTriplesError
from tabletriples.files import read_lines
from tabletriples.formats import (
    entry_from_dict,
    entry_to_dict,
    linearize,
    read_entries_file,
    read_entries_jsonl,
    read_jsonl,
    write_entries_jsonl,
    write_jsonl,
)
from tabletriples.triples import (
    Annotator,
    CorpusEntry,
    Provenance,
    Realization,
    Triple,
)
from tabletriples.xmlcodec import (
    _split_mtriple,
    escape,
    escape_field,
    quoteattr,
    read_xml,
    write_xml,
)


def xml_of(entries) -> str:
    """The whole document ``write_xml`` yields."""
    return "".join(write_xml(entries))


def jsonl_of(entries) -> str:
    """The whole text ``write_entries_jsonl`` yields."""
    return "".join(write_entries_jsonl(entries))


def xml_entries_of(doc: str) -> list[CorpusEntry]:
    """``read_xml`` over the whole document ``doc``, all of it read."""
    return list(read_xml([doc]))


def entries_of(text: str) -> list[CorpusEntry]:
    """``read_entries_jsonl`` over the lines of ``text``, all of them read."""
    return list(read_entries_jsonl(io.StringIO(text)))


def apertura_entry() -> CorpusEntry:
    return CorpusEntry(
        triples=(
            Triple("Apertura 2006", "JORNADA_OR_OTHER", "Semifinals Ida"),
            Triple("Semifinals Ida", "AWAY_TEAM", "América"),
            Triple("Semifinals Ida", "HOME_TEAM", "Chivas"),
        ),
        realizations=(
            Realization(
                "Chivas and América will compete in the semifinals of the "
                "Apertura 2006 tournament.",
                Annotator.EXTERNAL_DATASET,
                comment="WikiTableQuestions",
            ),
        ),
        category="MISC",
        eid="Id5",
    )


def darts_entry() -> CorpusEntry:
    return CorpusEntry(
        triples=(
            Triple("Terry Jenkins", "ROUND", "1st Round"),
            Triple("Terry Jenkins", "YEAR", "2014"),
            Triple("[TABLECONTEXT]", "[TITLE]", "PDC World Darts Championship"),
            Triple("1st Round", "OPPONENT", "Per Laursen"),
            Triple("1st Round", "RESULT", "Lost"),
            Triple("[TABLECONTEXT]", "PLAYER", "Terry Jenkins"),
        ),
        realizations=(
            Realization(
                "Terry Jenkins lost the game with Per Laursen in the 1st Round "
                "of 2014 PDC World Darts Championship",
                Annotator.EXTERNAL_DATASET,
                comment="WikiTableQuestions",
            ),
        ),
        category="MISC",
        eid="Id76",
    )


class TestXmlRoundTrip:
    def test_reference_entries_byte_roundtrip(self):
        entries = [apertura_entry(), darts_entry()]
        doc = xml_of(entries)
        assert xml_entries_of(doc) == entries
        assert xml_of(xml_entries_of(doc)) == doc

    def test_reference_document_content(self):
        doc = xml_of([apertura_entry()])
        assert '<entry category="MISC" eid="Id5" size="3">' in doc
        assert "<mtriple>Apertura 2006 | JORNADA_OR_OTHER | Semifinals Ida</mtriple>" in doc
        assert '<lex comment="WikiTableQuestions" lid="Id1">' in doc

    def test_verbatim_hand_indented_document(self):
        # the same entry as typically hand-formatted: multiline lex, odd indentation
        doc = """
        <entries>
        <entry category="MISC" eid="Id5" size="3">
          <modifiedtripleset>
            <mtriple>Apertura 2006 | JORNADA_OR_OTHER | Semifinals Ida</mtriple>
            <mtriple>Semifinals Ida | AWAY_TEAM | América</mtriple>
            <mtriple>Semifinals Ida | HOME_TEAM | Chivas</mtriple>
          </modifiedtripleset>
          <lex comment="WikiTableQuestions" lid="Id1">
              Chivas and América will compete in the semifinals of the Apertura 2006 tournament.
          </lex>
        </entry>
        </entries>
        """
        (entry,) = read_xml(doc)
        assert entry == apertura_entry()

    @pytest.mark.parametrize("document", ["<entries>{}</entries>", "{}"])
    def test_an_entry_inside_an_entry_is_given_before_it(self, document):
        def entry(eid: str, inside: str = "") -> str:
            return (f'<entry category="C" eid="{eid}" size="1"><modifiedtripleset>'
                    f"<mtriple>s | p | o</mtriple></modifiedtripleset>"
                    f'<lex comment="c" lid="Id1">s p o.</lex>{inside}</entry>')

        doc = document.format(entry("Id1", entry("Id2")))
        assert [e.eid for e in read_xml([doc])] == ["Id2", "Id1"]

    def test_pipes_and_backslashes(self):
        entry = CorpusEntry(
            triples=(Triple("a | b", "p|q", "c\\d|"),),
            realizations=(Realization("text.", Annotator.INTERNAL),),
            category="X",
            eid="Id1",
        )
        doc = xml_of([entry])
        assert xml_entries_of(doc) == [entry]

    def test_xml_specials_escaped(self):
        entry = CorpusEntry(
            triples=(Triple("a & b", "<p>", '"quoted"'),),
            realizations=(Realization("1 < 2 & 3 > 0.", Annotator.MTURK),),
            category="A&B",
            eid="Id<1>",
        )
        doc = xml_of([entry])
        assert xml_entries_of(doc) == [entry]

    def test_empty_entry_list(self):
        doc = xml_of([])
        assert xml_entries_of(doc) == []

    def test_size_mismatch_rejected(self):
        doc = xml_of([apertura_entry()]).replace('size="3"', 'size="4"')
        with pytest.raises(MalformedEntryError) as err:
            xml_entries_of(doc)
        assert err.value.eid == "Id5"

    def test_missing_eid_rejected(self):
        doc = '<entries><entry category="C" size="0"><modifiedtripleset/></entry></entries>'
        with pytest.raises(MalformedEntryError):
            xml_entries_of(doc)

    def test_bad_mtriple_rejected(self):
        doc = (
            '<entries><entry category="C" eid="Id1" size="1">'
            "<modifiedtripleset><mtriple>only | two</mtriple></modifiedtripleset>"
            "<lex>x.</lex></entry></entries>"
        )
        with pytest.raises(MalformedEntryError):
            xml_entries_of(doc)

    def test_invalid_xml_rejected(self):
        with pytest.raises(MalformedEntryError):
            xml_entries_of("<entries><entry></entries>")

    @pytest.mark.parametrize("attr, detail", [
        ('provenance="bogus"', "provenance attribute 'bogus' is not a known provenance"),
        ('row="x"', "row attribute 'x' is not an integer"),
    ])
    def test_bad_provenance_and_row_attributes_name_the_entry(self, attr, detail):
        doc = xml_of([apertura_entry()]).replace('size="3"', f'size="3" {attr}')
        with pytest.raises(MalformedEntryError) as err:
            xml_entries_of(doc)
        assert err.value.eid == "Id5" and str(err.value) == f"entry Id5: {detail}"

    @pytest.mark.parametrize("attr, value", [
        ("size", "0_3"), ("size", " 3"), ("size", "3 "), ("size", "+3"), ("size", "\uff13"),
        ("size", "3.0"), ("size", ""), ("size", "1" * 5_000), ("row", "1_000"), ("row", "+1"),
        ("row", " +\uff11 "), ("row", "\u0661"), ("row", "1e3"),
    ])
    def test_an_integer_attribute_is_read_only_as_the_writer_writes_it(self, attr, value):
        entry = apertura_entry()._replace(row_index=3)
        doc = xml_of([entry]).replace(f'{attr}="3"', f'{attr}="{value}"')
        with pytest.raises(MalformedEntryError) as err:
            xml_entries_of(doc)
        assert str(err.value) == f"entry Id5: {attr} attribute {value!r} is not an integer"

    @pytest.mark.parametrize("row", [0, -1, 10**30])
    def test_a_written_row_reads_back(self, row):
        entry = apertura_entry()._replace(row_index=row)
        assert xml_entries_of(xml_of([entry])) == [entry]

    def test_annotator_tag_roundtrips_via_comment(self):
        entry = CorpusEntry(
            triples=(Triple("s", "p", "o"),),
            realizations=(Realization("fine text.", Annotator.AUTO_DECLARATIVE),),
            category="C",
            eid="Id1",
        )
        (back,) = read_xml(xml_of([entry]))
        assert back.realizations[0].annotator is Annotator.AUTO_DECLARATIVE
        assert back == entry


class TestXmlRoundTripLosses:
    """What the XML layout cannot hold, as the formats docstring and README state it."""

    def realizations_back(self, *realizations) -> tuple:
        entry = apertura_entry()._replace(realizations=realizations)
        (back,) = xml_entries_of(xml_of([entry]))
        return back.realizations

    def test_a_realization_with_a_comment_reads_back_as_external_dataset(self):
        back = self.realizations_back(Realization("x.", Annotator.MTURK, "note"))
        assert back == (Realization("x.", Annotator.EXTERNAL_DATASET, "note"),)

    def test_a_comment_that_names_an_annotator_reads_back_as_that_annotator(self):
        back = self.realizations_back(Realization("x.", Annotator.INTERNAL, "mturk"))
        assert back == (Realization("x.", Annotator.MTURK, ""),)

    def test_flags_are_split_at_commas_and_empty_ones_dropped(self):
        entry = apertura_entry()._replace(flags=("a,b", ""))
        (back,) = xml_entries_of(xml_of([entry]))
        assert back.flags == ("a", "b")


def test_escape_unescape_inverse():
    rng = random.Random(3)
    alphabet = "ab |\\x"
    for _ in range(500):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        parts = (s, s[::-1], s + "|")
        assert _split_mtriple(" | ".join(map(escape_field, parts)), None) == parts


class TestLinearize:
    def test_earthquake_pair(self):
        triples = (
            Triple("Peru Earthquake", "scale of disaster", "250k homeless"),
            Triple("Peru Earthquake", "year", "2007"),
        )
        assert linearize(triples) == (
            "<H> Peru Earthquake <R> scale of disaster <T> 250k homeless "
            "<H> Peru Earthquake <R> year <T> 2007"
        )

    def test_single_triple(self):
        assert linearize((Triple("s", "p", "o"),)) == "<H> s <R> p <T> o"

    def test_title_predicate_lowercased(self):
        triples = (
            Triple("[TABLECONTEXT]", "game", "3"),
            Triple("3", "attendance", "10 637"),
            Triple("[TABLECONTEXT]", "[TITLE]", "2006 Minnesota Swarm season"),
        )
        assert linearize(triples) == (
            "<H> [TABLECONTEXT] <R> game <T> 3 "
            "<H> 3 <R> attendance <T> 10 637 "
            "<H> [TABLECONTEXT] <R> [title] <T> 2006 Minnesota Swarm season"
        )

    def test_marker_count_law(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randrange(1, 9)
            text = linearize(tuple(Triple(f"s{i}", f"p{i}", f"o{i}") for i in range(n)))
            assert text.count("<H>") == n
            assert text.count("<R>") == n
            assert text.count("<T>") == n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linearize(())

    # every line break str.splitlines knows
    BREAKS = ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

    def test_the_breaks_are_every_one_splitlines_knows(self):
        known = {chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2}
        assert known == set(self.BREAKS) - {"\r\n"}

    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    @pytest.mark.parametrize("at", range(3))
    def test_a_line_break_in_a_field_becomes_a_space(self, brk, at):
        fields = ["s", "p", "o"]
        fields[at] = f"x{brk}y"
        text = linearize((Triple(*fields), Triple("a", "b", "c")))
        assert text.splitlines() == [text]
        assert text == "<H> {} <R> {} <T> {} <H> a <R> b <T> c".format(
            *(f if i != at else "x y" for i, f in enumerate(fields)))

    def test_other_unprintable_characters_are_kept(self):
        assert linearize((Triple("s\t", "p\x01", "o\xa0"),)) == "<H> s\t <R> p\x01 <T> o\xa0"


class TestJsonlLines:
    def test_lines_end_at_newline_only_and_blank_lines_are_skipped(self, tmp_path):
        records = [{"a": "x\u2028y\x85z"}, {"b": "é"}]
        text = "".join(write_jsonl(records[:1])) + "\n  \n" + "".join(write_jsonl(records[1:]))
        assert text == '{"a": "x\u2028y\x85z"}\n\n  \n{"b": "é"}\n'
        path = tmp_path / "r.jsonl"
        path.write_text(text, encoding="utf-8")
        assert list(read_jsonl(read_lines(path))) == [(1, records[0]), (4, records[1])]

    def test_decode_runs_per_record_and_its_errors_are_located(self):
        text = '{"k": 1}\n{"j": 2}\n'
        lines = read_jsonl(io.StringIO(text), "p", lambda r: files.field(r, "k"))
        assert next(lines) == (1, 1)
        with pytest.raises(TableTriplesError, match="^p: line 2: missing field 'k'$"):
            next(lines)

    def test_a_decode_error_keeps_its_type(self):
        def decode(record):
            raise ParseError("bad record")

        with pytest.raises(ParseError, match="^line 1: bad record$"):
            list(read_jsonl(io.StringIO("{}\n"), None, decode))

    def test_a_decode_bug_is_not_an_input_error(self):
        with pytest.raises(KeyError) as raised:
            list(read_jsonl(io.StringIO("{}\n"), "p", lambda r: r["k"]))
        assert raised.value.args == ("k",)

    def test_lines_are_read_as_they_are_asked_for(self):
        lines = read_jsonl(io.StringIO('{"a": 1}\n[1]\n{"a": \n'))
        assert next(lines) == (1, {"a": 1})
        with pytest.raises(TableTriplesError, match="^line 2: expected a JSON object$"):
            next(lines)

    def test_the_error_type_is_the_callers(self):
        with pytest.raises(MalformedEntryError, match="^p: line 1: invalid JSON: "):
            list(read_jsonl(io.StringIO("{,}\n"), "p", error=MalformedEntryError))

    @pytest.mark.parametrize("escaped", ["\\ud800", "\\udfff x", "\\ude00\\ud83d"])
    def test_an_escaped_lone_surrogate_is_located(self, escaped):
        code = escaped[2:6].upper()
        with pytest.raises(TableTriplesError, match=f"^p: line 2: character U\\+{code} "):
            list(read_jsonl(io.StringIO(f'{{"k": "\\\\u"}}\n{{"{escaped}": 1}}\n'), "p"))

    def test_an_escaped_surrogate_pair_and_an_escaped_backslash_are_text(self):
        text = '{"k": "\\ud83d\\ude00 \\\\ud800"}\n'
        assert list(read_jsonl(io.StringIO(text))) == [(1, {"k": "\U0001f600 \\ud800"})]


def json_loads_reading(line: str) -> str:
    """What ``read_jsonl`` gave for ``line`` when it ran json.loads on every line."""
    text = line[:-1] if line.endswith("\n") else line
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"line 1: invalid JSON: {exc}"
    return repr([(1, record)]) if type(record) is dict else "line 1: expected a JSON object"


@pytest.mark.parametrize("line", [
    '{"a": 1}', '{"a": 1}\n', ' {"a": 1}\n', '{"a": 1} \n', '\t{"a": 1}\t', '{"a": 1}\r\n',
    '\ufeff{"a": 1}\n', "{} x\n", "{}{}\n", "{} {}", '{"a": "cut\n', '{"a": "cut',
    '{"a": \n', "{", "}", "x", '{"a": NaN, "b": -Infinity}\n', "NaN\n", "Infinity",
    "[1]\n", '"s"\n', "3", "null", "[" * 100_000 + "]" * 100_000,
    '{"eid": ' + "1" * 5_000 + "}\n", '{"k": "\\u00e9 \\ud83d\\ude00"}\n',
], ids=lambda line: repr(line if len(line) < 40 else line[:12] + "..."))
def test_a_line_reads_as_json_loads_reads_it(line):
    try:
        got = repr(list(read_jsonl([line])))
    except TableTriplesError as exc:
        got = str(exc)
    assert got == json_loads_reading(line)


@pytest.mark.parametrize("line", ['{"k": "\\ud800"}\n', ' {"k": "\\udfff"} \n'])
def test_an_escaped_lone_surrogate_is_caught_on_either_path(line):
    with pytest.raises(TableTriplesError, match="^line 1: character U\\+D[8F]"):
        list(read_jsonl([line]))


class TestJsonl:
    def test_roundtrip_with_metadata(self):
        entry = CorpusEntry(
            triples=(Triple("s", "p", "o"),),
            realizations=(
                Realization("first text.", Annotator.INTERNAL),
                Realization("second text.", Annotator.MTURK, comment="batch-2"),
            ),
            category="MISC",
            eid="Id3",
            provenance=Provenance.WIKISQL,
            table_id="t9",
            row_index=2,
            flags=("empty_cell",),
        )
        text = jsonl_of([entry])
        assert entries_of(text) == [entry]

    def test_dict_roundtrip_minimal(self):
        entry = CorpusEntry(
            triples=(Triple("s", "p", "o"),),
            realizations=(Realization("x."),),
            category="C",
            eid="Id1",
        )
        record = entry_to_dict(entry)
        assert record["schema_version"] == 1
        assert "table_id" not in record
        assert entry_from_dict(record) == entry

    def test_unknown_schema_rejected(self):
        record = entry_to_dict(
            CorpusEntry(
                triples=(Triple("s", "p", "o"),),
                realizations=(Realization("x."),),
                category="C",
                eid="Id1",
            )
        )
        record["schema_version"] = 99
        with pytest.raises(MalformedEntryError):
            entry_from_dict(record)


def random_entry(rng: random.Random, eid: str) -> CorpusEntry:
    pool = "abc DEF123 &<>\"'|\\ éüñ 中文 ,.!?"
    words = pool.split(" ")

    def field() -> str:
        return " ".join(rng.choice(words) for _ in range(rng.randrange(1, 4)))

    triples = tuple(
        Triple(field(), field(), field()) for _ in range(rng.randrange(1, 8))
    )
    annotator = rng.choice(list(Annotator))
    comment = field() if annotator is Annotator.EXTERNAL_DATASET and rng.random() < 0.5 else ""
    realizations = tuple(
        Realization(text=field() + " end.", annotator=annotator, comment=comment)
        for _ in range(rng.randrange(1, 3))
    )
    return CorpusEntry(
        triples=triples,
        realizations=realizations,
        category=rng.choice(["MISC", "Sports", "A&B"]),
        eid=eid,
        provenance=rng.choice(list(Provenance)),
        table_id=rng.choice([None, "t1", "t|2"]),
        row_index=rng.choice([None, 0, 12]),
        flags=rng.choice([(), ("empty_cell",)]),
    )


def test_xml_fuzz_roundtrip():
    rng = random.Random(314159)
    entries = [random_entry(rng, f"Id{i}") for i in range(300)]
    doc = xml_of(entries)
    back = xml_entries_of(doc)
    assert back == entries
    assert xml_of(back) == doc


def test_jsonl_fuzz_roundtrip():
    rng = random.Random(271828)
    entries = [random_entry(rng, f"Id{i}") for i in range(300)]
    text = jsonl_of(entries)
    assert entries_of(text) == entries


# Text XML can carry and the reader gives back unchanged: no C0 controls but
# tab and newline, no carriage return, no surrogates, no U+FFFE/U+FFFF.
xml_text = st.text(
    st.characters(
        exclude_categories=("Cs",),
        exclude_characters="".join(map(chr, range(32))).replace("\t", "").replace("\n", "")
        + "\r\ufffe\uffff",
    ),
    max_size=12,
)


# The entry generators draw valid entries only: at least one triple, at least
# one realization and no blank text. The decoders reject every other entry.
@st.composite
def xml_entries(draw, xml_text=xml_text) -> CorpusEntry:
    realizations = []
    for _ in range(draw(st.integers(1, 3))):
        text = draw(xml_text.map(str.strip).filter(bool))  # the reader strips <lex> text
        if draw(st.booleans()):
            realizations.append(Realization(text, draw(st.sampled_from(list(Annotator)))))
        else:
            # a comment that is not an annotator tag reads back as external_dataset
            comment = draw(xml_text.filter(lambda c: c and c not in {a.value for a in Annotator}))
            realizations.append(Realization(text, Annotator.EXTERNAL_DATASET, comment))
    flag = st.text("ab_|&<>\"' ", min_size=1, max_size=5)  # flags are comma-joined
    triple = st.builds(Triple, xml_text, xml_text, xml_text)
    return CorpusEntry(
        triples=tuple(draw(st.lists(triple, min_size=1, max_size=4))),
        realizations=tuple(realizations),
        category=draw(xml_text),
        eid=draw(xml_text),
        provenance=draw(st.sampled_from(list(Provenance))),
        table_id=draw(st.none() | xml_text),
        row_index=draw(st.none() | st.integers(-5, 10**6)),
        flags=tuple(draw(st.lists(flag, max_size=2))),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(xml_entries(), max_size=3))
def test_xml_roundtrip_property(entries):
    doc = xml_of(entries)
    assert xml_entries_of(doc) == entries
    assert xml_of(xml_entries_of(doc)) == doc


@settings(max_examples=100, deadline=None)
@given(st.lists(xml_entries(), max_size=3))
def test_webnlg_ingest_reads_back_what_write_xml_wrote(entries):
    def kept(e: CorpusEntry) -> tuple:
        return e.eid, e.category, e.triples, [r.text for r in e.realizations]

    assert [kept(e) for e in webnlg_ingest(xml_of(entries))] == [kept(e) for e in entries]


def reference_write_xml(entries) -> str:
    """The document write_xml wrote before its fast paths: each field escaped in full."""
    def pipes(text: str) -> str:
        return text.replace("\\", "\\\\").replace("|", "\\|")

    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<entries>\n']
    for entry in entries:
        attrs = [f"category={saxutils.quoteattr(entry.category)}",
                 f"eid={saxutils.quoteattr(entry.eid)}",
                 f"size={saxutils.quoteattr(str(len(entry.triples)))}"]
        if entry.provenance is not Provenance.OTHER:
            attrs.append(f"provenance={saxutils.quoteattr(entry.provenance.value)}")
        if entry.table_id is not None:
            attrs.append(f"table_id={saxutils.quoteattr(entry.table_id)}")
        if entry.row_index is not None:
            attrs.append(f"row={saxutils.quoteattr(str(entry.row_index))}")
        if entry.flags:
            attrs.append(f"flags={saxutils.quoteattr(','.join(entry.flags))}")
        lines = [f'  <entry {" ".join(attrs)}>', "    <modifiedtripleset>"]
        for t in entry.triples:
            body = " | ".join(pipes(part) for part in t)
            lines.append(f"      <mtriple>{saxutils.escape(body)}</mtriple>")
        lines.append("    </modifiedtripleset>")
        for i, r in enumerate(entry.realizations, start=1):
            comment = r.comment if r.comment else r.annotator.value
            lines.append(f"    <lex comment={saxutils.quoteattr(comment)} "
                         f"lid={saxutils.quoteattr(f'Id{i}')}>{saxutils.escape(r.text)}</lex>")
        lines.append("  </entry>\n")
        out.append("\n".join(lines))
    out.append("</entries>\n")
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(xml_entries(st.text("\\|&<>\"'\t\n\r a", max_size=8)), max_size=3))
def test_write_xml_writes_what_the_reference_writer_wrote(entries):
    assert xml_of(entries) == reference_write_xml(entries)


# the writer's own escape and quoteattr stand in for xml.sax.saxutils's, which
# is kept out of start-up; here that module is the reference
@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from("&<>\"'\n\r\t;#a ") | st.characters()))
def test_escape_and_quoteattr_match_the_standard_library(text):
    assert escape(text) == saxutils.escape(text)
    assert quoteattr(text) == saxutils.quoteattr(text)


class TestXmlIllegalCharacters:
    @pytest.mark.parametrize("field", ["subject", "text", "category"])
    def test_control_character_rejected_with_eid(self, field):
        text = {"subject": "s", "text": "words.", "category": "MISC"}
        text[field] = f"bad\x01{text[field]}"
        entry = CorpusEntry(
            triples=(Triple(text["subject"], "p", "o"),),
            realizations=(Realization(text["text"]),),
            category=text["category"],
            eid="Id9",
        )
        with pytest.raises(MalformedEntryError, match="U\\+0001") as err:
            xml_of([apertura_entry(), entry])
        assert err.value.eid == "Id9"

    def test_surrogate_rejected(self):
        entry = apertura_entry()
        bad = CorpusEntry(entry.triples, (Realization("x\ud800"),), "MISC", "Id2")
        with pytest.raises(MalformedEntryError, match="U\\+D800"):
            xml_of([bad])


class TestEntryFileErrors:
    def _lines(self, *records) -> str:
        good = entry_to_dict(apertura_entry())
        return "".join(json.dumps({**good, **r}) + "\n" for r in records)

    def test_missing_field_names_line_and_eid(self):
        good = entry_to_dict(apertura_entry())
        del good["triples"]
        text = self._lines({}, {"eid": "Id2"}) + "\n" + json.dumps({**good, "eid": "Id3"}) + "\n"
        with pytest.raises(MalformedEntryError) as err:
            entries_of(text)
        assert str(err.value) == "line 4: entry Id3: missing field 'triples'"
        assert err.value.eid == "Id3"

    @pytest.mark.parametrize(
        "bad",
        [{"triples": "abc"}, {"triples": [["s", "p"]]}, {"realizations": 5},
         {"realizations": ["text"]}, {"provenance": "nowhere"}, {"schema_version": 9}],
    )
    def test_wrong_typed_field_names_line_and_eid(self, bad):
        with pytest.raises(MalformedEntryError, match="^line 2: entry Id7: "):
            entries_of(self._lines({}, {**bad, "eid": "Id7"}))

    def test_bad_json_and_non_object_lines(self):
        with pytest.raises(MalformedEntryError, match="^line 2: "):
            entries_of(self._lines({}) + '{"eid": \n')
        with pytest.raises(MalformedEntryError, match="^line 1: "):
            entries_of("[1, 2]\n")

    def test_file_reader_adds_the_path(self, tmp_path):
        path = tmp_path / "entries.jsonl"
        path.write_text(self._lines({}, {"realizations": None, "eid": "Id2"}), encoding="utf-8")
        with pytest.raises(MalformedEntryError) as err:
            list(read_entries_file(path))
        assert str(err.value).startswith(f"{path}: line 2: entry Id2: ")
        assert err.value.eid == "Id2"

    def test_a_bad_line_releases_its_input_while_its_error_is_held(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(files, "open", recording_open, raising=False)
        path = tmp_path / "entries.jsonl"
        path.write_text(self._lines({}) + "not json\n", encoding="utf-8")
        with pytest.raises(MalformedEntryError) as err:
            list(read_entries_file(path))
        assert str(err.value).startswith(f"{path}: line 2: invalid JSON: ")
        assert opened and all(fh.closed for fh in opened)

    @pytest.mark.parametrize(
        "bad, detail",
        [({"eid": 5}, "field 'eid' must be a string, got 5"),
         ({"category": 5}, "entry Id7: field 'category' must be a string, got 5"),
         ({"table_id": 3}, "entry Id7: field 'table_id' must be a string or null, got 3"),
         ({"row_index": "2"}, "entry Id7: field 'row_index' must be an integer or null, got '2'"),
         ({"row_index": True}, "entry Id7: field 'row_index' must be an integer or null, got True"),
         ({"flags": "empty_cell"},
          "entry Id7: field 'flags' must be a list of strings, got 'empty_cell'"),
         ({"flags": [1]}, "entry Id7: field 'flags' must be a list of strings, got [1]")],
    )
    def test_wrong_typed_scalar_field_is_rejected(self, bad, detail):
        record = {**entry_to_dict(apertura_entry()), "eid": "Id7", **bad}
        with pytest.raises(MalformedEntryError) as err:
            entry_from_dict(record)
        assert str(err.value) == detail
        with pytest.raises(MalformedEntryError) as err:
            entries_of(json.dumps(record) + "\n")
        assert str(err.value) == f"line 1: {detail}"

    @pytest.mark.parametrize(
        "bad",
        [{"triples": [[1, 2, 3]]}, {"triples": [["s", "p", None]]}, {"triples": ["spo"]},
         {"triples": [["s", "p", "o", "x"]]}, {"triples": {"s": "p"}}],
    )
    def test_non_string_triple_is_rejected(self, bad):
        record = {**entry_to_dict(apertura_entry()), "eid": "Id7", **bad}
        detail = ("entry Id7: field 'triples' must be a list of [subject, predicate, object] "
                  f"string lists, got {bad['triples']!r}")
        with pytest.raises(MalformedEntryError) as err:
            entry_from_dict(record)
        assert str(err.value) == detail
        with pytest.raises(MalformedEntryError) as err:
            entries_of(json.dumps(record) + "\n")
        assert str(err.value) == f"line 1: {detail}"

    @pytest.mark.parametrize(
        "bad",
        [[{"text": 5}], [{"text": None}], [{"text": "x.", "comment": 3}], ["x."], [["x."]]],
    )
    def test_non_string_realization_is_rejected(self, bad):
        record = {**entry_to_dict(apertura_entry()), "eid": "Id7", "realizations": bad}
        detail = ("entry Id7: field 'realizations' must be a list of objects whose 'text' "
                  f"and 'comment' are strings, got {bad!r}")
        with pytest.raises(MalformedEntryError) as err:
            entries_of(json.dumps(record) + "\n")
        assert str(err.value) == f"line 1: {detail}"

    def test_realization_without_text_is_a_missing_field(self):
        record = {**entry_to_dict(apertura_entry()), "eid": "Id7", "realizations": [{}]}
        with pytest.raises(MalformedEntryError) as err:
            entries_of(json.dumps(record) + "\n")
        assert str(err.value) == "line 1: entry Id7: missing field 'text'"

    def test_entry_from_dict_names_a_missing_field(self):
        record = {**entry_to_dict(apertura_entry()), "eid": "Id7"}
        del record["category"]
        with pytest.raises(MalformedEntryError) as err:
            entry_from_dict(record)
        assert str(err.value) == "entry Id7: missing field 'category'"
        assert err.value.eid == "Id7"

    def test_null_table_coordinates_are_accepted(self):
        record = {**entry_to_dict(apertura_entry()), "table_id": None, "row_index": None}
        assert entry_from_dict(record) == apertura_entry()


# --- JSONL decoder properties -------------------------------------------------

# any text UTF-8 can encode (no lone surrogates, which the reader rejects), with
# the characters the entry format has to take care of made likely: the XML pipe
# escapes, non-ASCII, and the line separators str.splitlines knows
jsonl_text = st.text(st.characters(exclude_categories=("Cs",))
                     | st.sampled_from("|\\é中\x85\u2028\u2029\r\n"), max_size=10)


@st.composite
def jsonl_entries(draw) -> CorpusEntry:
    realizations = draw(st.lists(st.builds(
        Realization, jsonl_text.filter(str.strip), st.sampled_from(list(Annotator)),
        st.just("") | jsonl_text,
    ), min_size=1, max_size=3))
    triple = st.builds(Triple, jsonl_text, jsonl_text, jsonl_text)
    return CorpusEntry(
        triples=tuple(draw(st.lists(triple, min_size=1, max_size=4))),
        realizations=tuple(realizations),
        category=draw(jsonl_text),
        eid=draw(jsonl_text),
        provenance=draw(st.sampled_from(list(Provenance))),
        table_id=draw(st.none() | jsonl_text),
        row_index=draw(st.none() | st.integers(-5, 10**12)),
        flags=tuple(draw(st.lists(jsonl_text, max_size=2))),
    )


def typed(value):
    """``value`` with the type of every part made part of it: a NamedTuple is
    equal to a plain tuple and an enum member to its string, but not here."""
    if isinstance(value, tuple):
        return type(value), tuple(typed(v) for v in value)
    return type(value), value


@settings(max_examples=100, deadline=None)
@given(st.lists(jsonl_entries(), max_size=3))
def test_jsonl_roundtrip_property(entries):
    back = entries_of(jsonl_of(entries))
    assert typed(back) == typed(entries)


def test_every_provenance_and_annotator_roundtrips():
    entries = [
        apertura_entry()._replace(
            triples=(Triple("s|1", "p\\", "ö"),), provenance=provenance,
            realizations=(Realization("x.", annotator), Realization("y.", annotator, "c")),
            table_id="t", row_index=0, flags=("empty_cell",))
        for provenance in Provenance for annotator in Annotator
    ]
    back = entries_of(jsonl_of(entries))
    assert typed(back) == typed(entries)


def test_line_separators_inside_strings_roundtrip():
    entry = apertura_entry()._replace(eid="a\u2028b", category="c\x85d", flags=("e\u2029f",))
    text = jsonl_of([entry, darts_entry()])
    assert "\u2028" in text and text.count("\n") == 2
    assert entries_of(text) == [entry, darts_entry()]


# each checked entry field with a value of each JSON type it may not have, and
# the error the decoder gives for it, in the field checking order
WRONG_TYPED_FIELDS = [
    ("eid", None, "field 'eid' must be a string, got None"),
    ("eid", True, "field 'eid' must be a string, got True"),
    ("eid", 1, "field 'eid' must be a string, got 1"),
    ("eid", 1.5, "field 'eid' must be a string, got 1.5"),
    ("eid", [1], "field 'eid' must be a string, got [1]"),
    ("eid", {}, "field 'eid' must be a string, got {}"),
    ("category", None, "entry Id7: field 'category' must be a string, got None"),
    ("category", True, "entry Id7: field 'category' must be a string, got True"),
    ("category", 1, "entry Id7: field 'category' must be a string, got 1"),
    ("category", 1.5, "entry Id7: field 'category' must be a string, got 1.5"),
    ("category", [1], "entry Id7: field 'category' must be a string, got [1]"),
    ("category", {}, "entry Id7: field 'category' must be a string, got {}"),
    ("table_id", True, "entry Id7: field 'table_id' must be a string or null, got True"),
    ("table_id", 1, "entry Id7: field 'table_id' must be a string or null, got 1"),
    ("table_id", 1.5, "entry Id7: field 'table_id' must be a string or null, got 1.5"),
    ("table_id", [1], "entry Id7: field 'table_id' must be a string or null, got [1]"),
    ("table_id", {}, "entry Id7: field 'table_id' must be a string or null, got {}"),
    ("row_index", True, "entry Id7: field 'row_index' must be an integer or null, got True"),
    ("row_index", 1.5, "entry Id7: field 'row_index' must be an integer or null, got 1.5"),
    ("row_index", "2", "entry Id7: field 'row_index' must be an integer or null, got '2'"),
    ("row_index", [1], "entry Id7: field 'row_index' must be an integer or null, got [1]"),
    ("row_index", {}, "entry Id7: field 'row_index' must be an integer or null, got {}"),
    ("flags", None, "entry Id7: field 'flags' must be a list of strings, got None"),
    ("flags", True, "entry Id7: field 'flags' must be a list of strings, got True"),
    ("flags", 1, "entry Id7: field 'flags' must be a list of strings, got 1"),
    ("flags", 1.5, "entry Id7: field 'flags' must be a list of strings, got 1.5"),
    ("flags", "2", "entry Id7: field 'flags' must be a list of strings, got '2'"),
    ("flags", [1], "entry Id7: field 'flags' must be a list of strings, got [1]"),
    ("flags", {}, "entry Id7: field 'flags' must be a list of strings, got {}"),
]


@pytest.mark.parametrize("field, value, detail", WRONG_TYPED_FIELDS)
def test_each_wrong_json_type_of_a_checked_field(field, value, detail):
    record = {**entry_to_dict(apertura_entry()), "eid": "Id7", field: value}
    with pytest.raises(MalformedEntryError) as err:
        entry_from_dict(record)
    assert str(err.value) == detail


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(WRONG_TYPED_FIELDS), min_size=1, max_size=5,
                unique_by=lambda case: case[0]))
def test_the_first_wrong_field_in_checking_order_is_reported(cases):
    record = {**entry_to_dict(apertura_entry()), "eid": "Id7"}
    for field, value, _ in cases:
        record[field] = value
    with pytest.raises(MalformedEntryError) as err:
        entry_from_dict(record)
    assert str(err.value) == min(cases, key=WRONG_TYPED_FIELDS.index)[2]


PROVENANCE_NOT_MEMBER = ("field 'provenance' must be one of 'wikitablequestions', 'wikisql', "
                         "'webnlg', 'e2e', 'synthetic', 'other', got ")
ANNOTATOR_NOT_MEMBER = ("field 'annotator' must be one of 'internal', 'mturk', "
                        "'auto_declarative', 'external_dataset', got ")


@pytest.mark.parametrize("field, value, detail", [
    ("provenance", "nowhere", f"{PROVENANCE_NOT_MEMBER}'nowhere'"),
    ("provenance", 5, f"{PROVENANCE_NOT_MEMBER}5"),
    ("provenance", None, f"{PROVENANCE_NOT_MEMBER}None"),
    ("provenance", [1], f"{PROVENANCE_NOT_MEMBER}[1]"),
    ("annotator", "bogus", f"{ANNOTATOR_NOT_MEMBER}'bogus'"),
    ("annotator", 5, f"{ANNOTATOR_NOT_MEMBER}5"),
    ("annotator", None, f"{ANNOTATOR_NOT_MEMBER}None"),
    ("annotator", {}, f"{ANNOTATOR_NOT_MEMBER}{{}}"),
])
def test_enum_value_outside_the_enum_is_an_error(field, value, detail):
    record = {**entry_to_dict(apertura_entry()), "eid": "Id7"}
    if field == "provenance":
        record["provenance"] = value
    else:
        record["realizations"] = [{"text": "x.", "annotator": value}]
    with pytest.raises(MalformedEntryError) as err:
        entries_of(json.dumps(record) + "\n")
    assert str(err.value) == f"line 1: entry Id7: {detail}"


@pytest.mark.parametrize("value, field", [
    (Triple("s", "p", "o"), "subject"),
    (apertura_entry(), "provenance"),
    (Realization("x."), "annotator"),
    (apertura_entry(), "eid"),
])
def test_value_types_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, "changed")
