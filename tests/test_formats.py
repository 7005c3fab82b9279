import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabletriples.errors import MalformedEntryError
from tabletriples.formats import (
    entry_from_dict,
    entry_to_dict,
    escape_field,
    linearize,
    read_entries_file,
    read_entries_jsonl,
    read_xml,
    unescape_field,
    write_entries_jsonl,
    write_xml,
)
from tabletriples.triples import (
    Annotator,
    CorpusEntry,
    Provenance,
    Realization,
    Triple,
    TripleSet,
)


def apertura_entry() -> CorpusEntry:
    return CorpusEntry(
        tripleset=TripleSet(
            triples=(
                Triple("Apertura 2006", "JORNADA_OR_OTHER", "Semifinals Ida"),
                Triple("Semifinals Ida", "AWAY_TEAM", "América"),
                Triple("Semifinals Ida", "HOME_TEAM", "Chivas"),
            )
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
        tripleset=TripleSet(
            triples=(
                Triple("Terry Jenkins", "ROUND", "1st Round"),
                Triple("Terry Jenkins", "YEAR", "2014"),
                Triple("[TABLECONTEXT]", "[TITLE]", "PDC World Darts Championship"),
                Triple("1st Round", "OPPONENT", "Per Laursen"),
                Triple("1st Round", "RESULT", "Lost"),
                Triple("[TABLECONTEXT]", "PLAYER", "Terry Jenkins"),
            )
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
        doc = write_xml(entries)
        assert read_xml(doc) == entries
        assert write_xml(read_xml(doc)) == doc

    def test_reference_document_content(self):
        doc = write_xml([apertura_entry()])
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

    def test_pipes_and_backslashes(self):
        entry = CorpusEntry(
            tripleset=TripleSet(triples=(Triple("a | b", "p|q", "c\\d|"),)),
            realizations=(Realization("text.", Annotator.INTERNAL),),
            category="X",
            eid="Id1",
        )
        doc = write_xml([entry])
        assert read_xml(doc) == [entry]

    def test_xml_specials_escaped(self):
        entry = CorpusEntry(
            tripleset=TripleSet(triples=(Triple("a & b", "<p>", '"quoted"'),)),
            realizations=(Realization("1 < 2 & 3 > 0.", Annotator.MTURK),),
            category="A&B",
            eid="Id<1>",
        )
        doc = write_xml([entry])
        assert read_xml(doc) == [entry]

    def test_empty_entry_list(self):
        doc = write_xml([])
        assert read_xml(doc) == []

    def test_size_mismatch_rejected(self):
        doc = write_xml([apertura_entry()]).replace('size="3"', 'size="4"')
        with pytest.raises(MalformedEntryError) as err:
            read_xml(doc)
        assert err.value.eid == "Id5"

    def test_missing_eid_rejected(self):
        doc = '<entries><entry category="C" size="0"><modifiedtripleset/></entry></entries>'
        with pytest.raises(MalformedEntryError):
            read_xml(doc)

    def test_bad_mtriple_rejected(self):
        doc = (
            '<entries><entry category="C" eid="Id1" size="1">'
            "<modifiedtripleset><mtriple>only | two</mtriple></modifiedtripleset>"
            "<lex>x.</lex></entry></entries>"
        )
        with pytest.raises(MalformedEntryError):
            read_xml(doc)

    def test_invalid_xml_rejected(self):
        with pytest.raises(MalformedEntryError):
            read_xml("<entries><entry></entries>")

    def test_annotator_tag_roundtrips_via_comment(self):
        entry = CorpusEntry(
            tripleset=TripleSet(triples=(Triple("s", "p", "o"),)),
            realizations=(Realization("fine text.", Annotator.AUTO_DECLARATIVE),),
            category="C",
            eid="Id1",
        )
        (back,) = read_xml(write_xml([entry]))
        assert back.realizations[0].annotator is Annotator.AUTO_DECLARATIVE
        assert back == entry


def test_escape_unescape_inverse():
    rng = random.Random(3)
    alphabet = "ab |\\x"
    for _ in range(500):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
        assert unescape_field(escape_field(s)) == s


class TestLinearize:
    def test_earthquake_pair(self):
        ts = TripleSet(
            triples=(
                Triple("Peru Earthquake", "scale of disaster", "250k homeless"),
                Triple("Peru Earthquake", "year", "2007"),
            )
        )
        assert linearize(ts) == (
            "<H> Peru Earthquake <R> scale of disaster <T> 250k homeless "
            "<H> Peru Earthquake <R> year <T> 2007"
        )

    def test_single_triple(self):
        ts = TripleSet(triples=(Triple("s", "p", "o"),))
        assert linearize(ts) == "<H> s <R> p <T> o"

    def test_title_predicate_lowercased(self):
        ts = TripleSet(
            triples=(
                Triple("[TABLECONTEXT]", "game", "3"),
                Triple("3", "attendance", "10 637"),
                Triple("[TABLECONTEXT]", "[TITLE]", "2006 Minnesota Swarm season"),
            )
        )
        assert linearize(ts) == (
            "<H> [TABLECONTEXT] <R> game <T> 3 "
            "<H> 3 <R> attendance <T> 10 637 "
            "<H> [TABLECONTEXT] <R> [title] <T> 2006 Minnesota Swarm season"
        )

    def test_marker_count_law(self):
        rng = random.Random(8)
        for _ in range(100):
            n = rng.randrange(1, 9)
            ts = TripleSet(
                triples=tuple(Triple(f"s{i}", f"p{i}", f"o{i}") for i in range(n))
            )
            text = linearize(ts)
            assert text.count("<H>") == n
            assert text.count("<R>") == n
            assert text.count("<T>") == n

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            linearize(TripleSet(triples=()))


class TestJsonl:
    def test_roundtrip_with_metadata(self):
        entry = CorpusEntry(
            tripleset=TripleSet(
                triples=(Triple("s", "p", "o"),), provenance=Provenance.WIKISQL
            ),
            realizations=(
                Realization("first text.", Annotator.INTERNAL),
                Realization("second text.", Annotator.MTURK, comment="batch-2"),
            ),
            category="MISC",
            eid="Id3",
            table_id="t9",
            row_index=2,
            flags=("empty_cell",),
        )
        text = write_entries_jsonl([entry])
        assert read_entries_jsonl(text) == [entry]

    def test_dict_roundtrip_minimal(self):
        entry = CorpusEntry(
            tripleset=TripleSet(triples=(Triple("s", "p", "o"),)),
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
                tripleset=TripleSet(triples=(Triple("s", "p", "o"),)),
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
        tripleset=TripleSet(triples=triples, provenance=rng.choice(list(Provenance))),
        realizations=realizations,
        category=rng.choice(["MISC", "Sports", "A&B"]),
        eid=eid,
        table_id=rng.choice([None, "t1", "t|2"]),
        row_index=rng.choice([None, 0, 12]),
        flags=rng.choice([(), ("empty_cell",)]),
    )


def test_xml_fuzz_roundtrip():
    rng = random.Random(314159)
    entries = [random_entry(rng, f"Id{i}") for i in range(300)]
    doc = write_xml(entries)
    back = read_xml(doc)
    assert back == entries
    assert write_xml(back) == doc


def test_jsonl_fuzz_roundtrip():
    rng = random.Random(271828)
    entries = [random_entry(rng, f"Id{i}") for i in range(300)]
    text = write_entries_jsonl(entries)
    assert read_entries_jsonl(text) == entries


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


@st.composite
def xml_entries(draw) -> CorpusEntry:
    realizations = []
    for _ in range(draw(st.integers(1, 3))):
        text = draw(xml_text.map(str.strip))  # the reader strips <lex> text
        if draw(st.booleans()):
            realizations.append(Realization(text, draw(st.sampled_from(list(Annotator)))))
        else:
            # a comment that is not an annotator tag reads back as external_dataset
            comment = draw(xml_text.filter(lambda c: c and c not in {a.value for a in Annotator}))
            realizations.append(Realization(text, Annotator.EXTERNAL_DATASET, comment))
    flag = st.text("ab_|&<>\"' ", min_size=1, max_size=5)  # flags are comma-joined
    triple = st.builds(Triple, xml_text, xml_text, xml_text)
    return CorpusEntry(
        tripleset=TripleSet(
            triples=tuple(draw(st.lists(triple, max_size=4))),
            provenance=draw(st.sampled_from(list(Provenance))),
        ),
        realizations=tuple(realizations),
        category=draw(xml_text),
        eid=draw(xml_text),
        table_id=draw(st.none() | xml_text),
        row_index=draw(st.none() | st.integers(-5, 10**6)),
        flags=tuple(draw(st.lists(flag, max_size=2))),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(xml_entries(), max_size=3))
def test_xml_roundtrip_property(entries):
    doc = write_xml(entries)
    assert read_xml(doc) == entries
    assert write_xml(read_xml(doc)) == doc


class TestXmlIllegalCharacters:
    @pytest.mark.parametrize("field", ["subject", "text", "category"])
    def test_control_character_rejected_with_eid(self, field):
        text = {"subject": "s", "text": "words.", "category": "MISC"}
        text[field] = f"bad\x01{text[field]}"
        entry = CorpusEntry(
            tripleset=TripleSet(triples=(Triple(text["subject"], "p", "o"),)),
            realizations=(Realization(text["text"]),),
            category=text["category"],
            eid="Id9",
        )
        with pytest.raises(MalformedEntryError, match="U\\+0001") as err:
            write_xml([apertura_entry(), entry])
        assert err.value.eid == "Id9"

    def test_surrogate_rejected(self):
        entry = apertura_entry()
        bad = CorpusEntry(entry.tripleset, (Realization("x\ud800"),), "MISC", "Id2")
        with pytest.raises(MalformedEntryError, match="U\\+D800"):
            write_xml([bad])


class TestEntryFileErrors:
    def _lines(self, *records) -> str:
        good = entry_to_dict(apertura_entry())
        return "".join(json.dumps({**good, **r}) + "\n" for r in records)

    def test_missing_field_names_line_and_eid(self):
        good = entry_to_dict(apertura_entry())
        del good["triples"]
        text = self._lines({}, {"eid": "Id2"}) + "\n" + json.dumps({**good, "eid": "Id3"}) + "\n"
        with pytest.raises(MalformedEntryError) as err:
            read_entries_jsonl(text)
        assert str(err.value) == "line 4: entry Id3: missing field 'triples'"
        assert err.value.eid == "Id3"

    @pytest.mark.parametrize(
        "bad",
        [{"triples": "abc"}, {"triples": [["s", "p"]]}, {"realizations": 5},
         {"realizations": ["text"]}, {"provenance": "nowhere"}, {"schema_version": 9}],
    )
    def test_wrong_typed_field_names_line_and_eid(self, bad):
        with pytest.raises(MalformedEntryError, match="^line 2: entry Id7: "):
            read_entries_jsonl(self._lines({}, {**bad, "eid": "Id7"}))

    def test_bad_json_and_non_object_lines(self):
        with pytest.raises(MalformedEntryError, match="^line 2: "):
            read_entries_jsonl(self._lines({}) + '{"eid": \n')
        with pytest.raises(MalformedEntryError, match="^line 1: "):
            read_entries_jsonl("[1, 2]\n")

    def test_file_reader_adds_the_path(self, tmp_path):
        path = tmp_path / "entries.jsonl"
        path.write_text(self._lines({}, {"realizations": None, "eid": "Id2"}), encoding="utf-8")
        with pytest.raises(MalformedEntryError) as err:
            read_entries_file(path)
        assert str(err.value).startswith(f"{path}: line 2: entry Id2: ")
        assert err.value.eid == "Id2"

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
            read_entries_jsonl(json.dumps(record) + "\n")
        assert str(err.value) == f"line 1: {detail}"

    def test_null_table_coordinates_are_accepted(self):
        record = {**entry_to_dict(apertura_entry()), "table_id": None, "row_index": None}
        assert entry_from_dict(record) == apertura_entry()
