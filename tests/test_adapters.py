import ast
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabletriples.adapters import (
    _AGGREGATE_RE,
    AGGREGATE_KEYWORDS,
    Dropped,
    Highlight,
    _strip_literals,
    align_row,
    e2e_to_tripleset,
    has_aggregate_command,
    parse_mr,
    parse_sql,
    webnlg_ingest,
)
from tabletriples.errors import MalformedEntryError, ParseError
from tabletriples.tables import Table
from tabletriples.triples import Annotator, Provenance, Realization, Triple

TESTS = Path(__file__).parent


class TestMeaningRepresentations:
    def test_parse_basic(self):
        slots = parse_mr("name[Alimentum], area[city centre], familyFriendly[no]")
        assert slots == (
            ("name", "Alimentum"),
            ("area", "city centre"),
            ("familyFriendly", "no"),
        )

    def test_parse_nested_brackets(self):
        slots = parse_mr("name[The Mill [riverside]], food[English]")
        assert slots[0] == ("name", "The Mill [riverside]")

    def test_parse_unbalanced(self):
        with pytest.raises(ParseError):
            parse_mr("name[Alimentum, area[x]")

    def test_parse_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_mr("name[Alimentum] nonsense")

    def test_parse_missing_name(self):
        with pytest.raises(ParseError):
            parse_mr("[Alimentum]")

    def test_parse_empty(self):
        with pytest.raises(ParseError):
            parse_mr("   ")

    def test_alimentum_conversion(self):
        triples = e2e_to_tripleset(
            parse_mr("name[Alimentum], area[city centre], familyFriendly[no]")
        )
        assert triples == (
            Triple("Alimentum", "area", "city centre"),
            Triple("Alimentum", "familyFriendly", "no"),
        )

    def test_nameless_dropped(self):
        assert isinstance(e2e_to_tripleset(parse_mr("area[riverside]")), Dropped)

    def test_name_only_dropped(self):
        assert isinstance(e2e_to_tripleset(parse_mr("name[X]")), Dropped)

    def test_size_law(self):
        slots = parse_mr("name[X], a[1], b[2], c[3]")
        assert len(e2e_to_tripleset(slots)) == len(slots) - 1


class TestSqlFiltering:
    @pytest.mark.parametrize("keyword", AGGREGATE_KEYWORDS)
    def test_every_aggregate_keyword_rejects(self, keyword):
        raw = f"SELECT a FROM t WHERE b = 1 {keyword} x"
        assert has_aggregate_command(raw)

    def test_count_star(self):
        assert parse_sql("SELECT COUNT(a) FROM t") == Dropped("aggregate command")

    def test_order_by(self):
        assert parse_sql("SELECT a FROM t ORDER BY b") == Dropped("aggregate command")

    def test_group_by_split_across_whitespace(self):
        assert has_aggregate_command("select a from t group\n by b")

    def test_case_insensitive(self):
        assert has_aggregate_command("select max(a) from t")

    def test_plain_query_accepted(self):
        assert parse_sql("SELECT year FROM t WHERE country = 'Greece'") == (("country", "Greece"),)

    def test_quoted_keyword_not_rejected(self):
        assert parse_sql("SELECT a FROM t WHERE name = 'Max Power'") == (("name", "Max Power"),)
        assert parse_sql('SELECT a FROM t WHERE note = "join us"') == (("note", "join us"),)

    def test_keyword_inside_identifier_not_rejected(self):
        assert parse_sql("SELECT climax FROM t WHERE summit = 'x'") == (("summit", "x"),)
        assert parse_sql("SELECT order_id FROM t WHERE grouping = 'y'") == (("grouping", "y"),)

    def test_bare_order_or_group_accepted(self):
        # only the two-word forms are aggregate commands
        assert parse_sql("SELECT order FROM t WHERE group = 'a'") == (("group", "a"),)

    def test_and_inside_quoted_value_is_not_a_separator(self):
        conditions = parse_sql(
            "SELECT a FROM t WHERE team = 'Black and White' AND note = \"x AND y\" and b = 1"
        )
        assert conditions == (
            ("team", "Black and White"), ("note", "x AND y"), ("b", "1"),
        )

    @pytest.mark.parametrize("raw, column, value", [
        ("SELECT Coach FROM t WHERE Team = Union Berlin", "Team", "Union Berlin"),
        ("SELECT Team FROM t WHERE Coach = Max Planck", "Coach", "Max Planck"),
    ])
    def test_keyword_opening_an_unquoted_value_is_value_text(self, raw, column, value):
        conditions = parse_sql(raw)
        assert conditions == ((column, value),)
        table = Table(id="t", title="", headers=("Team", "Coach"),
                      rows=(("Hertha", "Pal Dardai"), ("Union Berlin", "Max Planck")))
        answer = "Max Planck" if column == "Team" else "Union Berlin"
        h = align_row(conditions, table, answer)
        assert (h.row_index, h.nodes) == (1, frozenset({0, 1}))

    @pytest.mark.parametrize("raw", [
        "SELECT MAX(Year) FROM t WHERE Country = 'Greece'",
        "SELECT COUNT(Year) FROM t WHERE Team = Union Berlin",
        "SELECT Year FROM t WHERE Team = Union Berlin ORDER BY Year",
        "SELECT Year FROM t WHERE Coach = Max Planck GROUP BY Year",
        "SELECT Year FROM t JOIN u ON t.id = u.id WHERE Team = Union Berlin",
        "SELECT Year FROM t WHERE b = 1 UNION SELECT Year FROM u",
        "select count ( year ) from t",
        "SELECT Year FROM t WHERE Country = 'Greece' ORDER BY Year",
        "SELECT Year FROM t WHERE b = 'x' UNION SELECT Year FROM u",
        "SELECT Year FROM t WHERE a = 1 AND b = \"x\" GROUP BY c",
        "SELECT Year FROM t WHERE a = MAX(b)",
        "SELECT Year FROM t WHERE a = count (b)",
    ])
    def test_clause_and_function_keywords_still_flagged(self, raw):
        assert has_aggregate_command(raw)
        assert parse_sql(raw) == Dropped("aggregate command")

    def test_not_a_select(self):
        with pytest.raises(ParseError):
            parse_sql("DELETE FROM t")

    def test_aggregate_check_comes_before_the_select_shape_check(self):
        # an aggregate query that is also not a flat SELECT is skipped, not an error
        with pytest.raises(ParseError):
            parse_sql("DELETE FROM t")
        assert parse_sql("DELETE FROM t ORDER BY x") == Dropped("aggregate command")

    def test_unsupported_where(self):
        with pytest.raises(ParseError):
            parse_sql("SELECT a FROM t WHERE b > 3")


@pytest.fixture
def olympics_table() -> Table:
    return Table(
        id="olympics",
        title="Summer Olympics",
        headers=("Year", "City", "Country"),
        rows=(
            ("2004", "Athens", "Greece"),
            ("2008", "Beijing", "China"),
            ("2012", "London", "Great Britain"),
        ),
        source=Provenance.WIKISQL,
    )


class TestAlignRow:
    def test_greece_alignment(self, olympics_table):
        q = parse_sql("SELECT Year FROM t WHERE Country = 'Greece'")
        h = align_row(q, olympics_table, "2004")
        assert h.row_index == 0
        assert h.nodes == frozenset({0, 2})  # Year (answer) + Country (condition)

    def test_no_matching_row(self, olympics_table):
        q = parse_sql("SELECT Year FROM t WHERE Country = 'Spain'")
        assert isinstance(align_row(q, olympics_table, "2004"), Dropped)

    def test_multiple_matching_rows(self):
        t = Table(id="t", title="", headers=("A", "B"),
                  rows=(("x", "1"), ("x", "2")))
        q = parse_sql("SELECT B FROM t WHERE A = 'x'")
        assert isinstance(align_row(q, t, "1"), Dropped)

    def test_answer_not_in_row(self, olympics_table):
        q = parse_sql("SELECT Year FROM t WHERE Country = 'Greece'")
        assert isinstance(align_row(q, olympics_table, "1996"), Dropped)

    def test_ambiguous_answer_cells(self):
        t = Table(id="t", title="", headers=("A", "B", "C"),
                  rows=(("k", "5", "5"),))
        q = parse_sql("SELECT B FROM t WHERE A = 'k'")
        assert isinstance(align_row(q, t, "5"), Dropped)

    def test_unknown_where_column(self, olympics_table):
        q = parse_sql("SELECT Year FROM t WHERE Planet = 'Earth'")
        assert isinstance(align_row(q, olympics_table, "2004"), Dropped)

    def test_whitespace_trimmed(self, olympics_table):
        q = parse_sql("SELECT Year FROM t WHERE Country = ' Greece '")
        h = align_row(q, olympics_table, " 2004 ")
        assert h.row_index == 0

    def test_highlight_subset_of_columns(self, olympics_table):
        q = parse_sql("SELECT City FROM t WHERE Year = '2008'")
        h = align_row(q, olympics_table, "Beijing")
        assert h.nodes <= set(range(len(olympics_table.headers)))
        assert len(h.nodes) >= 1


# --- alignment and the aggregate check against references -------------------
# The earlier alignment, kept verbatim: it tested every row against every
# condition, stripping each cell and value and looking each column up again.
# ``align_row`` must return the same Highlight or Dropped for every input.

def reference_align_row(conditions, table, answer):
    name_to_index = {h: i for i, h in enumerate(table.headers)}
    condition_cols: list[int] = []
    for col_name, _ in conditions:
        if col_name not in name_to_index:
            return Dropped("unknown column")
        condition_cols.append(name_to_index[col_name])

    matches = []
    for row_index, row in enumerate(table.rows):
        if all(
            row[name_to_index[col]].strip() == value.strip()
            for col, value in conditions
        ):
            matches.append(row_index)
    if not matches:
        return Dropped("no row matches the WHERE conditions")
    if len(matches) > 1:
        return Dropped("more than one row matches the WHERE conditions")
    row_index = matches[0]

    row = table.rows[row_index]
    answer_cols = [
        i for i, cell in enumerate(row) if cell.strip() == answer.strip()
    ]
    if not answer_cols:
        return Dropped("answer matches no cell in the aligned row")
    if len(answer_cols) > 1:
        return Dropped("answer matches more than one cell in the aligned row")

    nodes = frozenset(condition_cols) | {answer_cols[0]}
    return Highlight(table_id=table.id, row_index=row_index, nodes=nodes)


def test_alignment_matches_the_reference_on_random_tables():
    gen = random.Random(36)
    # few distinct words, so cells repeat down a column and across a row
    words = ["a", " a", "a ", "b", "\tb\n", "", " ", "c"]
    reasons = Counter()
    for t in range(300):
        width, height = gen.randrange(1, 5), gen.randrange(0, 6)
        headers = tuple(f"h{j}" for j in range(width))
        table = Table(id=f"t{t}", title="", headers=headers,
                      rows=tuple(tuple(gen.choice(words) for _ in headers) for _ in range(height)))
        names = [*headers, "h9", "H0"]  # two names no column has
        for _ in range(20):
            # a name may come twice, with equal or different values, or not at all
            conditions = tuple((gen.choice(names), gen.choice(words))
                               for _ in range(gen.randrange(0, 4)))
            answer = gen.choice(words)
            got = align_row(conditions, table, answer)
            want = reference_align_row(conditions, table, answer)
            assert (type(got), got) == (type(want), want), (table, conditions, answer)
            reasons[got.reason if isinstance(got, Dropped) else "aligned"] += 1
    # every outcome comes up, so each branch was compared
    assert len(reasons) == 6 and min(reasons.values()) > 50, reasons


def _test_strings() -> set[str]:
    """Every string literal in the test modules (the SQL of every test among
    them) and every ``sql`` string in the WikiSQL fixture."""
    found = set()
    for module in TESTS.glob("*.py"):
        found.update(node.value for node in ast.walk(ast.parse(module.read_text("utf-8")))
                     if isinstance(node, ast.Constant) and isinstance(node.value, str))
    with open(TESTS / "fixtures" / "wikisql.jsonl", encoding="utf-8") as f:
        found.update(sql for sql in (json.loads(line).get("sql") for line in f)
                     if isinstance(sql, str))
    return found


def test_aggregate_check_matches_the_regex_alone():
    raws = _test_strings()
    raws.update(f"SELECT a FROM t WHERE b = 1 {kw} x" for kw in AGGREGATE_KEYWORDS)
    raws.update(f"select a from t where b = 1 {kw.lower()} x" for kw in AGGREGATE_KEYWORDS)
    # Unicode case folding reads the long s as "s" and the dotted capital I as "i"
    folded = ["SELECT ſum(x) FROM t", "SELECT a FROM t WHERE b = 1 UNİON x",
              "SELECT a FROM t WHERE b = 1 uNIon x"]
    raws.update(folded)
    assert sum("SELECT" in raw.upper() for raw in raws) > 100
    for raw in raws:
        assert has_aggregate_command(raw) == any(
            m.group("keyword") for m in _AGGREGATE_RE.finditer(_strip_literals(raw))), raw
    assert all(has_aggregate_command(raw) for raw in folded)


WEBNLG_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<entries>
  <entry category="MISC" eid="Id5" size="3">
    <modifiedtripleset>
      <mtriple>Apertura 2006 | JORNADA_OR_OTHER | Semifinals Ida</mtriple>
      <mtriple>Semifinals Ida | AWAY_TEAM | América</mtriple>
      <mtriple>Semifinals Ida | HOME_TEAM | Chivas</mtriple>
    </modifiedtripleset>
    <lex comment="WikiTableQuestions" lid="Id1">Chivas and América will compete in the semifinals of the Apertura 2006 tournament.</lex>
  </entry>
</entries>
"""


def ingested(doc: str) -> list:
    """``webnlg_ingest`` over the whole document ``doc``, all of it read."""
    return list(webnlg_ingest([doc]))


class TestWebnlgIngest:
    def test_figure_entry(self):
        entries = ingested(WEBNLG_DOC)
        assert len(entries) == 1
        entry = entries[0]
        assert entry.category == "MISC"
        assert entry.eid == "Id5"
        assert len(entry.triples) == 3
        assert entry.provenance is Provenance.WEBNLG
        assert entry.triples[0] == Triple(
            "Apertura 2006", "JORNADA_OR_OTHER", "Semifinals Ida"
        )
        assert len(entry.realizations) == 1
        assert entry.realizations[0].annotator is Annotator.EXTERNAL_DATASET
        assert entry.realizations[0].comment == "WikiTableQuestions"

    def test_ingested_entries_are_reset_to_webnlg(self):
        doc = """<entries><entry category="C" eid="Id1" size="1" provenance="wikisql"
        table_id="t1" row="2" flags="empty_cell">
        <modifiedtripleset><mtriple>a | b | c</mtriple></modifiedtripleset>
        <lex comment="mturk" lid="Id1">A b c.</lex>
        </entry></entries>"""
        (entry,) = webnlg_ingest(doc)
        assert entry.provenance is Provenance.WEBNLG
        assert (entry.table_id, entry.row_index, entry.flags) == (None, None, ())
        assert entry.realizations == (Realization("A b c.", Annotator.EXTERNAL_DATASET),)
        assert (entry.triples, entry.category, entry.eid) == ((Triple("a", "b", "c"),), "C", "Id1")

    def test_size_mismatch_is_malformed(self):
        doc = WEBNLG_DOC.replace('size="3"', 'size="2"')
        with pytest.raises(MalformedEntryError) as err:
            ingested(doc)
        assert err.value.eid == "Id5"

    def test_empty_document(self):
        assert ingested("<entries></entries>") == []

    def test_entry_without_lex_is_malformed(self):
        doc = """<entries><entry category="C" eid="Id1" size="1">
        <modifiedtripleset><mtriple>a | b | c</mtriple></modifiedtripleset>
        </entry></entries>"""
        with pytest.raises(MalformedEntryError, match="^entry Id1: no realizations$"):
            ingested(doc)

    def test_benchmark_wrapper_tolerated(self):
        doc = "<benchmark>" + WEBNLG_DOC.split("\n", 1)[1].strip() + "</benchmark>"
        assert len(ingested(doc)) == 1

    def test_reexport_reproduces_input(self):
        from conftest import FIXTURES
        from tabletriples.xmlcodec import write_xml

        doc = (FIXTURES / "webnlg.xml").read_text(encoding="utf-8")
        out = "".join(write_xml(webnlg_ingest(doc)))
        # identical up to the provenance attribute stamped at ingestion
        assert out.replace(' provenance="webnlg"', "") == doc


# --- properties ---------------------------------------------------------------

_TEXT = st.characters(blacklist_categories=("Cs",))
_PLAIN = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="[]"))
# slot names as parse_mr reads them back: trimmed, no "[" and no leading comma
_SLOT_NAME = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="["),
                     min_size=1).filter(lambda n: n == n.strip() and not n.startswith(","))
_SLOT_VALUE = st.recursive(  # brackets inside a value are balanced
    _PLAIN, lambda inner: st.builds(lambda a, b, c: f"{a}[{b}]{c}", _PLAIN, inner, _PLAIN))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SLOT_NAME, _SLOT_VALUE), min_size=1, max_size=6))
def test_rendered_mr_parses_back_to_its_slots(slots):
    text = ", ".join(f"{name}[{value}]" for name, value in slots)
    assert parse_mr(text) == tuple(slots)


_SQL_WORDS = {"select", "from", "where", "and", "group", "order", "by",
              *(kw.lower() for kw in AGGREGATE_KEYWORDS)}
_COLUMN = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda c: c.lower() not in _SQL_WORDS)
# literal text rich in what the parser must not read inside quotes
_LITERAL_PART = st.one_of(
    st.sampled_from(["AND", " and ", " OR ", "MAX(", "count (x)", "ORDER BY", "GROUP  BY",
                     "UNION SELECT", "|", " || ", "=", " WHERE ", " FROM ", ";", "  ", "\n"]),
    st.text(_TEXT, max_size=6))


@st.composite
def _quoted(draw) -> tuple[str, str]:
    """A quote character and literal text without it."""
    quote = draw(st.sampled_from("'\""))
    return quote, "".join(draw(st.lists(_LITERAL_PART, max_size=5))).replace(quote, "")


@settings(max_examples=300, deadline=None)
@given(st.lists(_COLUMN, min_size=1, max_size=3),
       st.lists(st.tuples(_COLUMN, _quoted()), min_size=1, max_size=4))
def test_flat_select_parses_its_quoted_conditions(columns, conditions):
    where = " AND ".join(f"{col} = {quote}{text}{quote}" for col, (quote, text) in conditions)
    parsed = parse_sql(f"SELECT {', '.join(columns)} FROM t WHERE {where}")
    assert parsed == tuple((col, text) for col, (_, text) in conditions)
