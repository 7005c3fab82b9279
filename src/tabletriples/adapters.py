"""Converters that bring external sources into the common tripleset format.

Three inputs are supported: dialogue-act meaning representations like
``name[Alimentum], area[city centre]``, WebNLG-style XML entry documents
(parsed one entry at a time), and question/SQL pairs aligned back onto
table rows. The parsers return plain values: ``parse_mr`` the slots,
``parse_sql`` the WHERE conditions. Rejected records, an aggregate query
among them, come back as ``Dropped`` values rather than exceptions; bad
syntax is an error, and so is an entry that breaks ``entries.check_entry``'s
rule.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, NamedTuple

from .errors import ParseError
from .tables import Table
from .triples import Annotator, CorpusEntry, Highlight, Provenance, Realization, Triple


class Dropped(NamedTuple):
    reason: str


def parse_mr(text: str) -> tuple[tuple[str, str], ...]:
    """Parse ``name[value], name[value], ...`` with balanced brackets into
    its ``(slot name, value)`` pairs, in source order."""
    slots: list[tuple[str, str]] = []
    i = 0
    n = len(text)
    while i < n:
        open_br = text.find("[", i)
        if open_br == -1:
            if text[i:].strip():
                raise ParseError(f"trailing text without a slot: {text[i:]!r}")
            break
        name = text[i:open_br].strip().lstrip(",").strip()
        if not name:
            raise ParseError(f"missing slot name near position {i} in {text!r}")
        depth = 1
        j = open_br + 1
        while j < n and depth:
            if text[j] == "[":
                depth += 1
            elif text[j] == "]":
                depth -= 1
            j += 1
        if depth:
            raise ParseError(f"unbalanced brackets in {text!r}")
        slots.append((name, text[open_br + 1 : j - 1]))
        i = j
    if not slots:
        raise ParseError(f"no slots found in {text!r}")
    return tuple(slots)


def e2e_to_tripleset(slots: tuple[tuple[str, str], ...]) -> tuple[Triple, ...] | Dropped:
    """Subject = the name slot's value; one triple per remaining slot."""
    subject = next((value for name, value in slots if name == "name"), None)
    if subject is None:
        return Dropped("no name slot")
    # from a list, not a generator, for the reason given in webnlg_ingest
    triples = tuple([Triple(subject, name, value) for name, value in slots if name != "name"])
    if not triples:
        return Dropped("name slot only")
    return triples


def webnlg_ingest(chunks: Iterable[str]) -> Iterator[CorpusEntry]:
    """The entries of an XML entry document, keeping category, eid, triples and all texts.

    ``chunks`` is the document's text, which ``read_xml`` parses as the
    entries are asked for, checking each by the rule every entry obeys; the
    entries come back as WebNLG entries from an external dataset, without
    table coordinates or flags.
    """
    from .xmlcodec import read_xml  # here, so convert-e2e and align-wikisql do not compile it

    # built whole, from a list: _replace and tuple(generator) make a tuple too large and
    # shrink it, and the interpreter keeps each such tuple once freed, up to 2,000 of them
    return (CorpusEntry(
        entry.triples,
        tuple([Realization(r.text, Annotator.EXTERNAL_DATASET, r.comment)
               for r in entry.realizations]),
        entry.category, entry.eid, Provenance.WEBNLG,
    ) for entry in read_xml(chunks))


AGGREGATE_KEYWORDS = (
    "MAX",
    "MIN",
    "COUNT",
    "SUM",
    "AVG",
    "JOIN",
    "INTERSECT",
    "UNION",
    "GROUP BY",
    "ORDER BY",
)

_STRING_LITERAL = re.compile(r"'[^']*'|\"[^\"]*\"")


def _strip_literals(raw: str) -> str:
    # a placeholder word, not a blank, so that a keyword right after a quoted
    # value (``= 'x' ORDER BY``) does not become that value's first word
    return _STRING_LITERAL.sub(" _ ", raw)


_KEYWORD = "|".join(r"\s+".join(map(re.escape, kw.split())) for kw in AGGREGATE_KEYWORDS)
# A WHERE value's first word (right after the operator) is value text, so
# ``= Union Berlin`` and ``= Max Planck`` are values; the first alternative
# consumes such a word unless a parenthesis follows it (``= MAX(b)`` is a
# function). A keyword anywhere else is a clause or a function, including one
# after a value's first word (``= 1 UNION ...``), as in SQL, where an unquoted
# value is a single token.
_AGGREGATE_RE = re.compile(rf"[=<>]\s*(?:{_KEYWORD})\b(?!\s*\()|\b(?P<keyword>{_KEYWORD})\b",
                           flags=re.IGNORECASE)


def has_aggregate_command(raw: str) -> bool:
    """Keyword scan, case-insensitive, ignoring quoted string literals and
    the first word of each WHERE value."""
    return any(m.group("keyword") for m in _AGGREGATE_RE.finditer(_strip_literals(raw)))


_SELECT_RE = re.compile(
    r"^\s*select\s+(?P<cols>.*?)\s+from\s+\S+(?:\s+where\s+(?P<where>.*?))?\s*;?\s*$",
    flags=re.IGNORECASE | re.DOTALL,
)


_AND_RE = re.compile(r"\s+and\s+", flags=re.IGNORECASE)


def _conjuncts(where: str) -> list[str]:
    """Split a WHERE body on AND outside quoted string literals."""
    # blank the literals out at equal length so match offsets index ``where``
    masked = _STRING_LITERAL.sub(lambda m: "_" * len(m.group()), where)
    bounds = [0, *(i for m in _AND_RE.finditer(masked) for i in m.span()), len(where)]
    return [where[a:b] for a, b in zip(bounds[::2], bounds[1::2])]


def parse_sql(raw: str) -> tuple[tuple[str, str], ...] | Dropped:
    """The ``(column, value)`` conditions of a flat SELECT query's WHERE,
    which supports ANDed equality conditions.

    A query containing an aggregate command is ``Dropped`` before its syntax
    is checked, so one that is also not a flat SELECT is still dropped.
    """
    if has_aggregate_command(raw):
        return Dropped("aggregate command")
    m = _SELECT_RE.match(raw)
    if not m:
        raise ParseError(f"not a SELECT query: {raw!r}")
    conditions: list[tuple[str, str]] = []
    where = m.group("where")
    if where:
        for clause in _conjuncts(where):
            if "=" not in clause:
                raise ParseError(f"unsupported WHERE clause: {clause!r}")
            col, _, value = clause.partition("=")
            conditions.append((col.strip(), _unquote(value.strip())))
    return tuple(conditions)


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    return value


def align_row(conditions: tuple[tuple[str, str], ...], table: Table,
              answer: str) -> Highlight | Dropped:
    """Match a query's WHERE conditions and answer back onto one table row.

    The matching row must be unique and the trimmed answer must hit exactly
    one cell of that row; anything else is Dropped. Highlighted nodes are
    the WHERE columns plus the answer column.
    """
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
