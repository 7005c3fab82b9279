"""The bodies of the stages that read tables and annotations, which ``cli`` imports
when one of them runs: ``ingest-tables``, ``validate-ontology``, ``sample``,
``extract`` and ``align-wikisql``. Their files go through ``cli``'s plumbing.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Iterator

from . import tables
from .cli import (_atomic_write, _Counted, _dump_json, _dump_jsonl, _load_by_id, _read_jsonl,
                  _write_entries)
from .entries import Annotator, CorpusEntry, Provenance, Realization
from .errors import BoundError, MalformedEntryError, ParseError, TableTriplesError, located
from .files import field, read_json


class _Trees:
    """A stage's tables, and its annotations after their line numbers, by table id."""

    def __init__(self, args: argparse.Namespace):
        loaded = _load_by_id(args.tables, tables.table_from_dict, "id")
        self.tables = {table_id: table for table_id, (_, table) in loaded.items()}
        self._table_lines = {table_id: lineno for table_id, (lineno, _) in loaded.items()}
        self.annotations = _load_by_id(args.annotations, tables.parse_annotation, "table_id")
        self._tables_path, self._annotations_path = args.tables, args.annotations
        self._built: dict[str, tables.OntologyTree] = {}

    def tree(self, table: tables.Table) -> tables.OntologyTree:
        """``table``'s tree, built once; an error names the table's or the annotation's line."""
        if table.id not in self._built:
            if table.id not in self.annotations:
                raise located(TableTriplesError(f"table {table.id!r} has no ontology annotation"),
                              self._tables_path, self._table_lines[table.id])
            lineno, annotation = self.annotations[table.id]
            try:
                self._built[table.id] = tables.build_tree(table, annotation)
            except TableTriplesError as exc:
                raise located(exc, self._annotations_path, lineno)
        return self._built[table.id]


def cmd_ingest_tables(args) -> str:
    paths: list[Path] = []
    for item in args.input:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(q for q in p.iterdir() if q.suffix.lower() in (".csv", ".tsv")))
        else:
            paths.append(p)
    records = []
    seen = set()
    for path in paths:
        table = tables.load_table(path)
        if table.id in seen:
            raise located(TableTriplesError(f"duplicate table id {table.id!r}"), path)
        seen.add(table.id)
        records.append(tables.table_to_dict(table))
    _atomic_write(args.output, _dump_jsonl(records))
    return f"ingested {len(records)} tables -> {args.output}"


def cmd_validate_ontology(args) -> str:
    trees = _Trees(args)
    problems = []
    for table_id, table in trees.tables.items():
        if table_id not in trees.annotations:
            problems.append({"table_id": table_id, "kind": "annotation-missing",
                             "detail": "no annotation record"})
            continue
        try:
            trees.tree(table)
        except TableTriplesError as exc:
            problems.append({"table_id": table_id, "kind": type(exc).__name__,
                             "detail": str(exc)})
    for table_id in trees.annotations:
        if table_id not in trees.tables:
            problems.append({"table_id": table_id, "kind": "table-missing",
                             "detail": "annotation references an unknown table"})
    report_doc = {"tables_checked": len(trees.tables), "problems": problems}
    if args.output:
        _atomic_write(args.output, [_dump_json(report_doc) + "\n"])
    else:
        print(_dump_json(report_doc), flush=True)  # a closed stdout fails before any report
    if problems:  # every problem is an annotation's: missing, of no table, or no tree
        raise located(TableTriplesError(f"{len(problems)} ontology problems found"),
                      args.annotations)
    return f"all {len(trees.tables)} ontologies valid"


def cmd_sample(args) -> str:
    from .sampling import SamplerConfig, sample_for_table

    if args.max_rows_per_table is not None and args.max_rows_per_table < 0:
        raise BoundError(
            f"--max-rows-per-table must be at least 0, got {args.max_rows_per_table}")
    config = SamplerConfig(
        size_min=args.size_min, size_max=args.size_max,
        p_min=args.p_min, p_max=args.p_max, seed=args.seed,
    )
    trees = _Trees(args)

    def records() -> Iterator[dict]:
        for table_id, table in trees.tables.items():
            rows = list(range(len(table.rows)))[:args.max_rows_per_table]  # None keeps them all
            for row, component in sample_for_table(trees.tree(table), table_id, rows, config):
                yield {
                    "table_id": table_id,
                    "row_index": row,
                    "node_ids": sorted(component.node_ids, key=tables.node_order_key),
                    "p_used": component.p_used,
                    "target_size": component.target_size,
                }

    components = _Counted(records())
    _atomic_write(args.output, _dump_jsonl(components))
    return f"sampled {components.count} components -> {args.output}"


def cmd_extract(args) -> str:
    from .triples import entry_for_highlight

    trees = _Trees(args)
    # each sentence's realization and category, by (table id, row index)
    sentences: dict[tuple[str, int], list[tuple[Realization, str]]] = {}

    def sentence(s: dict) -> tuple[tuple[str, int], tuple[Realization, str]]:
        key = (field(s, "table_id", str), field(s, "row_index", int))
        text = field(s, "text", str)
        annotator = field(s, "annotator", Annotator, default=Annotator.INTERNAL)
        comment = field(s, "comment", str, default="")
        category = field(s, "category", str, default=args.category)
        if not text.strip():
            raise MalformedEntryError("empty realization text")
        return key, (Realization(text, annotator, comment), category)

    for _, (key, said) in _read_jsonl(args.sentences, sentence):
        sentences.setdefault(key, []).append(said)

    def highlight(record: dict, eid: str) -> str | CorpusEntry:
        table_id, row_index = field(record, "table_id", str), field(record, "row_index", int)
        table = trees.tables.get(table_id)
        if table is None:
            raise TableTriplesError(f"component references unknown table {table_id!r}")
        tree = trees.tree(table)
        if not 0 <= row_index < len(table.rows):
            raise TableTriplesError(f"table {table_id!r} has no row {row_index}")
        texts = sentences.get((table_id, row_index))
        if not texts:
            return "without sentences"
        nodes = field(record, "node_ids", list)
        if not set(map(type, nodes)) <= {int, str}:
            raise TableTriplesError("field 'node_ids' must hold ints and strings")
        if not nodes:
            raise TableTriplesError("cannot complete an empty highlight")
        return entry_for_highlight(tree, table, frozenset(nodes), row_index,
                                   [r for r, _ in texts], texts[0][1], eid, table.source)

    return _write_entries(args.output, args.components, _read_jsonl(args.components),
                          highlight, "extracted {} entries")


def cmd_align_wikisql(args) -> str:
    from . import adapters
    from .triples import entry_for_highlight

    trees = _Trees(args)
    qa2d = read_json(args.qa2d) if args.qa2d else {}
    if not isinstance(qa2d, dict):
        raise located(TableTriplesError("expected a JSON object"), args.qa2d)
    try:
        for question_id in qa2d:
            field(qa2d, question_id, str, default=None)
    except ParseError as exc:
        raise located(exc, args.qa2d)

    def highlight(record: dict, eid: str) -> str | CorpusEntry:
        sentence = field(record, "declarative_sentence", str, default=None)
        question_id = field(record, "question_id", str, int, default=None)
        if not sentence and question_id is not None:
            sentence = qa2d.get(str(question_id))
        if not sentence:
            return "no declarative sentence"
        sql = field(record, "sql", str)
        try:
            conditions = adapters.parse_sql(sql)
        except TableTriplesError:
            return "unparseable sql"
        if isinstance(conditions, adapters.Dropped):
            return conditions.reason
        table = trees.tables.get(field(record, "table_id", str))
        if table is None:
            return "unknown table"
        answer = str(field(record, "answer", str, int, float))
        aligned = adapters.align_row(conditions, table, answer)
        if isinstance(aligned, adapters.Dropped):
            return f"unaligned: {aligned.reason}"
        realizations = [Realization(text=sentence, annotator=Annotator.AUTO_DECLARATIVE)]
        return entry_for_highlight(trees.tree(table), table, aligned.nodes, aligned.row_index,
                                   realizations, args.category, eid, Provenance.WIKISQL)

    return _write_entries(args.output, args.input, _read_jsonl(args.input),
                          highlight, "aligned {} records")
