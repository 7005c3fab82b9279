"""Command-line pipeline: every stage reads and writes plain files.

Stage boundaries are files on disk (JSONL for tables, components, and
entries; TSV for splits; XML for interchange), so each stage can be run,
inspected, and re-run independently. Stochastic stages take an explicit
--seed and never default it silently; given the same inputs and seed, every
stage is byte-for-byte reproducible. Outputs are written to a temp file,
synced to disk and renamed into place, so neither a failed run nor a crash
leaves a half-written artifact; a stage with two outputs writes both or
neither. The entries stages stream: unify, stats, export-xml and linearize
hold one entry at a time, reading, transforming and writing each in turn
(stats also holds its distinct-value sets, and unify its unmapped
predicates); extract, convert-e2e, align-wikisql and ingest-webnlg write
each entry as they make it (convert-e2e reading its CSV a record at a time,
ingest-webnlg parsing its XML an entry at a time), and sample each
component. Every input is opened before any output is begun.
Each stage runs in its own process, so a module that only some stages use
(adapters, sampling, splits, stats, unify) is imported inside their
``cmd_*`` functions, not at start-up.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections import Counter, defaultdict
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import formats, tables
from .errors import (RECORD_ERRORS, BoundError, MalformedEntryError, OversizeError,
                     TableTriplesError, located)
from .files import read_blocks, read_json, read_lines
from .files import write_atomic as _atomic_write  # perfbench's tracer times these two
from .formats import write_jsonl as _dump_jsonl  # by these names
from .tables import Table, build_tree
from .triples import (
    Annotator,
    CorpusEntry,
    Provenance,
    Realization,
    assemble_entry,
    complete_subtree,  # noqa: F401  perfbench's tracer test looks it up on this module
    entry_for_highlight,
)

PROG = "tabletriples"


# --- plumbing ---------------------------------------------------------------

def _read_jsonl(path: str | Path, decode: Callable | None = None) -> Iterator[tuple[int, object]]:
    """``formats.read_jsonl`` over the file at ``path``, which is opened now."""
    return formats.read_jsonl(read_lines(path), path, decode)


def _field(record: dict, key: str, *kinds: type, default=...):
    """``record[key]``, or ``default`` if absent; an error if required or mistyped."""
    value = record.get(key, default)
    if type(value) in kinds or value is default and default is not ...:  # a bool is no int
        return value
    if value is ...:
        raise TableTriplesError(f"missing field {key!r}")
    raise TableTriplesError(f"field {key!r} must be "
                            f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}")


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False)


class _Counted:
    """``items``, counted as they are iterated: ``count`` is how many have passed."""

    def __init__(self, items: Iterable):
        self.items, self.count = items, 0

    def __iter__(self) -> Iterator:
        for self.count, item in enumerate(self.items, 1):
            yield item


def _load_by_id(path: str | Path, parse: Callable[[dict], object], id_attr: str) -> dict:
    """A JSONL file's records decoded by ``parse``, keyed by their table id."""
    out = {}
    for lineno, item in _read_jsonl(path, parse):
        item_id = getattr(item, id_attr)
        if item_id in out:
            raise located(TableTriplesError(f"duplicate record for table id {item_id!r}"),
                          path, lineno)
        out[item_id] = item
    return out


class _Trees:
    """A stage's tables and annotations by table id; each table's tree is built once."""

    def __init__(self, args: argparse.Namespace):
        self.tables = _load_by_id(args.tables, tables.table_from_dict, "id")
        self.annotations = _load_by_id(args.annotations, tables.parse_annotation, "table_id")
        self._built: dict[str, tables.OntologyTree] = {}

    def tree(self, table: Table) -> tables.OntologyTree:
        if table.id not in self._built:
            if table.id not in self.annotations:
                raise TableTriplesError(f"table {table.id!r} has no ontology annotation")
            self._built[table.id] = build_tree(table, self.annotations[table.id])
        return self._built[table.id]


def _fail(stage: str, exc: BaseException) -> int:
    report = {"error": type(exc).__name__, "stage": stage, "message": str(exc)}
    print(json.dumps(report, ensure_ascii=False), file=sys.stderr)
    return 1


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _skip_tail(skipped: Counter[str]) -> str:
    """``(skipped: 2 reason, 1 other reason)`` in reason order, or ``(skipped: none)``."""
    counts = ", ".join(f"{n} {reason}" for reason, n in sorted(skipped.items()))
    return f"(skipped: {counts or 'none'})"


def _write_entries(output: str, path: str, records: Iterable[tuple[int, dict]],
                   entry: Callable[[dict, str], str | CorpusEntry], done: str) -> int:
    """Write the entry of each ``(line number, record)`` of ``path``, or count its skip.

    ``entry(record, eid)`` gives a skip reason or the entry with that eid; a
    tripleset over the size limit is the skip ``oversize tripleset``, and any
    other error it raises is located at the record's line. Each entry is
    written as it is made.
    """
    skipped: Counter[str] = Counter()
    written = 0

    def entries() -> Iterator[CorpusEntry]:
        nonlocal written
        for lineno, record in records:
            try:
                built = entry(record, f"Id{written + 1}")
            except OversizeError:
                skipped["oversize tripleset"] += 1
                continue
            except RECORD_ERRORS as exc:
                raise located(exc, path, lineno)
            if isinstance(built, str):
                skipped[built] += 1
            else:
                written += 1
                yield built

    _atomic_write(output, formats.write_entries_jsonl(entries()))
    _note(f"{done.format(written)} -> {output} {_skip_tail(skipped)}")
    return 0


# --- stages -----------------------------------------------------------------

def cmd_ingest_tables(args) -> int:
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
            raise TableTriplesError(f"{path}: duplicate table id {table.id!r}")
        seen.add(table.id)
        records.append(tables.table_to_dict(table))
    _atomic_write(args.output, _dump_jsonl(records))
    _note(f"ingested {len(records)} tables -> {args.output}")
    return 0


def cmd_validate_ontology(args) -> int:
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
        except ValueError as exc:
            problems.append({"table_id": table_id, "kind": "annotation-mismatch",
                             "detail": str(exc)})
    for table_id in trees.annotations:
        if table_id not in trees.tables:
            problems.append({"table_id": table_id, "kind": "table-missing",
                             "detail": "annotation references an unknown table"})
    report_doc = {"tables_checked": len(trees.tables), "problems": problems}
    if args.output:
        _atomic_write(args.output, [_dump_json(report_doc) + "\n"])
    else:
        print(_dump_json(report_doc))
    if problems:
        _note(f"{len(problems)} ontology problems found")
        return 1
    _note(f"all {len(trees.tables)} ontologies valid")
    return 0


def cmd_sample(args) -> int:
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
    _note(f"sampled {components.count} components -> {args.output}")
    return 0


def cmd_extract(args) -> int:
    trees = _Trees(args)
    # each sentence's realization and category, by (table id, row index)
    sentences: dict[tuple[str, int], list[tuple[Realization, str]]] = {}
    defaults = {"text": ..., "annotator": "internal", "comment": "", "category": args.category}

    def sentence(s: dict) -> tuple[tuple[str, int], tuple[Realization, str]]:
        key = (_field(s, "table_id", str), _field(s, "row_index", int))
        text, annotator, comment, category = [
            _field(s, name, str, default=d) for name, d in defaults.items()]
        if not text.strip():
            raise MalformedEntryError("empty realization text")
        return key, (Realization(text, Annotator(annotator), comment), category)

    for _, (key, said) in _read_jsonl(args.sentences, sentence):
        sentences.setdefault(key, []).append(said)

    def highlight(record: dict, eid: str) -> str | CorpusEntry:
        table_id = _field(record, "table_id", str)
        row_index = _field(record, "row_index", int)
        table = trees.tables.get(table_id)
        if table is None:
            raise TableTriplesError(f"component references unknown table {table_id!r}")
        tree = trees.tree(table)
        if not 0 <= row_index < len(table.rows):
            raise TableTriplesError(f"table {table_id!r} has no row {row_index}")
        texts = sentences.get((table_id, row_index))
        if not texts:
            return "without sentences"
        nodes = _field(record, "node_ids", list)
        if not set(map(type, nodes)) <= {int, str}:
            raise TableTriplesError("field 'node_ids' must hold ints and strings")
        return entry_for_highlight(tree, table, frozenset(nodes), row_index,
                                   [r for r, _ in texts], texts[0][1], eid, table.source)

    return _write_entries(args.output, args.components, _read_jsonl(args.components),
                          highlight, "extracted {} entries")


def cmd_convert_e2e(args) -> int:
    from . import adapters

    reader = csv.reader(read_lines(args.input, newline=""))
    header = next(reader, None)
    if header is None or "mr" not in header or "ref" not in header:
        raise TableTriplesError(f"{args.input}: expected CSV columns 'mr' and 'ref'")

    def rows() -> Iterator[tuple[int, list[str]]]:
        """Each non-blank row after its first line; a quoted cell can span lines."""
        first = reader.line_num + 1
        for cells in reader:
            if cells:
                yield first, cells
            first = reader.line_num + 1

    def converted(cells: list[str], eid: str) -> str | CorpusEntry:
        if len(cells) > len(header):
            raise TableTriplesError(f"row has {len(cells)} cells "
                                    f"but the header has {len(header)}")
        record = dict(zip(header, cells))
        mr, ref = _field(record, "mr", str), _field(record, "ref", str)
        triples = adapters.e2e_to_tripleset(adapters.parse_mr(mr))
        if isinstance(triples, adapters.Dropped):
            return triples.reason
        realizations = [Realization(text=ref, annotator=Annotator.EXTERNAL_DATASET)]
        return assemble_entry(triples, realizations, args.category, eid, Provenance.E2E)

    return _write_entries(args.output, args.input, rows(), converted, "converted {} MRs")


def cmd_ingest_webnlg(args) -> int:
    from . import adapters

    return _render(args, adapters.webnlg_ingest(read_blocks(args.input)),
                   formats.write_entries_jsonl, "ingested {} entries")


def cmd_align_wikisql(args) -> int:
    from . import adapters

    trees = _Trees(args)
    qa2d = read_json(args.qa2d) if args.qa2d else {}
    if not isinstance(qa2d, dict):
        raise TableTriplesError(f"{args.qa2d}: expected a JSON object")
    for question_id, sentence in qa2d.items():
        if sentence is not None and not isinstance(sentence, str):
            raise TableTriplesError(f"{args.qa2d}: question {question_id!r}: "
                                    f"sentence must be a string, got {sentence!r}")

    def highlight(record: dict, eid: str) -> str | CorpusEntry:
        sentence = _field(record, "declarative_sentence", str, default=None)
        question_id = _field(record, "question_id", str, int, default=None)
        if not sentence and question_id is not None:
            sentence = qa2d.get(str(question_id))
        if not sentence:
            return "no declarative sentence"
        sql = _field(record, "sql", str)
        try:
            conditions = adapters.parse_sql(sql)
        except TableTriplesError:
            return "unparseable sql"
        if isinstance(conditions, adapters.Dropped):
            return conditions.reason
        table = trees.tables.get(_field(record, "table_id", str))
        if table is None:
            return "unknown table"
        answer = str(_field(record, "answer", str, int, float))
        aligned = adapters.align_row(conditions, table, answer)
        if isinstance(aligned, adapters.Dropped):
            return f"unaligned: {aligned.reason}"
        if table.id not in trees.annotations:
            return "no ontology annotation"
        realizations = [Realization(text=sentence, annotator=Annotator.AUTO_DECLARATIVE)]
        return entry_for_highlight(trees.tree(table), table, aligned.nodes, aligned.row_index,
                                   realizations, args.category, eid, Provenance.WIKISQL)

    return _write_entries(args.output, args.input, _read_jsonl(args.input),
                          highlight, "aligned {} records")


def cmd_unify(args) -> int:
    from . import unify

    pmap = unify.load_predicate_map(args.map)
    entries = _Counted(formats.read_entries_file(args.input))
    unmapped: set[str] = set()
    unified = (unify.unify_entry(entry, pmap, unmapped) for entry in entries)

    def report() -> Iterator[str]:  # asked for once every entry is written
        for predicate in sorted(unmapped):
            yield predicate + "\n"

    reports = [(args.report_unmapped, report())] if args.report_unmapped else []
    _atomic_write(args.output, formats.write_entries_jsonl(unified), *reports)
    _note(f"unified {entries.count} entries -> {args.output} "
          f"({len(unmapped)} distinct unmapped predicates)")
    return 0


def cmd_split(args) -> int:
    from . import splits

    config = splits.SplitConfig(
        threshold=args.threshold,
        test_seed_fraction=args.test_seed_frac,
        dev_seed_fraction=args.dev_seed_frac,
        seed=args.seed,
    )
    table_map = _load_by_id(args.tables, tables.table_from_dict, "id")
    signatures = [splits.TableSignature.from_table(t) for t in table_map.values()]
    assignment = splits.split(signatures, config)
    _atomic_write(args.output, [f"{table_id}\t{name.value}\n"
                                for table_id, name in sorted(assignment.items())])
    counts = {name.value: 0 for name in splits.SplitName}
    for name in assignment.values():
        counts[name.value] += 1
    _note(f"split {len(assignment)} tables -> {args.output} ({counts})")
    return 0


def cmd_stats(args) -> int:
    from . import stats

    partitions: defaultdict[str, stats.StatsAccumulator] = defaultdict(stats.StatsAccumulator)

    def entries() -> Iterator[CorpusEntry]:
        """Every input's entries; with --by-partition, each is counted in its partition too."""
        for path in args.input:
            for entry in formats.read_entries_file(path):
                if args.by_partition:
                    partitions[entry.provenance.value].add(entry)
                yield entry

    overall = stats.compute_stats(entries())
    blocks = [stats.format_stats(overall, heading="all")]
    doc: dict = {"all": asdict(overall)}
    if args.by_partition:
        doc["partitions"] = {}
        for name in sorted(partitions):
            part_stats = partitions[name].finalize()
            blocks.append(stats.format_stats(part_stats, heading=name))
            doc["partitions"][name] = asdict(part_stats)
    print("\n\n".join(blocks))
    if args.json_out:
        _atomic_write(args.json_out, [_dump_json(doc) + "\n"])
    return 0


def _render(args, entries: Iterable[CorpusEntry],
            render: Callable[[Iterable[CorpusEntry]], Iterable[str]], done: str) -> int:
    """Write ``render`` of ``entries``, read from ``--input``, to ``--output`` one at a time.

    A TableTriplesError names the input, unless it names a file already, as
    a decode error does with its line.
    """
    entries = _Counted(entries)
    try:
        _atomic_write(args.output, render(entries))
    except TableTriplesError as exc:
        raise located(exc, args.input)
    _note(f"{done.format(entries.count)} -> {args.output}")
    return 0


def _linearized(entries: Iterable[CorpusEntry]) -> Iterator[str]:
    return (formats.linearize(entry.triples) + "\n" for entry in entries)


# --- stage table ------------------------------------------------------------

class Kind(NamedTuple):
    """How a flag is parsed from the command line and from a ``--config`` value."""
    argparse: dict  # add_argument keywords
    want: str  # what a config value must be
    fits: Callable[[object], bool]  # whether a config value is that


STRING = Kind({}, "a string", lambda v: isinstance(v, str))
INT = Kind({"type": int}, "an integer", lambda v: type(v) is int)  # a bool is no int
FLOAT = Kind({"type": float}, "a number", lambda v: type(v) in (int, float))
SWITCH = Kind({"action": "store_true"}, "true or false", lambda v: type(v) is bool)
PATHS = Kind({"nargs": "+"}, "a non-empty list of strings",
             lambda v: type(v) is list and v != [] and all(isinstance(p, str) for p in v))


class Flag(NamedTuple):
    name: str  # without the leading dashes
    help: str | None = None
    kind: Kind = STRING
    default: object = None
    required: bool = False  # checked after --config is merged, not by argparse


class Stage(NamedTuple):
    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    flags: tuple[Flag, ...]  # in --help order


TABLES = Flag("tables", "tables JSONL", required=True)
ANNOTATIONS = Flag("annotations", "annotations JSONL", required=True)
SEED = Flag("seed", "random seed (required)", INT, required=True)
CATEGORY = Flag("category", default="MISC")
ENTRIES_IN = Flag("input", "entries JSONL", required=True)
ENTRIES_OUT = Flag("output", "entries JSONL path", required=True)

STAGES = {stage.name: stage for stage in (
    Stage("ingest-tables", "read CSV/TSV tables plus metadata sidecars", cmd_ingest_tables, (
        Flag("input", "table files or directories", PATHS, required=True),
        Flag("output", "tables JSONL path", required=True))),
    Stage("validate-ontology", "check annotations build valid trees", cmd_validate_ontology, (
        TABLES, ANNOTATIONS, Flag("output", "report JSON path (default: stdout)"))),
    Stage("sample", "sample connected components per table row", cmd_sample, (
        TABLES, ANNOTATIONS, SEED,
        Flag("size-min", kind=INT, default=2), Flag("size-max", kind=INT, default=5),
        Flag("p-min", kind=FLOAT, default=0.5), Flag("p-max", kind=FLOAT, default=0.7),
        Flag("max-rows-per-table", kind=INT),
        Flag("output", "components JSONL path", required=True))),
    Stage("extract", "turn components plus sentences into entries", cmd_extract, (
        TABLES, ANNOTATIONS, Flag("components", "components JSONL", required=True),
        Flag("sentences", "sentences JSONL", required=True), CATEGORY, ENTRIES_OUT)),
    Stage("convert-e2e", "convert meaning representations from CSV", cmd_convert_e2e, (
        Flag("input", "CSV with columns mr, ref", required=True), CATEGORY, ENTRIES_OUT)),
    Stage("ingest-webnlg", "ingest an XML entry document", cmd_ingest_webnlg, (
        Flag("input", "XML document", required=True), ENTRIES_OUT)),
    Stage("align-wikisql", "align question/SQL records onto table rows", cmd_align_wikisql, (
        Flag("input", "JSONL of {question, sql, table_id, answer, ...}", required=True),
        TABLES, ANNOTATIONS, Flag("qa2d", "JSON map question_id -> declarative sentence"),
        CATEGORY, ENTRIES_OUT)),
    Stage("unify", "canonicalize predicates with a mapping table", cmd_unify, (
        ENTRIES_IN, Flag("map", "two-column TSV (raw, canonical)", required=True),
        Flag("report-unmapped", "write distinct unmapped predicates here"), ENTRIES_OUT)),
    Stage("split", "similarity-controlled train/dev/test split", cmd_split, (
        TABLES, Flag("threshold", kind=FLOAT, default=0.5),
        Flag("test-seed-frac", kind=FLOAT, default=0.1),
        Flag("dev-seed-frac", kind=FLOAT, default=0.1),
        SEED, Flag("output", "TSV (table_id, split) path", required=True))),
    Stage("stats", "corpus statistics", cmd_stats, (
        Flag("input", "entries JSONL file(s)", PATHS, required=True),
        Flag("by-partition", "also report per provenance partition", SWITCH, default=False),
        Flag("json-out", "also write statistics as JSON"))),
    # looked up as each stage runs, so a replaced module attribute is what runs
    Stage("export-xml", "write entries as an XML document",
          lambda args: _render(args, formats.read_entries_file(args.input), formats.write_xml,
                               "exported {} entries"), (
        ENTRIES_IN, Flag("output", "XML path", required=True))),
    Stage("linearize", "render triplesets as marker strings",
          lambda args: _render(args, formats.read_entries_file(args.input), _linearized,
                               "linearized {} triplesets"), (
        ENTRIES_IN, Flag("output", "text path, one tripleset per line", required=True))),
)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Build data-to-text corpora from annotated tables and "
                    "external sources.",
    )
    parser.add_argument("--config", help="JSON config file; its values override flags")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES.values():
        p = sub.add_parser(stage.name, help=stage.help)
        for flag in stage.flags:
            p.add_argument("--" + flag.name, help=flag.help, default=flag.default,
                           **flag.kind.argparse)
    return parser


def _configure(args: argparse.Namespace, stage: Stage) -> None:
    """Merge the ``--config`` values into ``args``, then check the required flags."""
    flags = {flag.name.replace("-", "_"): flag for flag in stage.flags}  # by argparse dest
    if args.config:
        config = read_json(args.config)
        if not isinstance(config, dict):
            raise TableTriplesError(f"{args.config}: config must be a JSON object")
        for key, value in config.items():
            dest = key.replace("-", "_")
            flag = flags.get(dest)
            if flag is None:
                raise TableTriplesError(f"{args.config}: {stage.name} has no option {key!r}")
            if not flag.kind.fits(value):
                raise TableTriplesError(
                    f"{args.config}: {key!r} must be {flag.kind.want}, got {value!r}")
            convert = flag.kind.argparse.get("type")
            setattr(args, dest, convert(value) if convert else value)
    for dest, flag in flags.items():
        if flag.required and getattr(args, dest) is None:
            raise TableTriplesError(f"--{flag.name} is required")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stage = STAGES[args.command]
    try:
        _configure(args, stage)
        status = stage.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:  # stdout's reader is gone; point stdout away so exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, *RECORD_ERRORS) as exc:
        return _fail(args.command, exc)


if __name__ == "__main__":
    sys.exit(main())
