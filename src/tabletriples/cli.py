"""Command-line pipeline: every stage reads and writes plain files.

Stage boundaries are files on disk (JSONL for tables, components, and
entries; TSV for splits; XML for interchange), so each stage can be run,
inspected, and re-run independently. Stochastic stages take an explicit
--seed and never default it silently; given the same inputs and seed, every
stage is byte-for-byte reproducible. Outputs are written to a temp file and
renamed into place, so a failed run never leaves a half-written artifact.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable

from . import adapters, formats, splits, stats, tables, unify
from .errors import OversizeError, TableTriplesError
from .sampling import SamplerConfig, sample_for_table
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

def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    umask = os.umask(0)  # os.umask is the only way to read it; restore it at once
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates 0600; give the output the mode open() would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_jsonl(path: str | Path) -> list[tuple[str, dict]]:
    """Each non-blank line's JSON object, after its location ``PATH: line N``."""
    records = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}: line {lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TableTriplesError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise TableTriplesError(f"{where}: expected a JSON object")
        records.append((where, record))
    return records


def _field(where: str, record: dict, key: str, *kinds: type, default=...):
    """``record[key]``, or ``default`` if absent; an error at ``where`` if required or mistyped."""
    value = record.get(key, default)
    if type(value) in kinds or value is default and default is not ...:  # a bool is no int
        return value
    if value is ...:
        raise TableTriplesError(f"{where}: missing field {key!r}")
    raise TableTriplesError(f"{where}: field {key!r} must be "
                            f"{' or '.join(k.__name__ for k in kinds)}, got {value!r}")


def _dump_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records)


def _load_by_id(path: str | Path, parse: Callable[[dict], object], id_attr: str) -> dict:
    """A JSONL file's records decoded by ``parse``, keyed by their table id."""
    out = {}
    for where, record in _read_jsonl(path):
        try:
            item = parse(record)
        except TableTriplesError as exc:
            exc.args = (f"{where}: {exc}",)
            raise
        except KeyError as exc:
            raise TableTriplesError(f"{where}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise TableTriplesError(f"{where}: {exc}") from exc
        item_id = getattr(item, id_attr)
        if item_id in out:
            raise TableTriplesError(f"{where}: duplicate record for table id {item_id!r}")
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


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise TableTriplesError(f"--{name.replace('_', '-')} is required")


def _write_highlights(output: str, highlights: Iterable[dict | str], done: str) -> int:
    """Write each highlight's entry (``entry_for_highlight`` kwargs but eid) or count a skip."""
    entries: list[CorpusEntry] = []
    skipped: Counter[str] = Counter()
    for highlight in highlights:
        if isinstance(highlight, str):
            skipped[highlight] += 1
            continue
        try:
            entries.append(entry_for_highlight(eid=f"Id{len(entries) + 1}", **highlight))
        except OversizeError:
            skipped["oversize tripleset"] += 1
    _atomic_write(output, formats.write_entries_jsonl(entries))
    _note(f"{done.format(len(entries))} -> {output} {_skip_tail(skipped)}")
    return 0


# --- stages -----------------------------------------------------------------

def cmd_ingest_tables(args) -> int:
    _require(args, "input", "output")
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
    _require(args, "tables", "annotations")
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
        _atomic_write(args.output, json.dumps(report_doc, indent=2, ensure_ascii=False) + "\n")
    else:
        print(json.dumps(report_doc, indent=2, ensure_ascii=False))
    if problems:
        _note(f"{len(problems)} ontology problems found")
        return 1
    _note(f"all {len(trees.tables)} ontologies valid")
    return 0


def cmd_sample(args) -> int:
    _require(args, "tables", "annotations", "seed", "output")
    config = SamplerConfig(
        size_min=args.size_min, size_max=args.size_max,
        p_min=args.p_min, p_max=args.p_max, seed=args.seed,
    )
    trees = _Trees(args)
    records = []
    for table_id, table in trees.tables.items():
        tree = trees.tree(table)
        n_rows = len(table.rows)
        if args.max_rows_per_table is not None:
            n_rows = min(n_rows, args.max_rows_per_table)
        for row, component in sample_for_table(tree, table_id, list(range(n_rows)), config):
            records.append({
                "table_id": table_id,
                "row_index": row,
                "node_ids": sorted(component.node_ids, key=tables.node_order_key),
                "p_used": component.p_used,
                "target_size": component.target_size,
            })
    _atomic_write(args.output, _dump_jsonl(records))
    _note(f"sampled {len(records)} components -> {args.output}")
    return 0


def cmd_extract(args) -> int:
    _require(args, "tables", "annotations", "components", "sentences", "output")
    trees = _Trees(args)
    # each sentence's realization and category, by (table id, row index)
    sentences: dict[tuple[str, int], list[tuple[Realization, str]]] = {}
    defaults = {"text": ..., "annotator": "internal", "comment": "", "category": args.category}
    for where, s in _read_jsonl(args.sentences):
        key = (_field(where, s, "table_id", str), _field(where, s, "row_index", int))
        text, annotator, comment, category = [
            _field(where, s, name, str, default=d) for name, d in defaults.items()]
        sentences.setdefault(key, []).append(
            (Realization(text, Annotator(annotator), comment), category))

    def highlight(where: str, record: dict) -> dict | str:
        table_id = _field(where, record, "table_id", str)
        row_index = _field(where, record, "row_index", int)
        table = trees.tables.get(table_id)
        if table is None:
            raise TableTriplesError(f"{where}: component references unknown table {table_id!r}")
        tree = trees.tree(table)
        if not 0 <= row_index < len(table.rows):
            raise TableTriplesError(f"{where}: table {table_id!r} has no row {row_index}")
        texts = sentences.get((table_id, row_index))
        if not texts:
            return "without sentences"
        nodes = _field(where, record, "node_ids", list)
        if not set(map(type, nodes)) <= {int, str}:
            raise TableTriplesError(f"{where}: field 'node_ids' must hold ints and strings")
        return dict(tree=tree, table=table, nodes=frozenset(nodes), row_index=row_index,
                    realizations=[r for r, _ in texts], category=texts[0][1], provenance=table.source)

    components = (highlight(where, record) for where, record in _read_jsonl(args.components))
    return _write_highlights(args.output, components, "extracted {} entries")


def cmd_convert_e2e(args) -> int:
    _require(args, "input", "output")
    entries = []
    skipped: Counter[str] = Counter()
    with open(args.input, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "mr" not in reader.fieldnames or "ref" not in reader.fieldnames:
            raise TableTriplesError(f"{args.input}: expected CSV columns 'mr' and 'ref'")
        for record in reader:
            converted = adapters.e2e_to_tripleset(adapters.parse_mr(record["mr"]))
            if isinstance(converted, adapters.Dropped):
                skipped[converted.reason] += 1
                continue
            realizations = [Realization(text=record["ref"], annotator=Annotator.EXTERNAL_DATASET)]
            entries.append(assemble_entry(converted, realizations, category=args.category,
                                          eid=f"Id{len(entries) + 1}"))
    _atomic_write(args.output, formats.write_entries_jsonl(entries))
    _note(f"converted {len(entries)} MRs -> {args.output} {_skip_tail(skipped)}")
    return 0


def cmd_ingest_webnlg(args) -> int:
    _require(args, "input", "output")
    document = Path(args.input).read_text(encoding="utf-8")
    entries = adapters.webnlg_ingest(document)
    _atomic_write(args.output, formats.write_entries_jsonl(entries))
    _note(f"ingested {len(entries)} entries -> {args.output}")
    return 0


def cmd_align_wikisql(args) -> int:
    _require(args, "input", "tables", "annotations", "output")
    trees = _Trees(args)
    qa2d = json.loads(Path(args.qa2d).read_text(encoding="utf-8")) if args.qa2d else {}

    def highlight(where: str, record: dict) -> dict | str:
        sentence = _field(where, record, "declarative_sentence", str, default=None)
        if not sentence and record.get("question_id") is not None:
            sentence = qa2d.get(str(record["question_id"]))
        if not sentence:
            return "no declarative sentence"
        sql = _field(where, record, "sql", str)
        try:
            query = adapters.parse_sql(sql)
        except TableTriplesError:
            return "unparseable sql"
        if not adapters.filter_sql(query):
            return "aggregate command"
        table = trees.tables.get(_field(where, record, "table_id", str))
        if table is None:
            return "unknown table"
        aligned = adapters.align_row(query, table, str(_field(where, record, "answer", str, int, float)))
        if isinstance(aligned, adapters.Unaligned):
            return f"unaligned: {aligned.reason}"
        if table.id not in trees.annotations:
            return "no ontology annotation"
        realizations = [Realization(text=sentence, annotator=Annotator.AUTO_DECLARATIVE)]
        return dict(tree=trees.tree(table), table=table, nodes=aligned.nodes,
                    row_index=aligned.row_index, realizations=realizations,
                    category=args.category, provenance=Provenance.WIKISQL)

    records = (highlight(where, record) for where, record in _read_jsonl(args.input))
    return _write_highlights(args.output, records, "aligned {} records")


def cmd_unify(args) -> int:
    _require(args, "input", "map", "output")
    pmap = unify.load_predicate_map(args.map)
    entries = formats.read_entries_file(args.input)
    unmapped: set[str] = set()
    unified = [unify.unify_entry(e, pmap, unmapped) for e in entries]
    _atomic_write(args.output, formats.write_entries_jsonl(unified))
    if args.report_unmapped:
        _atomic_write(args.report_unmapped,
                      "".join(p + "\n" for p in sorted(unmapped)))
    _note(f"unified {len(unified)} entries -> {args.output} "
          f"({len(unmapped)} distinct unmapped predicates)")
    return 0


def cmd_split(args) -> int:
    _require(args, "tables", "seed", "output")
    table_map = _load_by_id(args.tables, tables.table_from_dict, "id")
    signatures = [splits.TableSignature.from_table(t) for t in table_map.values()]
    config = splits.SplitConfig(
        threshold=args.threshold,
        test_seed_fraction=args.test_seed_frac,
        dev_seed_fraction=args.dev_seed_frac,
        seed=args.seed,
    )
    assignment = splits.split(signatures, config)
    lines = [f"{table_id}\t{name.value}\n" for table_id, name in sorted(assignment.items())]
    _atomic_write(args.output, "".join(lines))
    counts = {name.value: 0 for name in splits.SplitName}
    for name in assignment.values():
        counts[name.value] += 1
    _note(f"split {len(assignment)} tables -> {args.output} ({counts})")
    return 0


def cmd_stats(args) -> int:
    _require(args, "input")
    entries: list[CorpusEntry] = []
    for path in args.input:
        entries.extend(formats.read_entries_file(path))
    overall = stats.compute_stats(entries)
    blocks = [stats.format_stats(overall, heading="all")]
    doc: dict = {"all": overall.to_dict()}
    if args.by_partition:
        partitions: dict[str, list[CorpusEntry]] = {}
        for entry in entries:
            partitions.setdefault(entry.tripleset.provenance.value, []).append(entry)
        doc["partitions"] = {}
        for name in sorted(partitions):
            part_stats = stats.compute_stats(partitions[name])
            blocks.append(stats.format_stats(part_stats, heading=name))
            doc["partitions"][name] = part_stats.to_dict()
    print("\n\n".join(blocks))
    if args.json_out:
        _atomic_write(args.json_out, json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    return 0


def cmd_export_xml(args) -> int:
    _require(args, "input", "output")
    entries = formats.read_entries_file(args.input)
    _atomic_write(args.output, formats.write_xml(entries))
    _note(f"exported {len(entries)} entries -> {args.output}")
    return 0


def cmd_linearize(args) -> int:
    _require(args, "input", "output")
    entries = formats.read_entries_file(args.input)
    lines = [formats.linearize(e.tripleset) + "\n" for e in entries]
    _atomic_write(args.output, "".join(lines))
    _note(f"linearized {len(entries)} triplesets -> {args.output}")
    return 0


# --- argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Build data-to-text corpora from annotated tables and "
                    "external sources.",
    )
    parser.add_argument("--config", help="JSON config file; its values override flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-tables", help="read CSV/TSV tables plus metadata sidecars")
    p.add_argument("--input", nargs="+", help="table files or directories")
    p.add_argument("--output", help="tables JSONL path")
    p.set_defaults(func=cmd_ingest_tables)

    p = sub.add_parser("validate-ontology", help="check annotations build valid trees")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--annotations", help="annotations JSONL")
    p.add_argument("--output", help="report JSON path (default: stdout)")
    p.set_defaults(func=cmd_validate_ontology)

    p = sub.add_parser("sample", help="sample connected components per table row")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--annotations", help="annotations JSONL")
    p.add_argument("--seed", type=int, help="random seed (required)")
    p.add_argument("--size-min", type=int, default=2)
    p.add_argument("--size-max", type=int, default=5)
    p.add_argument("--p-min", type=float, default=0.5)
    p.add_argument("--p-max", type=float, default=0.7)
    p.add_argument("--max-rows-per-table", type=int, default=None)
    p.add_argument("--output", help="components JSONL path")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("extract", help="turn components plus sentences into entries")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--annotations", help="annotations JSONL")
    p.add_argument("--components", help="components JSONL")
    p.add_argument("--sentences", help="sentences JSONL")
    p.add_argument("--category", default="MISC")
    p.add_argument("--output", help="entries JSONL path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("convert-e2e", help="convert meaning representations from CSV")
    p.add_argument("--input", help="CSV with columns mr, ref")
    p.add_argument("--category", default="MISC")
    p.add_argument("--output", help="entries JSONL path")
    p.set_defaults(func=cmd_convert_e2e)

    p = sub.add_parser("ingest-webnlg", help="ingest an XML entry document")
    p.add_argument("--input", help="XML document")
    p.add_argument("--output", help="entries JSONL path")
    p.set_defaults(func=cmd_ingest_webnlg)

    p = sub.add_parser("align-wikisql", help="align question/SQL records onto table rows")
    p.add_argument("--input", help="JSONL of {question, sql, table_id, answer, ...}")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--annotations", help="annotations JSONL")
    p.add_argument("--qa2d", help="JSON map question_id -> declarative sentence")
    p.add_argument("--category", default="MISC")
    p.add_argument("--output", help="entries JSONL path")
    p.set_defaults(func=cmd_align_wikisql)

    p = sub.add_parser("unify", help="canonicalize predicates with a mapping table")
    p.add_argument("--input", help="entries JSONL")
    p.add_argument("--map", help="two-column TSV (raw, canonical)")
    p.add_argument("--report-unmapped", help="write distinct unmapped predicates here")
    p.add_argument("--output", help="entries JSONL path")
    p.set_defaults(func=cmd_unify)

    p = sub.add_parser("split", help="similarity-controlled train/dev/test split")
    p.add_argument("--tables", help="tables JSONL")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--test-seed-frac", type=float, default=0.1)
    p.add_argument("--dev-seed-frac", type=float, default=0.1)
    p.add_argument("--seed", type=int, help="random seed (required)")
    p.add_argument("--output", help="TSV (table_id, split) path")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--input", nargs="+", help="entries JSONL file(s)")
    p.add_argument("--by-partition", action="store_true",
                   help="also report per provenance partition")
    p.add_argument("--json-out", help="also write statistics as JSON")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export-xml", help="write entries as an XML document")
    p.add_argument("--input", help="entries JSONL")
    p.add_argument("--output", help="XML path")
    p.set_defaults(func=cmd_export_xml)

    p = sub.add_parser("linearize", help="render triplesets as marker strings")
    p.add_argument("--input", help="entries JSONL")
    p.add_argument("--output", help="text path, one tripleset per line")
    p.set_defaults(func=cmd_linearize)

    return parser


def _config_mismatch(action: argparse.Action, value) -> str | None:
    """What the flag behind ``action`` takes, if a JSON config ``value`` is not that."""
    if action.nargs == 0:  # store_true
        fits, want = isinstance(value, bool), "true or false"
    elif action.nargs == "+":
        fits = isinstance(value, list) and bool(value) and all(isinstance(v, str) for v in value)
        want = "a non-empty list of strings"
    elif action.type is int:
        fits, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif action.type is float:
        fits, want = isinstance(value, (int, float)) and not isinstance(value, bool), "a number"
    else:
        fits, want = isinstance(value, str), "a string"
    return None if fits else want


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise TableTriplesError(f"{args.config}: config must be a JSON object")
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        a.dest: a for a in subparsers.choices[args.command]._actions
        if a.option_strings and a.dest != "help"
    }
    for key, value in config.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise TableTriplesError(f"{args.config}: {args.command} has no option {key!r}")
        want = _config_mismatch(action, value)
        if want:
            raise TableTriplesError(f"{args.config}: {key!r} must be {want}, got {value!r}")
        setattr(args, action.dest, action.type(value) if action.type else value)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        return args.func(args)
    except (TableTriplesError, OSError, KeyError, ValueError) as exc:
        return _fail(args.command, exc)


if __name__ == "__main__":
    sys.exit(main())
