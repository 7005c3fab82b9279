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
Each ``cmd_*`` returns its stderr note (``stats``, which writes to stdout,
returns None) or raises; ``main`` alone prints the note or the JSON error
report, and chooses the exit status.
Each stage runs in its own process, which without cached bytecode compiles
every module it imports, so start-up loads only ``entries``, ``formats``,
``files`` and ``errors``. A module that only some stages use (adapters,
sampling, splits, stats, unify, tables, triples, xmlcodec, and tablestages,
the table stages' bodies) is imported inside their ``cmd_*`` functions, and
``csv`` inside ``files.read_csv``. No value type is a dataclass, so no
stage imports ``dataclasses`` or the ``inspect`` and ``ast`` that it loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from . import formats
from .entries import Annotator, CorpusEntry, Provenance, Realization
from .errors import BoundError, OversizeError, TableTriplesError, located
from .files import field, lone_surrogate, read_blocks, read_csv, read_json, read_lines
from .files import write_atomic as _atomic_write  # perfbench's tracer times these two
from .formats import write_jsonl as _dump_jsonl  # by these names

PROG = "tabletriples"


# --- plumbing ---------------------------------------------------------------

def _read_jsonl(path: str | Path, decode: Callable | None = None) -> Iterator[tuple[int, object]]:
    """``formats.read_jsonl`` over the file at ``path``, which is opened now."""
    return formats.read_jsonl(read_lines(path), path, decode)


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
    """A JSONL file's records decoded by ``parse``, each after its line number, by table id."""
    out = {}
    for lineno, item in _read_jsonl(path, parse):
        item_id = getattr(item, id_attr)
        if item_id in out:
            raise located(TableTriplesError(f"duplicate record for table id {item_id!r}"),
                          path, lineno)
        out[item_id] = lineno, item
    return out


def _skip_tail(skipped: Counter[str]) -> str:
    """``(skipped: 2 reason, 1 other reason)`` in reason order, or ``(skipped: none)``."""
    counts = ", ".join(f"{n} {reason}" for reason, n in sorted(skipped.items()))
    return f"(skipped: {counts or 'none'})"


def _write_entries(output: str, path: str, records: Iterable[tuple[int, dict]],
                   entry: Callable[[dict, str], str | CorpusEntry], done: str) -> str:
    """Write the entry of each ``(line number, record)`` of ``path``, or count its skip.

    ``entry(record, eid)`` gives a skip reason or the entry with that eid; a
    tripleset over the size limit is the skip ``oversize tripleset``, and any
    other error it raises is located at the record's line. Each entry is
    written as it is made. Returns the stage's note, with the skip counts.
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
            except TableTriplesError as exc:
                raise located(exc, path, lineno)
            if isinstance(built, str):
                skipped[built] += 1
            else:
                written += 1
                yield built

    _atomic_write(output, formats.write_entries_jsonl(entries()))
    return f"{done.format(written)} -> {output} {_skip_tail(skipped)}"


# --- stages -----------------------------------------------------------------

def _table_stage(args) -> str:
    """Run the table stage ``args.command``, whose body is in ``tablestages``, imported now."""
    from . import tablestages

    return getattr(tablestages, "cmd_" + args.command.replace("-", "_"))(args)


def cmd_convert_e2e(args) -> str:
    from . import adapters
    from .triples import assemble_entry

    rows = read_csv(args.input)
    _, header = next(rows, (None, None))
    if header is None or "mr" not in header or "ref" not in header:
        raise located(TableTriplesError("expected CSV columns 'mr' and 'ref'"), args.input)

    def converted(cells: list[str], eid: str) -> str | CorpusEntry:
        if len(cells) > len(header):
            raise TableTriplesError(f"row has {len(cells)} cells "
                                    f"but the header has {len(header)}")
        record = dict(zip(header, cells))
        mr, ref = field(record, "mr", str), field(record, "ref", str)
        triples = adapters.e2e_to_tripleset(adapters.parse_mr(mr))
        if isinstance(triples, adapters.Dropped):
            return triples.reason
        realizations = [Realization(text=ref, annotator=Annotator.EXTERNAL_DATASET)]
        return assemble_entry(triples, realizations, args.category, eid, Provenance.E2E)

    return _write_entries(args.output, args.input, ((n, cells) for n, cells in rows if cells),
                          converted, "converted {} MRs")


def cmd_ingest_webnlg(args) -> str:
    from . import adapters

    return _render(args, adapters.webnlg_ingest(read_blocks(args.input)),
                   formats.write_entries_jsonl, "ingested {} entries")


def cmd_unify(args) -> str:
    from . import unify

    pmap = unify.load_predicate_map(args.map)
    entries = _Counted(formats.read_entries_file(*args.input))
    unmapped: set[str] = set()
    unified = (unify.unify_entry(entry, pmap, unmapped) for entry in entries)

    def report() -> Iterator[str]:  # asked for once every entry is written
        for predicate in sorted(unmapped):
            yield predicate + "\n"

    reports = [(args.report_unmapped, report())] if args.report_unmapped else []
    _atomic_write(args.output, formats.write_entries_jsonl(unified), *reports)
    return (f"unified {entries.count} entries -> {args.output} "
            f"({len(unmapped)} distinct unmapped predicates)")


def cmd_split(args) -> str:
    from . import splits, tables

    config = splits.SplitConfig(
        threshold=args.threshold,
        test_seed_fraction=args.test_seed_frac,
        dev_seed_fraction=args.dev_seed_frac,
        seed=args.seed,
    )
    # each table's signature, made as its line is read, so no table's rows are kept
    loaded = _load_by_id(
        args.tables, lambda r: splits.TableSignature.from_table(tables.table_from_dict(r)),
        "table_id")
    signatures = [signature for _, signature in loaded.values()]
    try:
        assignment = splits.split(signatures, config)
    except TableTriplesError as exc:
        raise located(exc, args.tables)
    _atomic_write(args.output, [f"{table_id}\t{name.value}\n"
                                for table_id, name in sorted(assignment.items())])
    counts = {name.value: 0 for name in splits.SplitName}
    for name in assignment.values():
        counts[name.value] += 1
    return f"split {len(assignment)} tables -> {args.output} ({counts})"


def cmd_stats(args) -> None:
    from . import stats

    entries = formats.read_entries_file(*args.input)
    partitions: dict[str, stats.CorpusStats] = {}
    if args.by_partition:
        overall, partitions = stats.compute_stats(entries, key=lambda e: e.provenance.value)
    else:
        overall = stats.compute_stats(entries)
    blocks = [stats.format_stats(overall, heading="all")]
    blocks += [stats.format_stats(part, heading=name) for name, part in partitions.items()]
    doc: dict = {"all": overall._asdict()}
    if args.by_partition:
        doc["partitions"] = {name: part._asdict() for name, part in partitions.items()}
    print("\n\n".join(blocks))
    if args.json_out:
        _atomic_write(args.json_out, [_dump_json(doc) + "\n"])


def _render(args, entries: Iterable[CorpusEntry],
            render: Callable[[Iterable[CorpusEntry]], Iterable[str]], done: str) -> str:
    """Write ``render`` of ``entries``, read from ``--input``, to ``--output`` one at a time.

    A TableTriplesError names the input, unless it names a file already, as
    a decode error does with its line. Returns the stage's note.
    """
    entries = _Counted(entries)
    try:
        _atomic_write(args.output, render(entries))
    except TableTriplesError as exc:
        raise located(exc, args.input)
    return f"{done.format(entries.count)} -> {args.output}"


def cmd_export_xml(args) -> str:
    from . import xmlcodec

    return _render(args, formats.read_entries_file(args.input), xmlcodec.write_xml,
                   "exported {} entries")


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
    run: Callable[[argparse.Namespace], str | None]  # the stage's stderr note
    flags: tuple[Flag, ...]  # in --help order


TABLES = Flag("tables", "tables JSONL", required=True)
ANNOTATIONS = Flag("annotations", "annotations JSONL", required=True)
SEED = Flag("seed", "random seed (required)", INT, required=True)
CATEGORY = Flag("category", default="MISC")
ENTRIES_IN = Flag("input", "entries JSONL", required=True)
ENTRIES_INPUTS = Flag("input", "entries JSONL file(s)", PATHS, required=True)  # read in order
ENTRIES_OUT = Flag("output", "entries JSONL path", required=True)

STAGES = {stage.name: stage for stage in (
    Stage("ingest-tables", "read CSV/TSV tables plus metadata sidecars", _table_stage, (
        Flag("input", "table files or directories", PATHS, required=True),
        Flag("output", "tables JSONL path", required=True))),
    Stage("validate-ontology", "check annotations build valid trees", _table_stage, (
        TABLES, ANNOTATIONS, Flag("output", "report JSON path (default: stdout)"))),
    Stage("sample", "sample connected components per table row", _table_stage, (
        TABLES, ANNOTATIONS, SEED,
        Flag("size-min", kind=INT, default=2), Flag("size-max", kind=INT, default=5),
        Flag("p-min", kind=FLOAT, default=0.5), Flag("p-max", kind=FLOAT, default=0.7),
        Flag("max-rows-per-table", kind=INT),
        Flag("output", "components JSONL path", required=True))),
    Stage("extract", "turn components plus sentences into entries", _table_stage, (
        TABLES, ANNOTATIONS, Flag("components", "components JSONL", required=True),
        Flag("sentences", "sentences JSONL", required=True), CATEGORY, ENTRIES_OUT)),
    Stage("convert-e2e", "convert meaning representations from CSV", cmd_convert_e2e, (
        Flag("input", "CSV with columns mr, ref", required=True), CATEGORY, ENTRIES_OUT)),
    Stage("ingest-webnlg", "ingest an XML entry document", cmd_ingest_webnlg, (
        Flag("input", "XML document", required=True), ENTRIES_OUT)),
    Stage("align-wikisql", "align question/SQL records onto table rows", _table_stage, (
        Flag("input", "JSONL of {question, sql, table_id, answer, ...}", required=True),
        TABLES, ANNOTATIONS, Flag("qa2d", "JSON map question_id -> declarative sentence"),
        CATEGORY, ENTRIES_OUT)),
    Stage("unify", "canonicalize predicates with a mapping table", cmd_unify, (
        ENTRIES_INPUTS, Flag("map", "two-column TSV (raw, canonical)", required=True),
        Flag("report-unmapped", "write distinct unmapped predicates here"), ENTRIES_OUT)),
    Stage("split", "similarity-controlled train/dev/test split", cmd_split, (
        TABLES, Flag("threshold", kind=FLOAT, default=0.5),
        Flag("test-seed-frac", kind=FLOAT, default=0.1),
        Flag("dev-seed-frac", kind=FLOAT, default=0.1),
        SEED, Flag("output", "TSV (table_id, split) path", required=True))),
    Stage("stats", "corpus statistics", cmd_stats, (
        ENTRIES_INPUTS,
        Flag("by-partition", "also report per provenance partition", SWITCH, default=False),
        Flag("json-out", "also write statistics as JSON"))),
    Stage("export-xml", "write entries as an XML document", cmd_export_xml, (
        ENTRIES_IN, Flag("output", "XML path", required=True))),
    # looked up as the stage runs, so a replaced module attribute is what runs
    Stage("linearize", "render triplesets as marker strings",
          lambda args: _render(args, formats.read_entries_file(args.input), _linearized,
                               "linearized {} triplesets"), (
        ENTRIES_IN, Flag("output", "text path, one tripleset per line", required=True))),
)}


def __getattr__(name: str):
    if name == "complete_subtree":  # perfbench's tracer test looks it up on this module
        from .triples import complete_subtree
        return complete_subtree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _configure(args: argparse.Namespace, stage: Stage) -> set[str]:
    """Merge the ``--config`` values into ``args``, then check the required flags and category.

    Returns the flags that the config file set, as ``--name``.
    """
    flags = {flag.name.replace("-", "_"): flag for flag in stage.flags}  # by argparse dest
    configured = set()
    if args.config:
        config = read_json(args.config)
        if not isinstance(config, dict):
            raise located(TableTriplesError("config must be a JSON object"), args.config)
        for key, value in config.items():
            dest = key.replace("-", "_")
            flag = flags.get(dest)
            if flag is None:
                raise located(TableTriplesError(f"{stage.name} has no option {key!r}"),
                              args.config)
            if not flag.kind.fits(value):
                raise located(TableTriplesError(f"{key!r} must be {flag.kind.want}, got {value!r}"),
                              args.config)
            convert = flag.kind.argparse.get("type")
            setattr(args, dest, convert(value) if convert else value)
            configured.add("--" + flag.name)
    for dest, flag in flags.items():
        if flag.required and getattr(args, dest) is None:
            raise TableTriplesError(f"--{flag.name} is required")
    # every entry carries the category, and a byte that is not UTF-8 in argv reads as a surrogate
    if "category" in flags and (lone := lone_surrogate(args.category)):
        raise TableTriplesError(f"--category: {lone}")
    return configured


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    stage = STAGES[args.command]
    configured: set[str] = set()
    try:
        configured = _configure(args, stage)
        note = stage.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except BrokenPipeError:  # stdout's reader is gone; point stdout away so exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, TableTriplesError) as exc:
        if isinstance(exc, BoundError) and str(exc).split(" ", 1)[0] in configured:
            exc = located(exc, args.config)  # a BoundError's message starts with its flag
        report = {"error": type(exc).__name__, "stage": args.command, "message": str(exc)}
        print(json.dumps(report, ensure_ascii=False), file=sys.stderr)
        return 1
    if note is not None:
        print(note, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
