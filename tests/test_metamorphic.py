"""Stage-level properties, each run through ``cli.main``.

Reordering the records of a stage's input reorders its output and changes
nothing else; ``unify`` on its own output, and a second ``export-xml`` then
``ingest-webnlg`` round, change no byte. Each record-writing stage's note
counts the records its output holds, and ``splits.tsv`` has one line per
table. Each property runs on the fixtures and on a 16-table corpus made by
the benchmark's seeded input generator, which is imported and not changed.
"""

import csv
import json
import random
import sys
from collections import Counter
from pathlib import Path
from xml.etree import ElementTree

import pytest

from conftest import FIXTURES
from tabletriples.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402


def run(*argv: object) -> None:
    assert main([str(a) for a in argv]) == 0


def sample(tables: Path, annotations: Path, output: Path) -> None:
    run("sample", "--tables", tables, "--annotations", annotations, "--seed", 7,
        "--output", output)


def extract(corpus: dict[str, Path], components: Path, output: Path) -> None:
    run("extract", "--tables", corpus["tables"], "--annotations", corpus["annotations"],
        "--components", components, "--sentences", corpus["sentences"], "--output", output)


def shuffled(path: Path, output: Path) -> Path:
    """``path``'s lines in a seeded order that is not their own, written to ``output``."""
    lines = path.read_text(encoding="utf-8-sig").splitlines()
    order = random.Random(len(lines)).sample(lines, len(lines))
    assert order != lines
    output.write_text("".join(line + "\n" for line in order), encoding="utf-8")
    return output


def lines(path: Path) -> Counter[str]:
    return Counter(path.read_text(encoding="utf-8").splitlines())


def without_eids(path: Path) -> Counter[str]:
    records = (json.loads(line) for line in path.read_text(encoding="utf-8").splitlines())
    return Counter(json.dumps({**r, "eid": None}, sort_keys=True) for r in records)


def table_files(tables: Path, directory: Path) -> Path:
    """``directory``, holding each table of the JSONL file ``tables`` as CSV and a sidecar."""
    directory.mkdir()
    for line in tables.read_text(encoding="utf-8").splitlines():
        table = json.loads(line)
        with open(directory / f"{table['id']}.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([table["headers"], *table["rows"]])
        meta = {key: table[key] for key in ("id", "title", "source")}
        (directory / f"{table['id']}.meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return directory


# each input but the tables, by name, and its file in the fixtures
SOURCE_FILES = {"annotations": "annotations.jsonl", "sentences": "sentences.jsonl",
                "map": "predicates.tsv", "e2e": "e2e.csv", "webnlg": "webnlg.xml",
                "wikisql": "wikisql.jsonl", "qa2d": "qa2d.json"}


@pytest.fixture(scope="module", params=["fixtures", "table_corpus"])
def corpus(request, tmp_path_factory) -> dict[str, Path]:
    """The table stages' inputs, and the components, entries and unified entries made of them."""
    w = tmp_path_factory.mktemp(request.param)
    if request.param == "fixtures":
        run("ingest-tables", "--input", FIXTURES / "tables", "--output", w / "tables.jsonl")
        corpus = {name: FIXTURES / file for name, file in SOURCE_FILES.items()}
        corpus.update(tables=w / "tables.jsonl", table_files=FIXTURES / "tables")
    else:
        paths = inputs.generate("table_corpus", 1, w, 20)["paths"]
        corpus = {name: Path(paths[name]) for name in ("tables", *SOURCE_FILES)}
        corpus["table_files"] = table_files(corpus["tables"], w / "table_files")
    corpus.update(components=w / "components.jsonl", entries=w / "entries.jsonl",
                  unified=w / "unified.jsonl")
    sample(corpus["tables"], corpus["annotations"], corpus["components"])
    extract(corpus, corpus["components"], corpus["entries"])
    run("unify", "--input", corpus["entries"], "--map", corpus["map"],
        "--output", corpus["unified"])
    return corpus


def test_reordering_tables_and_annotations_reorders_the_components(corpus, tmp_path):
    sample(shuffled(corpus["tables"], tmp_path / "tables.jsonl"),
           shuffled(corpus["annotations"], tmp_path / "annotations.jsonl"),
           tmp_path / "components.jsonl")
    assert lines(tmp_path / "components.jsonl") == lines(corpus["components"])


def test_reordering_tables_changes_no_split(corpus, tmp_path):
    for tables, output in ((corpus["tables"], tmp_path / "splits.tsv"),
                           (shuffled(corpus["tables"], tmp_path / "tables.jsonl"),
                            tmp_path / "reordered.tsv")):
        run("split", "--tables", tables, "--seed", 3, "--test-seed-frac", 0.2,
            "--dev-seed-frac", 0.2, "--output", output)
    assert (tmp_path / "reordered.tsv").read_bytes() == (tmp_path / "splits.tsv").read_bytes()


def test_reordering_components_reorders_the_entries_but_their_eids(corpus, tmp_path):
    extract(corpus, shuffled(corpus["components"], tmp_path / "components.jsonl"),
            tmp_path / "entries.jsonl")
    assert without_eids(tmp_path / "entries.jsonl") == without_eids(corpus["entries"])


def test_unify_changes_nothing_in_its_own_output(corpus, tmp_path):
    run("unify", "--input", corpus["unified"], "--map", corpus["map"],
        "--output", tmp_path / "unified.jsonl")
    assert (tmp_path / "unified.jsonl").read_bytes() == corpus["unified"].read_bytes()


def test_a_second_xml_round_trip_changes_nothing(corpus, tmp_path):
    entries = [corpus["unified"]]
    for n in range(2):
        run("export-xml", "--input", entries[-1], "--output", tmp_path / f"{n}.xml")
        entries.append(tmp_path / f"{n}.jsonl")
        run("ingest-webnlg", "--input", tmp_path / f"{n}.xml", "--output", entries[-1])
    assert entries[2].read_bytes() == entries[1].read_bytes()  # the first round may lose fields


def held(path: Path) -> int:
    """The records of an output: the ``<entry>`` elements of XML, else its lines."""
    if path.suffix == ".xml":
        return len(ElementTree.parse(path).getroot().findall("entry"))
    return path.read_text(encoding="utf-8").count("\n")  # a JSON string may hold U+2028


@pytest.mark.parametrize("stage", ["ingest-tables", "sample", "extract", "convert-e2e",
                                   "align-wikisql", "ingest-webnlg", "unify", "split",
                                   "export-xml", "linearize"])
def test_each_note_counts_the_records_its_output_holds(corpus, tmp_path, capsys, stage):
    trees = ["--tables", corpus["tables"], "--annotations", corpus["annotations"]]
    flags = {
        "ingest-tables": ["--input", corpus["table_files"]],
        "sample": [*trees, "--seed", 7],
        "extract": [*trees, "--components", corpus["components"],
                    "--sentences", corpus["sentences"]],
        "convert-e2e": ["--input", corpus["e2e"]],
        "align-wikisql": ["--input", corpus["wikisql"], *trees, "--qa2d", corpus["qa2d"]],
        "ingest-webnlg": ["--input", corpus["webnlg"]],
        "unify": ["--input", corpus["entries"], "--map", corpus["map"],
                  "--report-unmapped", tmp_path / "unmapped.txt"],
        "split": ["--tables", corpus["tables"], "--seed", 3, "--test-seed-frac", 0.2,
                  "--dev-seed-frac", 0.2],
        "export-xml": ["--input", corpus["unified"]],
        "linearize": ["--input", corpus["unified"]],
    }[stage]
    output = tmp_path / ("out.xml" if stage == "export-xml" else "out")
    capsys.readouterr()
    run(stage, *flags, "--output", output)
    head, _, tail = capsys.readouterr().err.partition(" -> ")  # "<verb> N <records> -> OUTPUT"
    assert int(head.split()[1]) == held(output) > 0
    assert tail.startswith(str(output))


def test_splits_hold_one_line_per_table(corpus, tmp_path):
    run("split", "--tables", corpus["tables"], "--seed", 3, "--test-seed-frac", 0.2,
        "--dev-seed-frac", 0.2, "--output", tmp_path / "splits.tsv")
    text = (tmp_path / "splits.tsv").read_text(encoding="utf-8")
    fields = [line.split("\t") for line in text.split("\n")]
    assert fields.pop() == [""]  # the last line ends at a newline
    ids = [json.loads(line)["id"] for line in lines(corpus["tables"]).elements()]
    assert sorted(table_id for table_id, _ in fields) == sorted(ids)
    assert {name for _, name in fields} <= {"train", "dev", "test"}
