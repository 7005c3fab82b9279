import csv
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import tabletriples
from conftest import FIXTURES
from tabletriples.cli import main
from tabletriples.formats import read_entries_file
from tabletriples.triples import Annotator, Provenance
from test_formats import xml_entries_of

ANNOTATOR_NOT_MEMBER = ("field 'annotator' must be one of 'internal', 'mturk', "
                        "'auto_declarative', 'external_dataset', got 'bogus'")


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


# the package's checkout, for a stage run in a fresh process
SRC = str(Path(tabletriples.__file__).resolve().parent.parent)


def run(*argv: str) -> int:
    return main([str(a) for a in argv])


def run_to_a_closed_stdout(*argv, unbuffered: bool = False) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh process whose stdout's reader is gone before it starts."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "tabletriples", *map(str, argv)],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)


def ingest(workdir) -> Path:
    out = workdir / "tables.jsonl"
    assert run("ingest-tables", "--input", FIXTURES / "tables", "--output", out) == 0
    return out


class TestIngestAndValidate:
    def test_ingest_tables(self, workdir):
        out = ingest(workdir)
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert [r["id"] for r in records] == [f"t{i:02d}" for i in range(1, 11)]

    def test_validate_ok(self, workdir, capsys):
        tables = ingest(workdir)
        report = workdir / "report.json"
        code = run("validate-ontology", "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--output", report)
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["tables_checked"] == 10
        assert doc["problems"] == []

    def test_validate_cyclic_names_table(self, workdir):
        tables = ingest(workdir)
        report = workdir / "report.json"
        annotations = FIXTURES / "annotations_cyclic.jsonl"
        code = run("validate-ontology", "--tables", tables,
                   "--annotations", annotations, "--output", report)
        assert code == 1
        assert json.loads(report.read_text())["problems"] == [
            {"table_id": "t01", "kind": "CycleError",
             "detail": f"{annotations}: line 1: table t01: cycle reached from nodes [0, 1]"}]

    def test_validate_without_output_writes_the_report_to_stdout(self, workdir, capsys):
        tables = ingest(workdir)
        capsys.readouterr()
        assert run("validate-ontology", "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl") == 0
        shown = capsys.readouterr()
        assert json.loads(shown.out) == {"tables_checked": 10, "problems": []}
        assert shown.err == "all 10 ontologies valid\n"

    def test_validate_with_problems_exits_1_with_an_error_report(self, workdir, capsys):
        tables = ingest(workdir)
        annotations = FIXTURES / "annotations_cyclic.jsonl"
        capsys.readouterr()
        assert run("validate-ontology", "--tables", tables, "--annotations", annotations) == 1
        shown = capsys.readouterr()
        [problem] = json.loads(shown.out)["problems"]
        assert (problem["table_id"], problem["kind"]) == ("t01", "CycleError")
        assert json.loads(shown.err) == {
            "error": "TableTriplesError", "stage": "validate-ontology",
            "message": f"{annotations}: 1 ontology problems found"}

    @pytest.mark.parametrize("parents", ["ROOT", {"ROOT": 5, "TITLE": 7}])
    def test_validate_rejects_parents_that_are_no_list(self, workdir, capsys, parents):
        tables = ingest(workdir)
        annotations = workdir / "annotations.jsonl"
        annotations.write_text(json.dumps({"table_id": "t01", "parents": parents}) + "\n",
                               encoding="utf-8")
        code = run("validate-ontology", "--tables", tables, "--annotations", annotations)
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "ParseError", "stage": "validate-ontology",
                          "message": f"{annotations}: line 1: "
                                     f"field 'parents' must be a list, got {parents!r}"}


def sample_and_extract(workdir, seed=7) -> Path:
    tables = ingest(workdir)
    components = workdir / "components.jsonl"
    assert run("sample", "--tables", tables,
               "--annotations", FIXTURES / "annotations.jsonl",
               "--seed", seed, "--size-min", 5, "--size-max", 5,
               "--max-rows-per-table", 1,
               "--output", components) == 0
    entries = workdir / "entries.jsonl"
    assert run("extract", "--tables", tables,
               "--annotations", FIXTURES / "annotations.jsonl",
               "--components", components,
               "--sentences", FIXTURES / "sentences.jsonl",
               "--output", entries) == 0
    return entries


class TestSampleAndExtract:
    def test_sample_deterministic(self, workdir):
        tables = ingest(workdir)
        out1, out2 = workdir / "c1.jsonl", workdir / "c2.jsonl"
        for out in (out1, out2):
            assert run("sample", "--tables", tables,
                       "--annotations", FIXTURES / "annotations.jsonl",
                       "--seed", 7, "--output", out) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sample_seed_required(self, workdir):
        tables = ingest(workdir)
        code = run("sample", "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--output", workdir / "c.jsonl")
        assert code == 1

    def test_sample_row_limit_zero_samples_nothing(self, workdir):
        tables = ingest(workdir)
        out = workdir / "c.jsonl"
        assert run("sample", "--tables", tables, "--annotations", FIXTURES / "annotations.jsonl",
                   "--seed", 7, "--max-rows-per-table", 0, "--output", out) == 0
        assert out.read_text() == ""

    def test_sample_different_seeds_differ(self, workdir):
        tables = ingest(workdir)
        out1, out2 = workdir / "c1.jsonl", workdir / "c2.jsonl"
        run("sample", "--tables", tables, "--annotations",
            FIXTURES / "annotations.jsonl", "--seed", 7, "--output", out1)
        run("sample", "--tables", tables, "--annotations",
            FIXTURES / "annotations.jsonl", "--seed", 8, "--output", out2)
        assert out1.read_bytes() != out2.read_bytes()

    def test_line_separator_characters_inside_a_record(self, workdir):
        # json.dumps(ensure_ascii=False) leaves U+0085, U+2028 and U+2029 raw
        tables = ingest(workdir)
        records = [json.loads(line) for line in tables.read_text(encoding="utf-8").splitlines()]
        records[0]["title"] = "A\u2028B\x85C\u2029D"
        tables.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                          encoding="utf-8")
        assert run("sample", "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--seed", 7, "--output", workdir / "components.jsonl") == 0

    def test_extract_entries(self, workdir):
        entries = list(read_entries_file(sample_and_extract(workdir)))
        assert len(entries) == 10
        assert [e.eid for e in entries] == [f"Id{i}" for i in range(1, 11)]
        by_table = {e.table_id: e for e in entries}
        assert len(by_table["t01"].triples) == 2
        assert len(by_table["t10"].triples) == 5
        assert by_table["t06"].provenance is Provenance.WIKISQL
        assert by_table["t03"].realizations[0].annotator is Annotator.MTURK

    def test_extract_byte_deterministic(self, workdir, tmp_path_factory):
        other = tmp_path_factory.mktemp("again")
        a = sample_and_extract(workdir).read_bytes()
        b = sample_and_extract(other).read_bytes()
        assert a == b


class TestAdaptersCli:
    def test_convert_e2e(self, workdir):
        out = workdir / "e2e.jsonl"
        assert run("convert-e2e", "--input", FIXTURES / "e2e.csv", "--output", out) == 0
        entries = list(read_entries_file(out))
        assert len(entries) == 2  # two dropped: no name slot / name only
        assert entries[0].triples[0].subject == "Alimentum"
        assert entries[0].provenance is Provenance.E2E

    def test_ingest_webnlg(self, workdir):
        out = workdir / "webnlg.jsonl"
        assert run("ingest-webnlg", "--input", FIXTURES / "webnlg.xml",
                   "--output", out) == 0
        entries = list(read_entries_file(out))
        assert [e.eid for e in entries] == ["Id5", "Id76"]
        assert all(e.provenance is Provenance.WEBNLG for e in entries)

    def test_align_wikisql(self, workdir):
        tables = ingest(workdir)
        out = workdir / "decl.jsonl"
        assert run("align-wikisql", "--input", FIXTURES / "wikisql.jsonl",
                   "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--qa2d", FIXTURES / "qa2d.json",
                   "--output", out) == 0
        entries = list(read_entries_file(out))
        assert len(entries) == 2  # aggregate + unalignable records skipped
        first = entries[0]
        assert first.table_id == "t06"
        assert first.row_index == 0
        predicates = [t.predicate for t in first.triples]
        assert predicates == ["Year", "City", "Country"]
        assert first.realizations[0].annotator is Annotator.AUTO_DECLARATIVE
        second = entries[1]
        assert second.row_index == 1
        assert second.realizations[0].text == "China hosted the 2008 Olympic Games."


class TestUnifySplitStats:
    def test_unify_reports_unmapped(self, workdir):
        entries = sample_and_extract(workdir)
        out = workdir / "unified.jsonl"
        unmapped = workdir / "unmapped.txt"
        assert run("unify", "--input", entries, "--map", FIXTURES / "predicates.tsv",
                   "--report-unmapped", unmapped, "--output", out) == 0
        unified = list(read_entries_file(out))
        predicates = {t.predicate for e in unified for t in e.triples}
        assert "VENUE" in predicates
        assert "Ground" not in predicates and "Hub" not in predicates
        reported = unmapped.read_text().splitlines()
        assert "Club" in reported and "VENUE" not in reported
        assert reported == sorted(reported)

    def test_split_outputs_tsv(self, workdir):
        tables = ingest(workdir)
        out = workdir / "splits.tsv"
        assert run("split", "--tables", tables, "--seed", 3,
                   "--test-seed-frac", 0.2, "--dev-seed-frac", 0.2,
                   "--output", out) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 10
        assert {r[1] for r in rows} <= {"train", "dev", "test"}
        assert sorted(r[0] for r in rows) == [f"t{i:02d}" for i in range(1, 11)]

    def test_split_seed_required(self, workdir):
        tables = ingest(workdir)
        assert run("split", "--tables", tables, "--output", workdir / "s.tsv") == 1

    def test_stats_json(self, workdir, capsys):
        entries = sample_and_extract(workdir)
        json_out = workdir / "stats.json"
        assert run("stats", "--input", entries, "--by-partition",
                   "--json-out", json_out) == 0
        doc = json.loads(json_out.read_text())
        assert doc["all"]["pair_count"] == 10
        assert set(doc["partitions"]) == {"wikitablequestions", "wikisql"}
        shown = capsys.readouterr().out
        assert "[all]" in shown and "[wikisql]" in shown


class TestExportAndLinearize:
    def test_export_xml_roundtrips(self, workdir):
        entries_path = sample_and_extract(workdir)
        xml_path = workdir / "corpus.xml"
        assert run("export-xml", "--input", entries_path, "--output", xml_path) == 0
        original = list(read_entries_file(entries_path))
        parsed = xml_entries_of(xml_path.read_text(encoding="utf-8"))
        assert parsed == original

    def test_linearize_lines(self, workdir):
        entries_path = sample_and_extract(workdir)
        out = workdir / "linear.txt"
        assert run("linearize", "--input", entries_path, "--output", out) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10
        assert all(line.startswith("<H> ") for line in lines)
        darts = [l for l in lines if "Terry Jenkins" in l]
        assert darts and "<R> [title] <T> Darts Championship" in darts[0]


class TestCliPlumbing:
    def test_config_overrides_flags(self, workdir):
        tables = ingest(workdir)
        config = workdir / "config.json"
        config.write_text(json.dumps({"seed": 7}), encoding="utf-8")
        flagged = workdir / "flagged.jsonl"
        configured = workdir / "configured.jsonl"
        run("sample", "--tables", tables, "--annotations",
            FIXTURES / "annotations.jsonl", "--seed", 7, "--output", flagged)
        run("--config", config, "sample", "--tables", tables, "--annotations",
            FIXTURES / "annotations.jsonl", "--seed", 1234, "--output", configured)
        assert flagged.read_bytes() == configured.read_bytes()

    @pytest.mark.parametrize(
        "config, message",
        [({"sise_min": 2}, "sample has no option 'sise_min'"),
         ({"size_min": "2"}, "'size_min' must be an integer, got '2'"),
         ({"p_min": True}, "'p_min' must be a number, got True"),
         ({"by_partition": True}, "sample has no option 'by_partition'"),
         ({"size_min": "\udcff"},
          "character U+DCFF (a lone surrogate) cannot be written as UTF-8")],
    )
    def test_config_rejects_unknown_keys_and_wrong_types(self, workdir, capsys, config, message):
        path = workdir / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = run("--config", path, "sample", "--tables", ingest(workdir), "--annotations",
                   FIXTURES / "annotations.jsonl", "--seed", 7,
                   "--output", workdir / "components.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "TableTriplesError", "stage": "sample",
                          "message": f"{path}: {message}"}
        assert not (workdir / "components.jsonl").exists()

    @pytest.mark.parametrize("text, key, flag", [
        ('{"seed": 1, "size-max": 3, "size_max": 12}', "size_max", "size-max"),
        ('{"size_min": 3, "seed": 1, "size-min": 2}', "size-min", "size-min"),
    ])
    def test_config_that_sets_a_flag_twice_is_refused(self, workdir, capsys, text, key, flag):
        path, out = workdir / "config.json", workdir / "components.jsonl"
        path.write_text(text, encoding="utf-8")
        code = run("--config", path, "sample", "--tables", ingest(workdir), "--annotations",
                   FIXTURES / "annotations.jsonl", "--output", out)
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "TableTriplesError", "stage": "sample",
                          "message": f"{path}: {key!r} sets --{flag} a second time"}
        assert not out.exists()

    def test_config_values_take_each_flags_type(self, workdir, capsys):
        entries = sample_and_extract(workdir)
        path = workdir / "config.json"
        path.write_text(json.dumps({"input": [str(entries)], "by-partition": True}),
                        encoding="utf-8")
        assert run("--config", path, "stats", "--input", workdir / "missing.jsonl") == 0
        assert "wikitablequestions" in capsys.readouterr().out

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_outputs_follow_the_umask(self, workdir, umask, mode):
        old = os.umask(umask)
        try:
            tables = ingest(workdir)
        finally:
            os.umask(old)
        assert stat.S_IMODE(tables.stat().st_mode) == mode

    def test_every_output_is_fsynced_before_it_is_renamed(self, workdir, monkeypatch):
        entries = workdir / "entries.jsonl"
        assert run("convert-e2e", "--input", FIXTURES / "e2e.csv", "--output", entries) == 0
        calls = []  # ("fsync" | "replace", inode of the file)
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        outputs = workdir / "unified.jsonl", workdir / "unmapped.txt"
        assert run("unify", "--input", entries, "--map", FIXTURES / "predicates.tsv",
                   "--report-unmapped", outputs[1], "--output", outputs[0]) == 0
        renamed = [inode for kind, inode in calls if kind == "replace"]
        assert renamed == [path.stat().st_ino for path in outputs]
        for inode in renamed:
            assert calls.index(("fsync", inode)) < calls.index(("replace", inode))

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_a_closed_stdout_exits_1_without_a_report(self, workdir, unbuffered):
        entries = workdir / "entries.jsonl"
        assert run("convert-e2e", "--input", FIXTURES / "e2e.csv", "--output", entries) == 0
        proc = run_to_a_closed_stdout("stats", "--input", entries, unbuffered=unbuffered)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_stats_to_a_closed_stdout_writes_no_json(self, workdir, unbuffered):
        entries, stats_json = workdir / "entries.jsonl", workdir / "stats.json"
        assert run("convert-e2e", "--input", FIXTURES / "e2e.csv", "--output", entries) == 0
        proc = run_to_a_closed_stdout("stats", "--input", entries, "--json-out", stats_json,
                                      unbuffered=unbuffered)
        assert (proc.returncode, proc.stderr) == (1, b"")
        assert not stats_json.exists()  # a stage that fails writes no output

    @pytest.mark.parametrize("annotations", ["annotations.jsonl", "annotations_cyclic.jsonl"])
    def test_validate_to_a_closed_stdout_exits_1_without_a_note(self, workdir, annotations):
        tables = ingest(workdir)
        # stdout buffered, so only a flush finds the reader gone, and no note may come first
        proc = run_to_a_closed_stdout("validate-ontology", "--tables", tables,
                                      "--annotations", FIXTURES / annotations)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_validate_reports_a_table_id_that_stdout_cannot_encode(self, workdir):
        tables, annotations = workdir / "tables.jsonl", workdir / "annotations.jsonl"
        tables.write_text(json.dumps({"id": "\u8868", "title": "", "source": "wikisql",
                                      "headers": ["A"], "rows": [["x"]]}) + "\n",
                          encoding="utf-8")
        annotations.write_text("", encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "tabletriples", "validate-ontology",
                               "--tables", tables, "--annotations", annotations],
                              capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "latin-1"})
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["problems"] == [
            {"table_id": "\u8868", "kind": "annotation-missing", "detail": "no annotation record"}]
        assert json.loads(proc.stderr) == {
            "error": "TableTriplesError", "stage": "validate-ontology",
            "message": f"{annotations}: 1 ontology problems found"}

    def test_validate_writes_a_report_that_names_a_path_not_in_utf8(self, workdir):
        tables = ingest(workdir)
        folder = workdir / os.fsdecode(b"\xff")  # argv bytes that are not UTF-8 read as U+DCFF
        folder.mkdir()
        annotations, report = folder / "annotations.jsonl", workdir / "report.json"
        annotations.write_bytes((FIXTURES / "annotations_cyclic.jsonl").read_bytes())
        proc = subprocess.run([sys.executable, "-m", "tabletriples", "validate-ontology",
                               "--tables", tables, "--annotations", os.fsencode(annotations),
                               "--output", report], capture_output=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 1
        assert json.loads(report.read_text(encoding="ascii"))["problems"] == [
            {"table_id": "t01", "kind": "CycleError",
             "detail": f"{annotations}: line 1: table t01: cycle reached from nodes [0, 1]"}]
        assert json.loads(proc.stderr)["message"] == f"{annotations}: 1 ontology problems found"

    def test_error_report_is_json(self, workdir, capsys):
        code = run("ingest-webnlg", "--input", workdir / "missing.xml",
                   "--output", workdir / "out.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["stage"] == "ingest-webnlg"
        assert report["error"]

    def test_failed_stage_leaves_no_output(self, workdir):
        out = workdir / "entries.jsonl"
        code = run("convert-e2e", "--input", FIXTURES / "annotations.jsonl",
                   "--output", out)
        assert code == 1
        assert not out.exists()

    def test_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tabletriples", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "ingest-tables" in proc.stdout

    def test_ingest_rejects_duplicate_headers(self, workdir, capsys):
        bad = workdir / "bad"
        bad.mkdir()
        (bad / "x.csv").write_text("A,A\n1,2\n", encoding="utf-8")
        (bad / "x.meta.json").write_text('{"id": "x"}', encoding="utf-8")
        code = run("ingest-tables", "--input", bad, "--output", workdir / "t.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "DuplicateHeaderError"

    def test_validate_reports_annotation_shape_mismatch(self, workdir):
        tables = ingest(workdir)
        short = workdir / "short.jsonl"
        short.write_text(
            '{"table_id": "t01", "title_shape": "title_under_root", "parents": ["ROOT"]}\n',
            encoding="utf-8",
        )
        report = workdir / "report.json"
        code = run("validate-ontology", "--tables", tables,
                   "--annotations", short, "--output", report)
        assert code == 1
        doc = json.loads(report.read_text())
        kinds = {p["kind"] for p in doc["problems"]}
        assert "ParseError" in kinds  # one parent reference for the table's columns
        assert "annotation-missing" in kinds  # the other nine tables


class TestMalformedInputs:
    def test_unknown_component_node_is_a_structured_error(self, workdir, capsys):
        tables = ingest(workdir)
        components = workdir / "components.jsonl"
        components.write_text(
            '{"table_id": "t01", "row_index": 0, "node_ids": [0, 42]}\n', encoding="utf-8"
        )
        code = run("extract", "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--components", components,
                   "--sentences", FIXTURES / "sentences.jsonl",
                   "--output", workdir / "entries.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "BadIndexError"
        assert "t01" in report["message"] and "row 0" in report["message"]
        assert "42" in report["message"]

    def test_unknown_component_node_names_the_components_line(self, workdir, capsys):
        tables = ingest(workdir)
        components = workdir / "components.jsonl"
        components.write_text(
            '{"table_id": "t01", "row_index": 0, "node_ids": [0, 1]}\n\n'
            '{"table_id": "t01", "row_index": 0, "node_ids": [0, 42]}\n', encoding="utf-8"
        )
        code = run("extract", "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--components", components,
                   "--sentences", FIXTURES / "sentences.jsonl",
                   "--output", workdir / "entries.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "BadIndexError", "stage": "extract",
                          "message": f"{components}: line 3: table t01, row 0: unknown node id 42"}
        assert not (workdir / "entries.jsonl").exists()

    def test_duplicate_annotation_records_rejected(self, workdir, capsys):
        tables = ingest(workdir)
        annotations = workdir / "annotations.jsonl"
        annotations.write_text(
            (FIXTURES / "annotations.jsonl").read_text(encoding="utf-8")
            + '{"table_id": "t01", "parents": [1, "ROOT"]}\n',
            encoding="utf-8",
        )
        code = run("sample", "--tables", tables, "--annotations", annotations,
                   "--seed", 7, "--output", workdir / "components.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "TableTriplesError"
        assert str(annotations) in report["message"] and "'t01'" in report["message"]

    def test_entry_line_without_triples_names_file_line_and_eid(self, workdir, capsys):
        entries = workdir / "entries.jsonl"
        entries.write_text(
            '{"eid": "Id1", "category": "C", "realizations": [{"text": "x."}]}\n',
            encoding="utf-8",
        )
        code = run("unify", "--input", entries, "--map", FIXTURES / "predicates.tsv",
                   "--output", workdir / "unified.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "MalformedEntryError"
        assert report["message"] == f"{entries}: line 1: entry Id1: missing field 'triples'"

    @pytest.mark.parametrize("annotator", ["mturk", "bogus"])
    def test_bad_annotator_on_oversize_row_is_reported(self, workdir, capsys, annotator):
        wide = {"id": "wide", "title": "", "source": "wikitablequestions",
                "headers": [f"C{i}" for i in range(11)],
                "rows": [[f"v{i}" for i in range(11)]]}
        files = {
            "tables.jsonl": wide,
            "annotations.jsonl": {"table_id": "wide", "parents": ["ROOT"] * 11},
            "components.jsonl": {"table_id": "wide", "row_index": 0,
                                 "node_ids": list(range(11))},
            "sentences.jsonl": {"table_id": "wide", "row_index": 0,
                                "text": "All eleven values.", "annotator": annotator},
        }
        for name, record in files.items():
            (workdir / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = run("extract", "--tables", workdir / "tables.jsonl",
                   "--annotations", workdir / "annotations.jsonl",
                   "--components", workdir / "components.jsonl",
                   "--sentences", workdir / "sentences.jsonl",
                   "--output", workdir / "entries.jsonl")
        last = capsys.readouterr().err.strip().splitlines()[-1]
        if annotator == "mturk":
            assert code == 0 and "1 oversize" in last
        else:
            assert code == 1
            assert json.loads(last) == {
                "error": "ParseError", "stage": "extract",
                "message": f"{workdir / 'sentences.jsonl'}: line 1: " + ANNOTATOR_NOT_MEMBER}

    @pytest.mark.parametrize(
        "name, record, error, detail",
        [("tables.jsonl", {"title": "x", "headers": ["A"]}, "ParseError", "missing field 'id'"),
         ("tables.jsonl", {"id": "t01", "headers": ["A"], "source": "bogus"}, "ParseError",
          "field 'source' must be one of 'wikitablequestions', 'wikisql', 'webnlg', 'e2e', "
          "'synthetic', 'other', got 'bogus'"),
         ("annotations.jsonl", {"table_id": "t01"}, "ParseError", "missing field 'parents'"),
         ("components.jsonl", {"table_id": "t01", "node_ids": [0]}, "ParseError",
          "missing field 'row_index'"),
         ("components.jsonl", {"table_id": "t01", "row_index": "0", "node_ids": [0]},
          "ParseError", "field 'row_index' must be an integer, got '0'"),
         ("components.jsonl", {"table_id": "t01", "row_index": 0, "node_ids": [[0]]},
          "TableTriplesError", "field 'node_ids' must hold ints and strings"),
         ("sentences.jsonl", {"table_id": "t01", "row_index": 0}, "ParseError",
          "missing field 'text'"),
         ("sentences.jsonl", {"table_id": "t01", "row_index": 0, "text": "A.", "comment": 5},
          "ParseError", "field 'comment' must be a string, got 5"),
         ("sentences.jsonl", {"table_id": "t01", "row_index": 0, "text": "A.",
                              "annotator": "bogus"}, "ParseError", ANNOTATOR_NOT_MEMBER)],
    )
    def test_extract_field_error_names_file_and_line(self, workdir, capsys, name, record,
                                                     error, detail):
        paths = {"tables": ingest(workdir), "annotations": FIXTURES / "annotations.jsonl",
                 "components": workdir / "components.jsonl",
                 "sentences": FIXTURES / "sentences.jsonl"}
        paths["components"].write_text(
            '{"table_id": "t01", "row_index": 0, "node_ids": [0, 1]}\n', encoding="utf-8")
        bad = workdir / f"bad-{name}"
        bad.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")  # line 2
        paths[name.removesuffix(".jsonl")] = bad
        code = run("extract", *(a for k, v in paths.items() for a in (f"--{k}", v)),
                   "--output", workdir / "entries.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": error, "stage": "extract",
                          "message": f"{bad}: line 2: {detail}"}

    @pytest.mark.parametrize(
        "record, detail",
        [({"declarative_sentence": "X.", "table_id": "t06", "answer": "2004"},
          "missing field 'sql'"),
         ({"declarative_sentence": 5, "sql": "SELECT Year FROM t", "table_id": "t06"},
          "field 'declarative_sentence' must be a string, got 5"),
         ({"declarative_sentence": "X.", "sql": "SELECT Year FROM t WHERE Country = 'Greece'",
           "table_id": "t06"}, "missing field 'answer'")],
    )
    def test_wikisql_field_error_names_file_and_line(self, workdir, capsys, record, detail):
        records = workdir / "wikisql.jsonl"
        records.write_text(json.dumps(record) + "\n", encoding="utf-8")
        code = run("align-wikisql", "--input", records, "--tables", ingest(workdir),
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--output", workdir / "decl.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "ParseError", "stage": "align-wikisql",
                          "message": f"{records}: line 1: {detail}"}

    @pytest.mark.parametrize("row, with_sentence", [(99, False), (99, True), (-1, True)])
    def test_out_of_range_row_index_is_an_error(self, workdir, capsys, row, with_sentence):
        components = workdir / "components.jsonl"
        components.write_text(
            json.dumps({"table_id": "t01", "row_index": row, "node_ids": [0]}) + "\n",
            encoding="utf-8")
        sentences = workdir / "sentences.jsonl"
        sentences.write_text(
            (FIXTURES / "sentences.jsonl").read_text(encoding="utf-8")
            + (json.dumps({"table_id": "t01", "row_index": row, "text": "Nowhere."}) + "\n"
               if with_sentence else ""),
            encoding="utf-8")
        code = run("extract", "--tables", ingest(workdir),
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--components", components, "--sentences", sentences,
                   "--output", workdir / "entries.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "TableTriplesError", "stage": "extract",
                          "message": f"{components}: line 1: table 't01' has no row {row}"}
        assert not (workdir / "entries.jsonl").exists()

    def test_export_xml_of_a_non_string_eid_is_a_structured_error(self, workdir, capsys):
        entries = workdir / "entries.jsonl"
        entries.write_text(
            '{"eid": 5, "category": "C", "triples": [["s", "p", "o"]], '
            '"realizations": [{"text": "x."}]}\n', encoding="utf-8")
        code = run("export-xml", "--input", entries, "--output", workdir / "corpus.xml")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "MalformedEntryError", "stage": "export-xml",
                          "message": f"{entries}: line 1: field 'eid' must be a string, got 5"}

    @pytest.mark.parametrize("bad, field", [('[["s", 2, "o"]]', "triples"),
                                            ('[["s", "p"], "spo"]', "triples")])
    def test_export_xml_of_non_string_triples_is_a_structured_error(self, workdir, capsys,
                                                                   bad, field):
        entries = workdir / "entries.jsonl"
        entries.write_text(
            '{"eid": "Id1", "category": "C", "triples": ' + bad
            + ', "realizations": [{"text": "x."}]}\n', encoding="utf-8")
        code = run("export-xml", "--input", entries, "--output", workdir / "corpus.xml")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["error"] == "MalformedEntryError"
        assert report["message"].startswith(
            f"{entries}: line 1: entry Id1: field {field!r} must be ")
        assert not (workdir / "corpus.xml").exists()

    def test_convert_e2e_short_row_names_file_line_and_field(self, workdir, capsys):
        mrs = workdir / "e2e.csv"
        mrs.write_text('mr,ref\n"name[A], food[B]",A serves B.\n"name[A], food[B]"\n',
                       encoding="utf-8")
        code = run("convert-e2e", "--input", mrs, "--output", workdir / "e2e.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "ParseError", "stage": "convert-e2e",
                          "message": f"{mrs}: line 3: missing field 'ref'"}
        assert not (workdir / "e2e.jsonl").exists()

    def test_convert_e2e_missing_mr_cell_is_reported_first(self, workdir, capsys):
        mrs = workdir / "e2e.csv"
        mrs.write_text('ref,mr\nA serves B.,"name[A], food[B]"\n\nA serves B.\n',
                       encoding="utf-8")
        code = run("convert-e2e", "--input", mrs, "--output", workdir / "e2e.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report["message"] == f"{mrs}: line 4: missing field 'mr'"

    def test_convert_e2e_extra_cells_name_file_and_line(self, workdir, capsys):
        mrs = workdir / "e2e.csv"
        mrs.write_text('mr,ref\n"name[A], food[B]",A serves B.\n'
                       '"name[A], food[B]",A serves B.,extra cell\n', encoding="utf-8")
        code = run("convert-e2e", "--input", mrs, "--output", workdir / "e2e.jsonl")
        assert code == 1
        report = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert report == {"error": "TableTriplesError", "stage": "convert-e2e",
                          "message": f"{mrs}: line 3: row has 3 cells but the header has 2"}
        assert not (workdir / "e2e.jsonl").exists()


def skip_tail(note: str) -> dict[str, int]:
    """Counts of a stage note's ``(skipped: N reason, ...)`` tail, checking its grammar."""
    match = re.fullmatch(r".* \(skipped: (.+)\)", note)
    assert match, note
    if match.group(1) == "none":
        return {}
    parts = [re.fullmatch(r"([1-9][0-9]*) (\S.*)", p) for p in match.group(1).split(", ")]
    assert all(parts), note
    counts = {m.group(2): int(m.group(1)) for m in parts}
    assert list(counts) == sorted(counts) and len(counts) == len(parts), note
    return counts


def jsonl_lines(path: Path) -> int:
    return sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


class TestSkipTail:
    """Entries written plus the skip tail's counts account for every input record."""

    def test_extract(self, workdir, capsys):
        tables = ingest(workdir)
        components = workdir / "components.jsonl"
        assert run("sample", "--tables", tables, "--annotations", FIXTURES / "annotations.jsonl",
                   "--seed", 7, "--output", components) == 0
        entries = workdir / "entries.jsonl"
        capsys.readouterr()
        assert run("extract", "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--components", components, "--sentences", FIXTURES / "sentences.jsonl",
                   "--output", entries) == 0
        skipped = skip_tail(capsys.readouterr().err.strip())
        assert skipped.get("without sentences", 0) > 0
        assert jsonl_lines(entries) + sum(skipped.values()) == jsonl_lines(components)

    def test_align_wikisql(self, workdir, capsys):
        tables = ingest(workdir)
        out = workdir / "decl.jsonl"
        capsys.readouterr()
        assert run("align-wikisql", "--input", FIXTURES / "wikisql.jsonl", "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl",
                   "--qa2d", FIXTURES / "qa2d.json", "--output", out) == 0
        skipped = skip_tail(capsys.readouterr().err.strip())
        assert skipped.get("aggregate command", 0) == 1
        assert jsonl_lines(out) + sum(skipped.values()) == jsonl_lines(FIXTURES / "wikisql.jsonl")

    def test_align_wikisql_unknown_table(self, workdir, capsys):
        records = workdir / "wikisql.jsonl"
        records.write_text(json.dumps({"sql": "SELECT Year FROM t WHERE Country = 'Greece'",
                                       "table_id": "t99", "answer": "2004",
                                       "declarative_sentence": "Greece hosted in 2004."}) + "\n",
                           encoding="utf-8")
        out = workdir / "decl.jsonl"
        tables = ingest(workdir)
        capsys.readouterr()
        assert run("align-wikisql", "--input", records, "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl", "--output", out) == 0
        assert capsys.readouterr().err == (f"aligned 0 records -> {out} "
                                           "(skipped: 1 unknown table)\n")
        assert jsonl_lines(out) == 0

    def test_align_wikisql_reasons_name_no_column(self, workdir, capsys):
        records = workdir / "wikisql.jsonl"
        records.write_text("".join(
            json.dumps({"sql": sql, "table_id": "t06", "answer": "2004",
                        "declarative_sentence": "Greece hosted in 2004."}) + "\n"
            for sql in ("SELECT Year FROM t WHERE Host, City = 'x'",
                        "SELECT Year FROM t WHERE Planet = 'Earth'",
                        "SELECT Year FROM t WHERE Country = 'Greece'")), encoding="utf-8")
        out = workdir / "decl.jsonl"
        tables = ingest(workdir)
        capsys.readouterr()
        assert run("align-wikisql", "--input", records, "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl", "--output", out) == 0
        assert skip_tail(capsys.readouterr().err.strip()) == {"unaligned: unknown column": 2}
        assert jsonl_lines(out) == 1

    def test_align_wikisql_drops_an_aggregate_before_checking_its_syntax(self, workdir, capsys):
        records = workdir / "wikisql.jsonl"
        records.write_text("".join(
            json.dumps({"sql": sql, "table_id": "t06", "answer": "2004",
                        "declarative_sentence": "Greece hosted in 2004."}) + "\n"
            for sql in ("SELECT COUNT(Year) FROM t WHERE Year > 3",
                        "DELETE FROM t",
                        "SELECT Year FROM t WHERE Year > 3")), encoding="utf-8")
        out = workdir / "decl.jsonl"
        tables = ingest(workdir)
        capsys.readouterr()
        assert run("align-wikisql", "--input", records, "--tables", tables,
                   "--annotations", FIXTURES / "annotations.jsonl", "--output", out) == 0
        assert skip_tail(capsys.readouterr().err.strip()) == {"aggregate command": 1,
                                                              "unparseable sql": 2}
        assert jsonl_lines(out) == 0

    def test_convert_e2e(self, workdir, capsys):
        out = workdir / "e2e.jsonl"
        assert run("convert-e2e", "--input", FIXTURES / "e2e.csv", "--output", out) == 0
        skipped = skip_tail(capsys.readouterr().err.strip())
        assert skipped == {"name slot only": 1, "no name slot": 1}
        with open(FIXTURES / "e2e.csv", encoding="utf-8", newline="") as fh:
            mrs = sum(1 for _ in csv.DictReader(fh))
        assert jsonl_lines(out) + sum(skipped.values()) == mrs


def write_records(path: Path, *records: dict) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


# a table of 11 columns under the root, whose whole row is 11 triples, one over the limit
WIDE = {"id": "wide", "title": "", "headers": [f"C{i}" for i in range(11)],
        "rows": [[f"v{i}" for i in range(11)], [f"w{i}" for i in range(11)]]}
SMALL = {"id": "small", "title": "", "headers": ["A", "B", "C"],
         "rows": [["x", "1", "1"], ["x", "2", "3"], ["z", "5", "6"]]}
ANNOTATED = [{"table_id": "wide", "parents": ["ROOT"] * 11},
             {"table_id": "small", "parents": ["ROOT", 0, 0]}]


class TestEverySkipReason:
    """One input per record stage that gives every reason the stage skips a record for."""

    def test_extract(self, workdir, capsys):
        tables = write_records(workdir / "tables.jsonl", WIDE)
        annotations = write_records(workdir / "annotations.jsonl", ANNOTATED[0])
        components = write_records(
            workdir / "components.jsonl",
            {"table_id": "wide", "row_index": 0, "node_ids": [0, 1]},
            {"table_id": "wide", "row_index": 0, "node_ids": list(range(11))},
            {"table_id": "wide", "row_index": 1, "node_ids": [0]})
        sentences = write_records(workdir / "sentences.jsonl",
                                  {"table_id": "wide", "row_index": 0, "text": "V0 and v1."})
        out = workdir / "entries.jsonl"
        assert run("extract", "--tables", tables, "--annotations", annotations,
                   "--components", components, "--sentences", sentences, "--output", out) == 0
        assert capsys.readouterr().err == (
            f"extracted 1 entries -> {out} (skipped: 1 oversize tripleset, "
            "1 without sentences)\n")

    def test_align_wikisql(self, workdir, capsys):
        tables = write_records(workdir / "tables.jsonl", WIDE, SMALL)
        annotations = write_records(workdir / "annotations.jsonl", *ANNOTATED)
        said = "A sentence."
        wide_where = " AND ".join(f"C{i} = 'v{i}'" for i in range(10))
        records = write_records(workdir / "wikisql.jsonl", *(
            {"sql": sql, "table_id": table, "answer": answer, "declarative_sentence": sentence}
            for sql, table, answer, sentence in [
                ("SELECT C FROM t WHERE B = '2' AND A = 'x'", "small", "3", said),  # kept
                ("SELECT C FROM t WHERE B = '2'", "small", "3", None),
                ("DELETE FROM t", "small", "3", said),
                ("SELECT COUNT(C) FROM t", "small", "3", said),
                ("SELECT C FROM t WHERE B = '2'", "nope", "3", said),
                ("SELECT C FROM t WHERE D = '2'", "small", "3", said),
                ("SELECT C FROM t WHERE A = 'q'", "small", "3", said),
                ("SELECT C FROM t WHERE A = 'x'", "small", "3", said),
                ("SELECT C FROM t WHERE A = 'z'", "small", "9", said),
                ("SELECT C FROM t WHERE B = '1'", "small", "1", said),
                (f"SELECT C10 FROM t WHERE {wide_where}", "wide", "v10", said),
            ]))
        out = workdir / "aligned.jsonl"
        assert run("align-wikisql", "--input", records, "--tables", tables,
                   "--annotations", annotations, "--output", out) == 0
        assert capsys.readouterr().err == (
            f"aligned 1 records -> {out} (skipped: 1 aggregate command, "
            "1 no declarative sentence, 1 oversize tripleset, "
            "1 unaligned: answer matches more than one cell in the aligned row, "
            "1 unaligned: answer matches no cell in the aligned row, "
            "1 unaligned: more than one row matches the WHERE conditions, "
            "1 unaligned: no row matches the WHERE conditions, "
            "1 unaligned: unknown column, 1 unknown table, 1 unparseable sql)\n")

    def test_convert_e2e(self, workdir, capsys):
        mrs, out = workdir / "e2e.csv", workdir / "e2e.jsonl"
        wide = "name[A], " + ", ".join(f"slot{i}[v{i}]" for i in range(11))
        with open(mrs, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([("mr", "ref"), ("name[A], food[B]", "A serves B."),
                                      ("area[riverside]", "It is by the river."),
                                      ("name[A]", "A."), (wide, "A has eleven things.")])
        assert run("convert-e2e", "--input", mrs, "--output", out) == 0
        assert capsys.readouterr().err == (
            f"converted 1 MRs -> {out} (skipped: 1 name slot only, 1 no name slot, "
            "1 oversize tripleset)\n")
