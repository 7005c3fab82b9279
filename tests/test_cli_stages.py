"""Stage flags, ``--config`` merging and the input checks that name their file."""

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tabletriples
from conftest import FIXTURES
from fixture_pipeline import PINNED, SOURCES, run_pipeline
from tabletriples.cli import STAGES, main
from tabletriples.errors import TableTriplesError
from tabletriples.formats import read_entries_file
from tabletriples.triples import Realization, Triple, assemble_entry

ANNOTATIONS = FIXTURES / "annotations.jsonl"
# JSON that json.loads cannot decode although it is well formed, and the start
# of the error it gives: nested deeper than the recursion limit, and an integer
# longer than int() converts
TOO_DEEP = ("[" * 100_000 + "]" * 100_000, "invalid JSON: maximum recursion depth exceeded")
TOO_LONG = ('{"q4": ' + "1" * 5_000 + "}", "invalid JSON: Exceeds the limit (4300")


def run(*argv) -> int:
    return main([str(a) for a in argv])


def report(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.fixture
def tables(tmp_path):
    out = tmp_path / "tables.jsonl"
    assert run("ingest-tables", "--input", FIXTURES / "tables", "--output", out) == 0
    return out


class TestRequiredFlags:
    def test_required_flags_may_come_from_the_config_alone(self, tmp_path, tables):
        flagged, configured = tmp_path / "flagged.jsonl", tmp_path / "configured.jsonl"
        assert run("sample", "--tables", tables, "--annotations", ANNOTATIONS,
                   "--seed", 3, "--output", flagged) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 3, "output": str(configured)}), encoding="utf-8")
        assert run("--config", config, "sample", "--tables", tables,
                   "--annotations", ANNOTATIONS) == 0
        assert configured.read_bytes() == flagged.read_bytes()

    def test_missing_required_flag_is_a_json_report(self, tmp_path, capsys):
        code = run("unify", "--input", tmp_path / "entries.jsonl",
                   "--output", tmp_path / "unified.jsonl")
        assert code == 1
        assert report(capsys) == {"error": "TableTriplesError", "stage": "unify",
                                  "message": "--map is required"}

    @pytest.mark.parametrize("stage, first", [
        ("ingest-tables", "input"), ("validate-ontology", "tables"), ("sample", "tables"),
        ("extract", "tables"), ("convert-e2e", "input"), ("ingest-webnlg", "input"),
        ("align-wikisql", "input"), ("unify", "input"), ("split", "tables"),
        ("stats", "input"), ("export-xml", "input"), ("linearize", "input")])
    def test_first_missing_flag_in_help_order_is_reported(self, capsys, stage, first):
        assert run(stage) == 1
        assert report(capsys) == {"error": "TableTriplesError", "stage": stage,
                                  "message": f"--{first} is required"}

    def test_config_that_is_not_json_names_the_file(self, tmp_path, capsys, tables):
        config = tmp_path / "config.json"
        config.write_text("{seed: 3}", encoding="utf-8")
        code = run("--config", config, "sample", "--tables", tables,
                   "--annotations", ANNOTATIONS, "--output", tmp_path / "c.jsonl")
        assert code == 1
        got = report(capsys)
        assert got["error"] == "TableTriplesError"
        assert got["message"].startswith(f"{config}: invalid JSON: Expecting property name")

    @pytest.mark.parametrize("text, detail", [TOO_DEEP, TOO_LONG], ids=["too-deep", "too-long"])
    def test_config_json_cannot_decode_names_the_file(self, tmp_path, capsys, tables,
                                                      text, detail):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        code = run("--config", config, "sample", "--tables", tables,
                   "--annotations", ANNOTATIONS, "--output", tmp_path / "c.jsonl")
        assert code == 1
        got = report(capsys)
        assert got["error"] == "TableTriplesError"
        assert got["message"].startswith(f"{config}: {detail}")

    def test_config_that_is_no_object_names_the_file(self, tmp_path, capsys, tables):
        config, out = tmp_path / "config.json", tmp_path / "c.jsonl"
        config.write_text('["seed", 3]', encoding="utf-8")
        assert run("--config", config, "sample", "--tables", tables, "--annotations",
                   ANNOTATIONS, "--seed", 3, "--output", out) == 1
        assert report(capsys) == {"error": "TableTriplesError", "stage": "sample",
                                  "message": f"{config}: expected a JSON object"}
        assert not out.exists()


class TestTableRecordTypes:
    @pytest.mark.parametrize("field, value, detail", [
        ("title", None, "title must be a string, got None"),
        ("headers", 1, "header 1 must be a string, got 5"),
        ("rows", 1, "row 1 cell 1 must be a string, got 7"),
    ])
    @pytest.mark.parametrize("stage", ["sample", "split", "validate-ontology"])
    def test_non_string_text_names_file_and_line(self, tmp_path, capsys, tables,
                                                 stage, field, value, detail):
        records = [json.loads(line) for line in tables.read_text(encoding="utf-8").splitlines()]
        if field == "title":
            records[2]["title"] = value
        elif field == "headers":
            records[2]["headers"][value] = 5
        else:
            records[2]["rows"][value][1] = 7
        tables.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        flags = {"sample": ["--annotations", ANNOTATIONS, "--seed", 1],
                 "split": ["--seed", 1], "validate-ontology": ["--annotations", ANNOTATIONS]}
        code = run(stage, "--tables", tables, *flags[stage], "--output", tmp_path / "out")
        assert code == 1
        assert report(capsys) == {"error": "ParseError", "stage": stage,
                                  "message": f"{tables}: line 3: table t03: {detail}"}
        assert not (tmp_path / "out").exists()

    def test_null_sidecar_title_is_an_error(self, tmp_path, capsys):
        src = tmp_path / "src"
        shutil.copytree(FIXTURES / "tables", src)
        (src / "t02.meta.json").write_text('{"id": "t02", "title": null}', encoding="utf-8")
        assert run("ingest-tables", "--input", src, "--output", tmp_path / "t.jsonl") == 1
        assert report(capsys) == {
            "error": "ParseError", "stage": "ingest-tables",
            "message": f"{src / 't02.csv'}: table t02: title must be a string, got None"}

    @pytest.mark.parametrize("headers, rows, detail", [
        ("AB", [["1", "2"]], "field 'headers' must be a list, got 'AB'"),
        (["A", "B"], "12", "field 'rows' must be a list, got '12'"),
        (["A", "B"], ["12"], "table t03: row 0 must be a list, got '12'"),
    ])
    @pytest.mark.parametrize("stage", ["sample", "validate-ontology"])
    def test_string_where_a_list_belongs_names_file_and_line(self, tmp_path, capsys, tables,
                                                             stage, headers, rows, detail):
        # t03 has two columns, so a string split into characters would fit its annotation
        records = [json.loads(line) for line in tables.read_text(encoding="utf-8").splitlines()]
        records[2].update(headers=headers, rows=rows)
        tables.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        flags = {"sample": ["--seed", 1], "validate-ontology": []}
        code = run(stage, "--tables", tables, "--annotations", ANNOTATIONS, *flags[stage],
                   "--output", tmp_path / "out")
        assert code == 1
        assert report(capsys) == {"error": "ParseError", "stage": stage,
                                  "message": f"{tables}: line 3: {detail}"}
        assert not (tmp_path / "out").exists()


class TestSidecars:
    @pytest.mark.parametrize("text, detail", [
        ('["t02"]', "expected a JSON object"),
        ('{"title": "x"}', "missing field 'id'"),
        ('{"id": "t02",}', "invalid JSON: Expecting property name"),
        ('{"id": null, "title": ""}', "field 'id' must be a string, got None"),
        ('{"id": 5}', "field 'id' must be a string, got 5"),
        ('{"id": "t02", "title": "\\udcff"}',
         "character U+DCFF (a lone surrogate) cannot be written as UTF-8"),
        pytest.param(*TOO_DEEP, id="too-deep"), pytest.param(*TOO_LONG, id="too-long"),
    ])
    def test_sidecar_errors_name_the_sidecar(self, tmp_path, capsys, text, detail):
        src = tmp_path / "src"
        shutil.copytree(FIXTURES / "tables", src)
        meta = src / "t02.meta.json"
        meta.write_text(text, encoding="utf-8")
        assert run("ingest-tables", "--input", src, "--output", tmp_path / "t.jsonl") == 1
        got = report(capsys)
        assert got["error"] == "ParseError"
        assert got["message"].startswith(f"{meta}: {detail}")


class TestIngestTables:
    @pytest.mark.parametrize("table, meta, error, detail", [
        ("a,a\n1,2\n", None, "DuplicateHeaderError", "table t02: duplicate column header 'a'"),
        ("a,b\n1,2,3\n", None, "ParseError", "table t02: row 0 has 3 cells, expected 2"),
        ("", None, "ParseError", "empty table file"),
        pytest.param(f"a,b\n1,2\n3,{'x' * 140_000}\n", None, "ParseError",
                     "line 3: field larger than field limit (131072)", id="cell-over-the-limit"),
        (None, '{"id": "t02", "source": "bogus"}', "ParseError",
         "field 'source' must be one of 'wikitablequestions', 'wikisql', 'webnlg', 'e2e', "
         "'synthetic', 'other', got 'bogus'"),
        (None, '{"id": "t\\t02"}', "ParseError",
         "table id must hold no tab or line break, got 't\\t02'"),
    ])
    def test_table_errors_name_the_table_file(self, tmp_path, capsys, table, meta, error, detail):
        src = tmp_path / "src"
        shutil.copytree(FIXTURES / "tables", src)
        if table is not None:
            (src / "t02.csv").write_text(table, encoding="utf-8")
        if meta is not None:
            (src / "t02.meta.json").write_text(meta, encoding="utf-8")
        assert run("ingest-tables", "--input", src, "--output", tmp_path / "t.jsonl") == 1
        assert report(capsys) == {"error": error, "stage": "ingest-tables",
                                  "message": f"{src / 't02.csv'}: {detail}"}
        assert not (tmp_path / "t.jsonl").exists()

    def test_two_tables_with_one_id_name_the_second(self, tmp_path, capsys):
        src = tmp_path / "src"
        shutil.copytree(FIXTURES / "tables", src)
        shutil.copy(src / "t01.csv", src / "zz.csv")
        shutil.copy(src / "t01.meta.json", src / "zz.meta.json")
        assert run("ingest-tables", "--input", src, "--output", tmp_path / "t.jsonl") == 1
        assert report(capsys) == {"error": "TableTriplesError", "stage": "ingest-tables",
                                  "message": f"{src / 'zz.csv'}: duplicate table id 't01'"}
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("name, sep", [("t.csv", ","), ("t.tsv", "\t")])
    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_a_line_end_in_a_quoted_cell_is_kept_as_it_is(self, tmp_path, name, sep, end):
        table, out = tmp_path / name, tmp_path / "t.jsonl"
        table.write_bytes(f'a{sep}b\r\n"1{end}2"{sep}3\r\n'.encode())
        (tmp_path / "t.meta.json").write_text('{"id": "t1"}', encoding="utf-8")
        assert run("ingest-tables", "--input", table, "--output", out) == 0
        [record] = map(json.loads, out.read_text(encoding="utf-8").splitlines())
        assert record["rows"] == [[f"1{end}2", "3"]]


class TestQa2d:
    @pytest.mark.parametrize("text, error, detail", [
        ('["q4"]', "TableTriplesError", "expected a JSON object"),
        ('{"q4": 5}', "ParseError", "field 'q4' must be a string, got 5"),
        ('{"q4": "x",}', "TableTriplesError", "invalid JSON: Expecting property name"),
        ('{"q4": "x \\udcff"}', "TableTriplesError",
         "character U+DCFF (a lone surrogate) cannot be written as UTF-8"),
        pytest.param(TOO_DEEP[0], "TableTriplesError", TOO_DEEP[1], id="too-deep"),
        pytest.param(TOO_LONG[0], "TableTriplesError", TOO_LONG[1], id="too-long"),
    ])
    def test_qa2d_errors_name_the_file(self, tmp_path, capsys, tables, text, error, detail):
        qa2d = tmp_path / "qa2d.json"
        qa2d.write_text(text, encoding="utf-8")
        code = run("align-wikisql", "--input", FIXTURES / "wikisql.jsonl", "--tables", tables,
                   "--annotations", ANNOTATIONS, "--qa2d", qa2d, "--output", tmp_path / "d.jsonl")
        assert code == 1
        got = report(capsys)
        assert got["error"] == error
        assert got["message"].startswith(f"{qa2d}: {detail}")


def write_jsonl(path, *records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class TestQuestionIds:
    RECORD = {"question": "Which country hosted the 2008 games?",
              "sql": "SELECT Country FROM t WHERE Year = '2008'", "table_id": "t06",
              "answer": "China"}

    def align(self, tmp_path, tables, question_id) -> int:
        wikisql, qa2d = tmp_path / "wikisql.jsonl", tmp_path / "qa2d.json"
        write_jsonl(wikisql, {**self.RECORD, "question_id": "q4"},
                    {**self.RECORD, "question_id": question_id})
        qa2d.write_text(json.dumps({"q4": "China hosted the 2008 Olympic Games.",
                                    str(question_id): "China hosted them."}), encoding="utf-8")
        return run("align-wikisql", "--input", wikisql, "--tables", tables,
                   "--annotations", ANNOTATIONS, "--qa2d", qa2d, "--output", tmp_path / "d.jsonl")

    def test_int_question_id_is_looked_up_as_a_string(self, tmp_path, capsys, tables):
        assert self.align(tmp_path, tables, 4) == 0
        texts = [e.realizations[0].text for e in read_entries_file(tmp_path / "d.jsonl")]
        assert texts == ["China hosted the 2008 Olympic Games.", "China hosted them."]

    @pytest.mark.parametrize("question_id", [True, 4.0, ["q4"]])
    def test_other_question_ids_name_file_and_line(self, tmp_path, capsys, tables, question_id):
        assert self.align(tmp_path, tables, question_id) == 1
        assert report(capsys) == {
            "error": "ParseError", "stage": "align-wikisql",
            "message": f"{tmp_path / 'wikisql.jsonl'}: line 2: "
                       f"field 'question_id' must be a string or an integer, got {question_id!r}"}
        assert not (tmp_path / "d.jsonl").exists()


class TestTableIds:
    def test_numeric_ids_on_both_sides_do_not_validate(self, tmp_path, capsys):
        tables, annotations = tmp_path / "tables.jsonl", tmp_path / "annotations.jsonl"
        write_jsonl(tables, {"id": 5, "title": "", "headers": ["A"], "rows": [["x"]]})
        write_jsonl(annotations, {"table_id": 5, "parents": ["ROOT"]})
        assert run("validate-ontology", "--tables", tables, "--annotations", annotations) == 1
        assert report(capsys) == {"error": "ParseError", "stage": "validate-ontology",
                                  "message": f"{tables}: line 1: table id must be a string, got 5"}

    # a splits.tsv line is the id, a tab and the split name
    @pytest.mark.parametrize("table_id", ["a\tb", "c\nd", "e\r", "f\u2028g", "\x0b"])
    def test_an_id_no_splits_line_can_hold_names_file_and_line(self, tmp_path, capsys, table_id):
        tables, out = tmp_path / "tables.jsonl", tmp_path / "splits.tsv"
        write_jsonl(tables, *({"id": name, "headers": ["A"], "rows": [["x"]]}
                              for name in ("t1", "t2", table_id, "t3")))
        assert run("split", "--tables", tables, "--seed", 1, "--output", out) == 1
        assert report(capsys) == {
            "error": "ParseError", "stage": "split",
            "message": f"{tables}: line 3: table id must hold no tab or line break, "
                       f"got {table_id!r}"}
        assert not out.exists()

    def test_numeric_annotation_table_id_names_file_and_line(self, tmp_path, capsys, tables):
        annotations = tmp_path / "annotations.jsonl"
        annotations.write_text(ANNOTATIONS.read_text(encoding="utf-8")
                               + json.dumps({"table_id": 5, "parents": ["ROOT"]}) + "\n",
                               encoding="utf-8")
        line = len(annotations.read_text(encoding="utf-8").splitlines())
        assert run("validate-ontology", "--tables", tables, "--annotations", annotations) == 1
        assert report(capsys) == {
            "error": "ParseError", "stage": "validate-ontology",
            "message": f"{annotations}: line {line}: annotation table_id must be a string, got 5"}


class TestRecordErrorsKeepTheirType:
    @pytest.mark.parametrize("record, error, detail", [
        ({"table_id": "t01", "parents": 5}, "ParseError",
         "field 'parents' must be a list, got 5"),
        ({"table_id": "t01", "parents": ["ROOT"], "title_shape": "sideways"}, "ParseError",
         "field 'title_shape' must be one of 'title_under_root', 'title_as_sole_child', "
         "got 'sideways'"),
    ])
    def test_annotation_record(self, tmp_path, capsys, tables, record, error, detail):
        annotations = tmp_path / "annotations.jsonl"
        write_jsonl(annotations, record)
        code = run("sample", "--tables", tables, "--annotations", annotations,
                   "--seed", 1, "--output", tmp_path / "c.jsonl")
        assert code == 1
        assert report(capsys) == {"error": error, "stage": "sample",
                                  "message": f"{annotations}: line 1: {detail}"}


class TestConvertE2e:
    def convert(self, tmp_path, *rows) -> tuple:
        mrs = tmp_path / "e2e.csv"
        with open(mrs, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([("mr", "ref"), *rows])
        return mrs, run("convert-e2e", "--input", mrs, "--output", tmp_path / "e2e.jsonl")

    def test_oversize_mr_is_a_skip(self, tmp_path, capsys):
        wide = "name[A], " + ", ".join(f"slot{i}[v{i}]" for i in range(11))
        _, code = self.convert(tmp_path, ("name[A], food[B]", "A serves B."),
                               (wide, "A has eleven things."), ("name[C], area[D]", "C is in D."))
        assert code == 0
        out = tmp_path / "e2e.jsonl"
        assert capsys.readouterr().err == (
            f"converted 2 MRs -> {out} (skipped: 1 oversize tripleset)\n")
        assert [e.eid for e in read_entries_file(out)] == ["Id1", "Id2"]

    @pytest.mark.parametrize("row, error, detail", [
        (("name[A], food[B", "A serves B."), "ParseError",
         "unbalanced brackets in 'name[A], food[B'"),
        (("name[A], food[B]", ""), "MalformedEntryError", "entry Id1: empty realization text"),
        (("name[A], food[B]", "y" * 140_000), "ParseError",
         "field larger than field limit (131072)"),
    ])
    def test_record_errors_name_file_and_line(self, tmp_path, capsys, row, error, detail):
        mrs, code = self.convert(tmp_path, row)
        assert code == 1
        assert report(capsys) == {"error": error, "stage": "convert-e2e",
                                  "message": f"{mrs}: line 2: {detail}"}
        assert not (tmp_path / "e2e.jsonl").exists()

    @pytest.mark.parametrize("header, name", [
        ("mr,ref,ref", "ref"), ("mr,ref,mr", "mr"), ("ref,mr,x,ref,mr", "mr"),
    ])
    def test_a_column_named_twice_names_the_file_and_column(self, tmp_path, capsys, header,
                                                             name):
        mrs, out = tmp_path / "e2e.csv", tmp_path / "e2e.jsonl"
        columns = header.split(",")
        with open(mrs, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([columns, [
                "name[A], food[B]" if column == "mr" else f"Ref {i}." for i, column in
                enumerate(columns)]])
        assert run("convert-e2e", "--input", mrs, "--output", out) == 1
        assert report(capsys) == {"error": "TableTriplesError", "stage": "convert-e2e",
                                  "message": f"{mrs}: CSV column {name!r} is named twice"}
        assert not out.exists()

    def test_a_record_is_named_by_its_first_line(self, tmp_path, capsys):
        # blank lines 2 and 5 are skipped; the first record's ref spans lines 3-4
        mrs = tmp_path / "e2e.csv"
        mrs.write_text('mr,ref\n\n"name[A], food[B]","A serves\nB."\n\n'
                       '"name[C], food[D","C serves\nD."\n', encoding="utf-8")
        code = run("convert-e2e", "--input", mrs, "--output", tmp_path / "e2e.jsonl")
        assert code == 1
        assert report(capsys) == {"error": "ParseError", "stage": "convert-e2e",
                                  "message": f"{mrs}: line 6: "
                                             "unbalanced brackets in 'name[C], food[D'"}

    def test_a_nul_byte_is_read_where_csv_reads_it(self, tmp_path, capsys):
        mrs, code = self.convert(tmp_path, ("name[A], food[B]", "A serves \x00B."))
        if sys.version_info >= (3, 11):  # csv reads a NUL as any other character
            assert code == 0
        else:
            assert code == 1
            assert report(capsys)["message"] == f"{mrs}: line 2: line contains NUL"

    def test_multi_line_ref_is_kept(self, tmp_path, capsys):
        _, code = self.convert(tmp_path, ("name[A], food[B]", "A serves\nB."),
                               ("name[C], food[D]", "C serves D."))
        assert code == 0
        entries = list(read_entries_file(tmp_path / "e2e.jsonl"))
        assert [e.realizations[0].text for e in entries] == ["A serves\nB.", "C serves D."]

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_a_line_end_in_a_quoted_ref_is_kept_as_it_is(self, tmp_path, end):
        _, code = self.convert(tmp_path, ("name[A], food[B]", f"A serves{end}B."))
        assert code == 0
        [entry] = read_entries_file(tmp_path / "e2e.jsonl")
        assert entry.realizations[0].text == f"A serves{end}B."


class TestExtractLocations:
    def extract(self, tmp_path, tables, annotations=ANNOTATIONS, sentences=None) -> int:
        components = tmp_path / "components.jsonl"
        write_jsonl(components, {"table_id": "t01", "row_index": 0, "node_ids": [0, 1]})
        return run("extract", "--tables", tables, "--annotations", annotations,
                   "--components", components,
                   "--sentences", sentences or FIXTURES / "sentences.jsonl",
                   "--output", tmp_path / "entries.jsonl")

    def test_bad_sentence_annotator_names_file_and_line(self, tmp_path, capsys, tables):
        sentences = tmp_path / "sentences.jsonl"
        write_jsonl(sentences, {"table_id": "t01", "row_index": 0, "text": "Fine."},
                    {"table_id": "t01", "row_index": 0, "text": "X.", "annotator": "bogus"})
        assert self.extract(tmp_path, tables, sentences=sentences) == 1
        assert report(capsys) == {
            "error": "ParseError", "stage": "extract",
            "message": f"{sentences}: line 2: field 'annotator' must be one of 'internal', "
                       "'mturk', 'auto_declarative', 'external_dataset', got 'bogus'"}

    @pytest.mark.parametrize("row_index", [0, 1])  # row 1 of t01 has no component
    def test_blank_sentence_names_the_sentences_file(self, tmp_path, capsys, tables, row_index):
        sentences = tmp_path / "sentences.jsonl"
        write_jsonl(sentences, {"table_id": "t01", "row_index": 0, "text": "Fine."},
                    {"table_id": "t01", "row_index": row_index, "text": "  "})
        assert self.extract(tmp_path, tables, sentences=sentences) == 1
        assert report(capsys) == {
            "error": "MalformedEntryError", "stage": "extract",
            "message": f"{sentences}: line 2: empty realization text"}
        assert not (tmp_path / "entries.jsonl").exists()

    @pytest.mark.parametrize("stage", ["sample", "extract", "align-wikisql"])
    def test_table_without_annotation_names_the_tables_line(self, tmp_path, capsys, tables,
                                                             stage):
        annotations, components = tmp_path / "annotations.jsonl", tmp_path / "components.jsonl"
        annotations.write_text("".join(
            line + "\n" for line in ANNOTATIONS.read_text(encoding="utf-8").splitlines()
            if line.strip() and json.loads(line)["table_id"] != "t06"), encoding="utf-8")
        assert json.loads(tables.read_text(encoding="utf-8").splitlines()[5])["id"] == "t06"
        write_jsonl(components, {"table_id": "t06", "row_index": 0, "node_ids": [0]})
        flags = {"sample": ["--seed", 1],
                 "extract": ["--components", components,
                             "--sentences", FIXTURES / "sentences.jsonl"],
                 "align-wikisql": ["--input", FIXTURES / "wikisql.jsonl"]}
        code = run(stage, "--tables", tables, "--annotations", annotations, *flags[stage],
                   "--output", tmp_path / "out")
        assert code == 1
        assert report(capsys) == {
            "error": "TableTriplesError", "stage": stage,
            "message": f"{tables}: line 6: table 't06' has no ontology annotation"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage", ["sample", "extract", "align-wikisql"])
    def test_a_tree_error_names_the_annotation_line(self, tmp_path, capsys, tables, stage):
        annotations, components = tmp_path / "annotations.jsonl", tmp_path / "components.jsonl"
        lines = ANNOTATIONS.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[5])["table_id"] == "t06"  # a table of three columns
        lines[5] = json.dumps({"table_id": "t06", "parents": ["ROOT", 0]})
        annotations.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        write_jsonl(components, {"table_id": "t06", "row_index": 0, "node_ids": [0]})
        flags = {"sample": ["--seed", 1],
                 "extract": ["--components", components,
                             "--sentences", FIXTURES / "sentences.jsonl"],
                 "align-wikisql": ["--input", FIXTURES / "wikisql.jsonl"]}
        code = run(stage, "--tables", tables, "--annotations", annotations, *flags[stage],
                   "--output", tmp_path / "out")
        assert code == 1
        assert report(capsys) == {
            "error": "ParseError", "stage": stage,
            "message": f"{annotations}: line 6: table t06: 2 parent references for 3 columns"}


class TestExtractCategory:
    """An entry takes the category of its row's first sentence, or --category if that
    sentence has none, whatever a later sentence of the row has."""

    @pytest.mark.parametrize("first, second, category", [
        ({"category": "Sports"}, {}, "Sports"),
        ({}, {"category": "Sports"}, "Fallback"),
        ({"category": "Sports"}, {"category": "Music"}, "Sports"),
        ({}, {}, "Fallback"),
    ])
    def test_the_first_sentence_sets_the_category(self, tmp_path, tables, first, second,
                                                  category):
        components, sentences = tmp_path / "components.jsonl", tmp_path / "sentences.jsonl"
        out = tmp_path / "entries.jsonl"
        write_jsonl(components, {"table_id": "t01", "row_index": 0, "node_ids": [0, 1]})
        write_jsonl(sentences, {"table_id": "t01", "row_index": 0, "text": "One.", **first},
                    {"table_id": "t01", "row_index": 0, "text": "Two.", **second})
        assert run("extract", "--tables", tables, "--annotations", ANNOTATIONS,
                   "--components", components, "--sentences", sentences,
                   "--category", "Fallback", "--output", out) == 0
        [entry] = read_entries_file(out)
        assert entry.category == category
        assert [r.text for r in entry.realizations] == ["One.", "Two."]


class TestIngestWebnlg:
    @pytest.mark.parametrize("attrs, lex, detail", [
        ('provenance="bogus"', "<lex>A is b.</lex>",
         "entry Id1: provenance attribute 'bogus' is not a known provenance"),
        ('row="x"', "<lex>A is b.</lex>", "entry Id1: row attribute 'x' is not an integer"),
        ("", "", "entry Id1: no realizations"),
    ])
    def test_errors_name_the_document(self, tmp_path, capsys, attrs, lex, detail):
        xml = tmp_path / "in.xml"
        xml.write_text(f'<entries><entry category="C" eid="Id1" size="1" {attrs}>'
                       "<modifiedtripleset><mtriple>A | p | b</mtriple></modifiedtripleset>"
                       f"{lex}</entry></entries>", encoding="utf-8")
        assert run("ingest-webnlg", "--input", xml, "--output", tmp_path / "out.jsonl") == 1
        assert report(capsys) == {"error": "MalformedEntryError", "stage": "ingest-webnlg",
                                  "message": f"{xml}: {detail}"}

    @pytest.mark.parametrize("attrs, body, detail", [
        ('eid="Id1" size="1"', "<modifiedtripleset><mtriple>A | p | b</mtriple>"
         "</modifiedtripleset>", "missing category or size attribute"),
        ('category="C" eid="Id1" size="1"', "", "entry has no modifiedtripleset"),
        ('category="C" eid="Id1" size="x"', "<modifiedtripleset><mtriple>A | p | b</mtriple>"
         "</modifiedtripleset>", "size attribute 'x' is not an integer"),
    ])
    def test_entry_faults_name_the_document_and_entry(self, tmp_path, capsys, attrs, body,
                                                      detail):
        xml, out = tmp_path / "in.xml", tmp_path / "out.jsonl"
        xml.write_text(f"<entries><entry {attrs}>{body}<lex>A is b.</lex></entry></entries>",
                       encoding="utf-8")
        assert run("ingest-webnlg", "--input", xml, "--output", out) == 1
        assert report(capsys) == {"error": "MalformedEntryError", "stage": "ingest-webnlg",
                                  "message": f"{xml}: entry Id1: {detail}"}
        assert not out.exists()

    @pytest.mark.parametrize("mtriple, lex, detail", [
        ("A | p | b<x/>c", "A is b.", "<mtriple> holds the element <x>"),
        ("A | p | b", "Hello <b>world</b> there.", "<lex> holds the element <b>"),
    ])
    def test_an_element_where_only_text_belongs_is_rejected(self, tmp_path, capsys, mtriple,
                                                              lex, detail):
        xml, out = tmp_path / "in.xml", tmp_path / "out.jsonl"
        xml.write_text('<entries><entry category="C" eid="Id1" size="1">'
                       f"<modifiedtripleset><mtriple>{mtriple}</mtriple></modifiedtripleset>"
                       f"<lex>{lex}</lex></entry></entries>", encoding="utf-8")
        assert run("ingest-webnlg", "--input", xml, "--output", out) == 1
        assert report(capsys) == {"error": "MalformedEntryError", "stage": "ingest-webnlg",
                                  "message": f"{xml}: entry Id1: {detail}"}
        assert not out.exists()

    def test_an_entry_over_the_triple_limit_is_rejected(self, tmp_path, capsys):
        xml, out = tmp_path / "in.xml", tmp_path / "out.jsonl"
        mtriples = "".join(f"<mtriple>A | p{i} | b</mtriple>" for i in range(12))
        xml.write_text('<entries><entry category="C" eid="Id1" size="12">'
                       f"<modifiedtripleset>{mtriples}</modifiedtripleset>"
                       "<lex>A is b.</lex></entry></entries>", encoding="utf-8")
        assert run("ingest-webnlg", "--input", xml, "--output", out) == 1
        assert report(capsys) == {"error": "OversizeError", "stage": "ingest-webnlg",
                                  "message": f"{xml}: entry Id1: 12 triples, limit is 10"}
        assert not out.exists()

    def test_a_bad_entry_is_reported_before_later_bad_xml(self, tmp_path, capsys):
        xml, out = tmp_path / "in.xml", tmp_path / "out.jsonl"
        xml.write_text('<entries><entry category="C" eid="Id1" size="2">'
                       "<modifiedtripleset><mtriple>A | p | b</mtriple></modifiedtripleset>"
                       "<lex>A is b.</lex></entry><entry></entries>", encoding="utf-8")
        assert run("ingest-webnlg", "--input", xml, "--output", out) == 1
        assert report(capsys) == {
            "error": "MalformedEntryError", "stage": "ingest-webnlg",
            "message": f"{xml}: entry Id1: size attribute says 2 but entry has 1 triples"}
        assert not out.exists()


class TestBounds:
    """Each sampler and split bound is a BoundError naming its flag, reported before any
    input is read."""

    @pytest.mark.parametrize("stage, argv, message", [
        ("sample", ["--size-min", 0], "--size-min must be at least 1, got 0"),
        ("sample", ["--size-max", 1], "--size-max must be at least --size-min (2), got 1"),
        ("sample", ["--p-min", -1], "--p-min must be at least 0, got -1.0"),
        ("sample", ["--p-min", 0.8], "--p-max must be at least --p-min (0.8), got 0.7"),
        ("sample", ["--p-max", 1.5], "--p-max must be at most 1, got 1.5"),
        ("split", ["--threshold", 1], "--threshold must be in (0, 1), got 1.0"),
        ("split", ["--test-seed-frac", 1.5], "--test-seed-frac must be in (0, 1), got 1.5"),
        ("split", ["--dev-seed-frac", 0], "--dev-seed-frac must be in (0, 1), got 0.0"),
        ("split", ["--test-seed-frac", 0.6, "--dev-seed-frac", 0.5],
         "--test-seed-frac (0.6) plus --dev-seed-frac (0.5) must be less than 1"),
        ("sample", ["--max-rows-per-table", -1], "--max-rows-per-table must be at least 0, got -1"),
    ])
    def test_a_bound_names_its_flag(self, tmp_path, capsys, stage, argv, message):
        inputs = ["--tables", tmp_path / "missing.jsonl"]
        if stage == "sample":
            inputs += ["--annotations", tmp_path / "missing.jsonl"]
        out = tmp_path / "out"
        assert run(stage, *inputs, "--seed", 1, *argv, "--output", out) == 1
        assert report(capsys) == {"error": "BoundError", "stage": stage, "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("stage, bound, message", [
        ("sample", ("p-max", "1e400"), "--p-max must be at most 1, got inf"),
        ("split", ("test-seed-frac", "1e400"), "--test-seed-frac must be in (0, 1), got inf"),
        # a message that starts with another flag than the one the config set
        ("sample", ("size-min", "6"), "--size-max must be at least --size-min (6), got 5"),
        ("split", ("dev-seed-frac", "0.95"),
         "--test-seed-frac (0.1) plus --dev-seed-frac (0.95) must be less than 1"),
    ])
    @pytest.mark.parametrize("in_config", [True, False])
    def test_a_bound_set_in_the_config_names_the_config(self, tmp_path, capsys, stage, bound,
                                                        message, in_config):
        name, value = bound
        config = tmp_path / "config.json"
        config.write_text(f'{{"seed": 1, "{name}": {value}}}' if in_config else '{"seed": 1}',
                          encoding="utf-8")
        inputs = ["--tables", tmp_path / "missing.jsonl"]
        if stage == "sample":
            inputs += ["--annotations", tmp_path / "missing.jsonl"]
        if not in_config:  # the same bound on the command line is named by its flag alone
            inputs += [f"--{name}", value]
        out = tmp_path / "out"
        assert run("--config", config, stage, *inputs, "--output", out) == 1
        where = f"{config}: " if in_config else ""
        assert report(capsys) == {"error": "BoundError", "stage": stage,
                                  "message": where + message}
        assert not out.exists()


class TestOneEntryRule:
    """An entry is checked by one rule however it is made: built, read from JSONL or from XML."""

    # (triples, realization texts, error, message after the location)
    BAD = [
        ([["A", "p", "b"]], [], "MalformedEntryError", "entry Id1: no realizations"),
        ([["A", "p", "b"]], [" "], "MalformedEntryError", "entry Id1: empty realization text"),
        ([], ["A is b."], "MalformedEntryError", "entry Id1: entry has no triples"),
        ([["A", f"p{i}", "b"] for i in range(11)], ["A is b."], "OversizeError",
         "entry Id1: 11 triples, limit is 10"),
    ]

    @staticmethod
    def failure(tmp_path, capsys, path, triples, texts) -> tuple[str, str]:
        """The error type and message of making the entry by ``path``, location removed."""
        if path == "assemble_entry":
            with pytest.raises(TableTriplesError) as err:
                assemble_entry(tuple(Triple(*t) for t in triples),
                               [Realization(t) for t in texts], "C", "Id1")
            return type(err.value).__name__, str(err.value)
        if path == "unify":
            source = tmp_path / "entries.jsonl"
            write_jsonl(source, {"eid": "Id1", "category": "C", "triples": triples,
                                 "realizations": [{"text": t} for t in texts]})
            argv = ["unify", "--input", source, "--map", FIXTURES / "predicates.tsv"]
            where = f"{source}: line 1: "
        else:
            source = tmp_path / "in.xml"
            source.write_text(
                f'<entries><entry category="C" eid="Id1" size="{len(triples)}">'
                "<modifiedtripleset>"
                + "".join(f"<mtriple>{' | '.join(t)}</mtriple>" for t in triples)
                + "</modifiedtripleset>" + "".join(f"<lex>{t}</lex>" for t in texts)
                + "</entry></entries>", encoding="utf-8")
            argv = ["ingest-webnlg", "--input", source]
            where = f"{source}: "
        assert run(*argv, "--output", tmp_path / "out.jsonl") == 1
        assert not (tmp_path / "out.jsonl").exists()
        got = report(capsys)
        assert got["stage"] == path and got["message"].startswith(where)
        return got["error"], got["message"][len(where):]

    @pytest.mark.parametrize("triples, texts, error, detail", BAD)
    @pytest.mark.parametrize("path", ["assemble_entry", "unify", "ingest-webnlg"])
    def test_every_path_rejects_a_bad_entry_the_same_way(self, tmp_path, capsys, path,
                                                         triples, texts, error, detail):
        assert self.failure(tmp_path, capsys, path, triples, texts) == (error, detail)


class TestOneJsonlReader:
    """Every JSONL input is read by one loop, so a bad line reads the same in each."""

    @pytest.fixture
    def inputs(self, tmp_path, tables) -> dict:
        components, entries = tmp_path / "components.jsonl", tmp_path / "entries.jsonl"
        assert run("sample", "--tables", tables, "--annotations", ANNOTATIONS,
                   "--seed", 7, "--output", components) == 0
        assert run("extract", "--tables", tables, "--annotations", ANNOTATIONS,
                   "--components", components, "--sentences", FIXTURES / "sentences.jsonl",
                   "--output", entries) == 0
        return {"tables": tables, "annotations": ANNOTATIONS, "components": components,
                "sentences": FIXTURES / "sentences.jsonl", "wikisql": FIXTURES / "wikisql.jsonl",
                "entries": entries}

    # each stage's JSONL inputs (flag -> input) and its other flags
    STAGES = {
        "sample": ({"tables": "tables", "annotations": "annotations"},
                   ["--seed", 7, "--output", "out.jsonl"]),
        "extract": ({"tables": "tables", "annotations": "annotations",
                     "components": "components", "sentences": "sentences"},
                    ["--output", "out.jsonl"]),
        "align-wikisql": ({"input": "wikisql", "tables": "tables", "annotations": "annotations"},
                          ["--output", "out.jsonl"]),
        "split": ({"tables": "tables"}, ["--seed", 3, "--output", "out.tsv"]),
        "unify": ({"input": "entries"},
                  ["--map", FIXTURES / "predicates.tsv", "--output", "out.jsonl"]),
        "stats": ({"input": "entries"}, []),
        "export-xml": ({"input": "entries"}, ["--output", "out.xml"]),
        "linearize": ({"input": "entries"}, ["--output", "out.txt"]),
    }

    def run_with(self, tmp_path, inputs: dict, stage: str, bad_flag: str, lines: list[str]):
        """Run ``stage`` with its ``--bad_flag`` input replaced by ``lines``."""
        files, rest = self.STAGES[stage]
        bad = tmp_path / f"bad-{bad_flag}.jsonl"
        bad.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        argv = [stage]
        for flag, name in files.items():
            argv += [f"--{flag}", bad if flag == bad_flag else inputs[name]]
        argv += [tmp_path / a if str(a).startswith("out.") else a for a in rest]
        return run(*argv), bad

    @pytest.mark.parametrize("line, detail", [
        ("[1, 2]", "expected a JSON object"),
        ('{"a": ', "invalid JSON: Expecting value: line 1 column 7 (char 6)"),
    ])
    @pytest.mark.parametrize("stage, flag", [
        ("sample", "tables"), ("sample", "annotations"),
        ("extract", "components"), ("extract", "sentences"), ("align-wikisql", "input"),
        ("unify", "input"), ("stats", "input"), ("export-xml", "input"), ("linearize", "input"),
    ])
    def test_a_bad_second_line_reads_the_same_in_every_input(self, tmp_path, capsys, inputs,
                                                             stage, flag, line, detail):
        name = self.STAGES[stage][0][flag]
        first = inputs[name].read_text(encoding="utf-8").split("\n")[0]
        code, bad = self.run_with(tmp_path, inputs, stage, flag, [first, line])
        assert code == 1
        error = "MalformedEntryError" if name == "entries" else "TableTriplesError"
        assert report(capsys) == {"error": error, "stage": stage,
                                  "message": f"{bad}: line 2: {detail}"}

    @pytest.mark.parametrize("line, detail", [TOO_DEEP, TOO_LONG], ids=["too-deep", "too-long"])
    @pytest.mark.parametrize("stage, flag", [
        ("linearize", "input"), ("sample", "tables"), ("extract", "components")])
    def test_json_that_cannot_be_decoded_is_invalid_json(self, tmp_path, capsys, inputs,
                                                         stage, flag, line, detail):
        name = self.STAGES[stage][0][flag]
        first = inputs[name].read_text(encoding="utf-8").split("\n")[0]
        code, bad = self.run_with(tmp_path, inputs, stage, flag, [first, line])
        assert code == 1
        got = report(capsys)
        error = "MalformedEntryError" if name == "entries" else "TableTriplesError"
        assert got["error"] == error and got["message"].startswith(f"{bad}: line 2: {detail}")

    @pytest.mark.parametrize("stage", ["sample", "split"])
    def test_the_first_bad_line_is_reported(self, tmp_path, capsys, inputs, stage):
        records = inputs["tables"].read_text(encoding="utf-8").split("\n")
        untitled = json.dumps({**json.loads(records[0]), "title": None})
        code, bad = self.run_with(tmp_path, inputs, stage, "tables",
                                  [untitled, records[1], '{"a": '])
        assert code == 1
        assert report(capsys)["message"] == (
            f"{bad}: line 1: table {json.loads(records[0])['id']}: "
            "title must be a string, got None")


class TestEmptyTripleset:
    def test_ingest_webnlg_rejects_an_entry_without_triples(self, tmp_path, capsys):
        xml = tmp_path / "in.xml"
        xml.write_text('<entries><entry category="C" eid="Id1" size="0">'
                       "<modifiedtripleset></modifiedtripleset><lex>A is b.</lex>"
                       "</entry></entries>", encoding="utf-8")
        assert run("ingest-webnlg", "--input", xml, "--output", tmp_path / "out.jsonl") == 1
        assert report(capsys) == {"error": "MalformedEntryError", "stage": "ingest-webnlg",
                                  "message": f"{xml}: entry Id1: entry has no triples"}
        assert not (tmp_path / "out.jsonl").exists()

    def test_linearize_names_the_file_and_entry(self, tmp_path, capsys):
        entry = {"eid": "Id1", "category": "C", "triples": [["A", "p", "b"]],
                 "realizations": [{"text": "A is b."}]}
        entries = tmp_path / "entries.jsonl"
        entries.write_text(json.dumps(entry) + "\n"
                           + json.dumps({**entry, "eid": "Id2", "triples": []}) + "\n",
                           encoding="utf-8")
        assert run("linearize", "--input", entries, "--output", tmp_path / "out.txt") == 1
        assert report(capsys) == {
            "error": "MalformedEntryError", "stage": "linearize",
            "message": f"{entries}: line 2: entry Id2: entry has no triples"}

    def test_extract_rejects_a_component_of_the_root_alone(self, tmp_path, capsys, tables):
        components, out = tmp_path / "components.jsonl", tmp_path / "entries.jsonl"
        write_jsonl(components, {"table_id": "t01", "row_index": 0, "node_ids": [0, 1]},
                    {"table_id": "t01", "row_index": 0, "node_ids": ["[TABLECONTEXT]"]})
        assert run("extract", "--tables", tables, "--annotations", ANNOTATIONS,
                   "--components", components, "--sentences", FIXTURES / "sentences.jsonl",
                   "--output", out) == 1
        assert report(capsys) == {
            "error": "MalformedEntryError", "stage": "extract",
            "message": f"{components}: line 2: entry Id2: entry has no triples"}
        assert not out.exists()

    @pytest.mark.parametrize("stage, rest", [
        ("unify", ["--map", FIXTURES / "predicates.tsv", "--output", "out.jsonl"]),
        ("stats", []), ("export-xml", ["--output", "out.xml"]),
        ("linearize", ["--output", "out.txt"])])
    def test_no_entries_stage_reads_an_entry_without_triples(self, tmp_path, capsys,
                                                             stage, rest):
        entry = {"eid": "Id1", "category": "C", "triples": [["A", "p", "b"]],
                 "realizations": [{"text": "A is b."}]}
        entries = tmp_path / "entries.jsonl"
        write_jsonl(entries, entry, {**entry, "eid": "Id2", "triples": []})
        argv = [tmp_path / a if str(a).startswith("out.") else a for a in rest]
        assert run(stage, "--input", entries, *argv) == 1
        assert report(capsys) == {
            "error": "MalformedEntryError", "stage": stage,
            "message": f"{entries}: line 2: entry Id2: entry has no triples"}
        assert not any(tmp_path.glob("out.*"))


class TestExportXml:
    def test_an_unwritable_character_names_the_file_and_entry(self, tmp_path, capsys):
        entries, out = tmp_path / "entries.jsonl", tmp_path / "out.xml"
        write_jsonl(entries, {"eid": "Id1", "category": "C", "triples": [["A\x01", "p", "b"]],
                              "realizations": [{"text": "A is b."}]})
        assert run("export-xml", "--input", entries, "--output", out) == 1
        assert report(capsys) == {
            "error": "MalformedEntryError", "stage": "export-xml",
            "message": f"{entries}: entry Id1: character U+0001 cannot be written as XML"}
        assert not out.exists()


class TestLinearize:
    def test_each_tripleset_is_one_line(self, tmp_path, capsys):
        entries, out = tmp_path / "entries.jsonl", tmp_path / "out.txt"
        write_jsonl(entries, *({"eid": f"Id{i}", "category": "C", "triples": [["A", "p", o]],
                                "realizations": [{"text": "A is b."}]}
                               for i, o in enumerate(["line1\nline2", "x\ry", "u\r\nv"], 1)))
        assert run("linearize", "--input", entries, "--output", out) == 0
        assert out.read_bytes() == (b"<H> A <R> p <T> line1 line2\n<H> A <R> p <T> x y\n"
                                    b"<H> A <R> p <T> u v\n")
        assert "linearized 3 triplesets" in capsys.readouterr().err


class TestInputNotUtf8:
    """Every reader names the file, and the line, of a byte that is not UTF-8."""

    ENTRY = json.dumps({"eid": "Id1", "category": "C", "triples": [["A", "p", "b"]],
                        "realizations": [{"text": "A is b."}]}).encode()
    # files the stages read besides the bad one
    GOOD = {"e.jsonl": ENTRY + b"\n", "t.csv": b"a,b\n1,2\n", "t.meta.json": b'{"id": "t1"}'}

    # (the bad file's name and bytes, the command line); a name with a dot is a file
    CASES = {
        "entries": ("e.jsonl", ENTRY + b"\n" + ENTRY.replace(b"A is", b"\xff is"),
                    ["linearize", "--input", "e.jsonl", "--output", "out.txt"]),
        "jsonl": ("t.jsonl", b'{"id": "t1"}\n{"\xff"}\n',
                  ["split", "--tables", "t.jsonl", "--seed", "3", "--output", "out.tsv"]),
        "json": ("c.json", b'{\n"input": "\xff"}',
                 ["--config", "c.json", "linearize", "--output", "out.txt"]),
        "csv": ("e.csv", b'mr,ref\r\n"name[a], x[\xff]",A.\n',
                ["convert-e2e", "--input", "e.csv", "--output", "out.jsonl"]),
        "xml": ("w.xml", b"<entries>\r<entry \xff",
                ["ingest-webnlg", "--input", "w.xml", "--output", "out.jsonl"]),
        "tsv": ("m.tsv", b"a\tb\n\xff\tc\n",
                ["unify", "--map", "m.tsv", "--input", "e.jsonl", "--output", "out.jsonl"]),
        "table": ("t.csv", b"a,b\n\xff,1\n",
                  ["ingest-tables", "--input", "t.csv", "--output", "out.jsonl"]),
        "sidecar": ("t.meta.json", b'{"id":\n"\xff"}',
                    ["ingest-tables", "--input", "t.csv", "--output", "out.jsonl"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_a_bad_byte_names_the_file_and_line(self, tmp_path, capsys, case):
        name, data, argv = self.CASES[case]
        for good, good_data in self.GOOD.items():
            (tmp_path / good).write_bytes(good_data)
        bad = tmp_path / name
        bad.write_bytes(data)
        assert run(*(tmp_path / a if "." in a else a for a in argv)) == 1
        stage, position = next(a for a in argv if a in STAGES), data.index(b"\xff")
        assert report(capsys) == {
            "error": "ParseError", "stage": stage,
            "message": f"{bad}: line 2: 'utf-8' codec can't decode byte 0xff "
                       f"in position {position}: invalid start byte"}
        assert not any(tmp_path.glob("out.*"))

    # (the bytes piped in, the command line); a pipe cannot be read again for the line
    PIPED = {
        "jsonl": (ENTRY + b"\n" + ENTRY.replace(b"A is", b"\xff is"),
                  ["linearize", "--input", "/dev/stdin", "--output", "out.txt"]),
        "csv": (b'mr,ref\r\n"name[a], x[\xff]",A.\n',
                ["convert-e2e", "--input", "/dev/stdin", "--output", "out.jsonl"]),
        "json": (b'{\n"input": "\xff"}',
                 ["--config", "/dev/stdin", "linearize", "--output", "out.txt"]),
    }

    @pytest.mark.parametrize("case", PIPED)
    def test_a_bad_byte_in_a_pipe_names_the_pipe(self, tmp_path, case):
        data, argv = self.PIPED[case]
        src = Path(tabletriples.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-m", "tabletriples", *argv], input=data,
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, timeout=60)
        assert proc.returncode == 1
        assert json.loads(proc.stderr) == {
            "error": "ParseError", "stage": next(a for a in argv if a in STAGES),
            "message": "/dev/stdin: 'utf-8' codec can't decode byte 0xff: invalid start byte"}
        assert list(tmp_path.iterdir()) == []


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark is dropped from every input; it changes no output."""

    ENTRY = TestInputNotUtf8.ENTRY + b"\n"
    # files the stages read besides the one that gets the mark
    GOOD = {"e.jsonl": ENTRY, "t.meta.json": b'{"id": "t1"}'}

    # (the marked file's name and bytes, the command line); a name with a dot is a file
    CASES = {
        "csv": ("e.csv", (FIXTURES / "e2e.csv").read_bytes(),
                ["convert-e2e", "--input", "e.csv", "--output", "out.jsonl"]),
        "tsv table": ("t.tsv", b"a\tb\n1\t2\n",
                      ["ingest-tables", "--input", "t.tsv", "--output", "out.jsonl"]),
        "tsv map": ("m.tsv", b"p\tVENUE\n",
                    ["unify", "--map", "m.tsv", "--input", "e.jsonl", "--output", "out.jsonl"]),
        "jsonl": ("e.jsonl", ENTRY,
                  ["linearize", "--input", "e.jsonl", "--output", "out.txt"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_a_leading_mark_changes_no_output(self, tmp_path, case):
        name, data, argv = self.CASES[case]
        output = tmp_path / argv[argv.index("--output") + 1]
        written = []
        for mark in (b"", b"\xef\xbb\xbf"):
            for good, good_data in self.GOOD.items():
                (tmp_path / good).write_bytes(good_data)
            (tmp_path / name).write_bytes(mark + data)
            assert run(*(tmp_path / a if "." in a else a for a in argv)) == 0
            written.append(output.read_bytes())
        assert written[0] == written[1]
        assert "\ufeff".encode() not in written[1]


class TestLoneSurrogate:
    @pytest.mark.parametrize("stage, rest", [
        ("unify", ["--map", FIXTURES / "predicates.tsv", "--output", "out.jsonl"]),
        ("stats", []), ("linearize", ["--output", "out.txt"])])
    def test_an_escaped_lone_surrogate_names_the_file_and_line(self, tmp_path, capsys,
                                                               stage, rest):
        entry = {"eid": "Id1", "category": "C", "triples": [["A", "p", "b"]],
                 "realizations": [{"text": "A is b."}]}
        entries = tmp_path / "entries.jsonl"
        write_jsonl(entries, entry, {**entry, "realizations": [{"text": "x \ud800 y"}]})
        assert "\\ud800" in entries.read_text(encoding="utf-8")
        argv = [tmp_path / a if str(a).startswith("out.") else a for a in rest]
        assert run(stage, "--input", entries, *argv) == 1
        assert report(capsys) == {
            "error": "MalformedEntryError", "stage": stage,
            "message": f"{entries}: line 2: character U+D800 (a lone surrogate) "
                       "cannot be written as UTF-8"}
        assert not any(tmp_path.glob("out.*"))

    def test_a_category_not_utf8_on_the_command_line_is_named(self, tmp_path, capsys):
        # a byte that is not UTF-8 in argv reads as a lone surrogate
        assert run("convert-e2e", "--input", tmp_path / "missing.csv", "--category", "\udcff",
                   "--output", tmp_path / "out") == 1
        assert report(capsys) == {
            "error": "TableTriplesError", "stage": "convert-e2e",
            "message": "--category: character U+DCFF (a lone surrogate) "
                       "cannot be written as UTF-8"}


class TestInputFaultsAreToolkitErrors:
    def test_a_split_of_two_tables_names_the_tables_file(self, tmp_path, capsys, tables):
        two = tmp_path / "two.jsonl"
        two.write_text("".join(tables.read_text(encoding="utf-8").splitlines(keepends=True)[:2]),
                       encoding="utf-8")
        assert run("split", "--tables", two, "--seed", 1, "--output", tmp_path / "s.tsv") == 1
        assert report(capsys) == {"error": "DegenerateSplitError", "stage": "split",
                                  "message": f"{two}: need at least 3 tables, got 2"}

    def test_an_empty_highlight_names_its_component(self, tmp_path, capsys, tables):
        components = tmp_path / "components.jsonl"
        write_jsonl(components, {"table_id": "t01", "row_index": 0, "node_ids": []})
        assert run("extract", "--tables", tables, "--annotations", ANNOTATIONS,
                   "--components", components, "--sentences", FIXTURES / "sentences.jsonl",
                   "--output", tmp_path / "e.jsonl") == 1
        assert report(capsys) == {"error": "TableTriplesError", "stage": "extract",
                                  "message": f"{components}: line 1: "
                                             "cannot complete an empty highlight"}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> Path:
    """A work directory that holds every output of the fixture pipeline."""
    workdir = tmp_path_factory.mktemp("pipeline")
    run_pipeline(workdir)
    return workdir


class TestUnifyReadsEverySource:
    """``unify --input`` reads the source stages' entries files in order, each by its own rules."""

    @pytest.fixture
    def sources(self, tmp_path, pipeline) -> list[Path]:
        for name in SOURCES:
            shutil.copy(pipeline / name, tmp_path / name)
        return [tmp_path / name for name in SOURCES]

    def unify(self, tmp_path, capsys, *inputs) -> tuple[int, bytes, bytes, str]:
        """(exit status, --output's bytes, --report-unmapped's bytes, the stderr)."""
        out, unmapped = tmp_path / "unified.jsonl", tmp_path / "unmapped.txt"
        code = run("unify", "--input", *inputs, "--map", FIXTURES / "predicates.tsv",
                   "--report-unmapped", unmapped, "--output", out)
        written = [path.read_bytes() if path.exists() else b"" for path in (out, unmapped)]
        return code, *written, capsys.readouterr().err

    def test_several_inputs_read_as_their_concatenation(self, tmp_path, capsys, sources):
        joined = tmp_path / "joined.jsonl"  # the oracle: valid JSONL files join to one
        joined.write_bytes(b"".join(path.read_bytes() for path in sources))
        from_joined = self.unify(tmp_path, capsys, joined)
        assert from_joined[0] == 0
        assert self.unify(tmp_path, capsys, *sources) == from_joined
        assert hashlib.sha256(from_joined[1]).hexdigest() == PINNED["unified.jsonl"]

    @pytest.mark.parametrize("at", range(len(SOURCES)))
    @pytest.mark.parametrize("edit", ["byte-order mark", "no final newline"])
    def test_each_input_is_read_by_the_input_rules(self, tmp_path, capsys, sources, at, edit):
        data = sources[at].read_bytes()
        sources[at].write_bytes(b"\xef\xbb\xbf" + data if edit == "byte-order mark"
                                else data.removesuffix(b"\n"))
        code, unified, _, _ = self.unify(tmp_path, capsys, *sources)
        assert code == 0
        assert hashlib.sha256(unified).hexdigest() == PINNED["unified.jsonl"]

    def test_a_bad_line_names_its_own_file_and_line(self, tmp_path, capsys, sources):
        lines = sources[2].read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = '{"a": \n'
        sources[2].write_text("".join(lines), encoding="utf-8")
        code, unified, unmapped, err = self.unify(tmp_path, capsys, *sources)
        assert (code, unified, unmapped) == (1, b"", b"")
        assert json.loads(err) == {
            "error": "MalformedEntryError", "stage": "unify",
            "message": f"{sources[2]}: line 2: invalid JSON: "
                       "Expecting value: line 1 column 7 (char 6)"}

    def test_a_missing_input_is_reported_before_an_unwritable_output(self, tmp_path, capsys,
                                                                     sources):
        sources[3].unlink()
        before = sorted(tmp_path.iterdir())
        out = tmp_path / "missing_dir" / "unified.jsonl"
        assert run("unify", "--input", *sources, "--map", FIXTURES / "predicates.tsv",
                   "--report-unmapped", tmp_path / "unmapped.txt", "--output", out) == 1
        got = report(capsys)
        assert got["error"] == "FileNotFoundError" and str(sources[3]) in got["message"]
        assert sorted(tmp_path.iterdir()) == before

    def test_a_config_gives_the_inputs_as_a_list(self, tmp_path, capsys, sources):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": list(map(str, sources))}), encoding="utf-8")
        out = tmp_path / "unified.jsonl"
        assert run("--config", config, "unify", "--map", FIXTURES / "predicates.tsv",
                   "--output", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED["unified.jsonl"]
        config.write_text(json.dumps({"input": str(sources[0])}), encoding="utf-8")
        assert run("--config", config, "unify", "--map", FIXTURES / "predicates.tsv",
                   "--output", out) == 1
        assert report(capsys)["message"] == (
            f"{config}: 'input' must be a non-empty list of strings, got {str(sources[0])!r}")


class TestUnwritableOutput:
    @pytest.mark.parametrize("output, error, reason", [
        ("missing_dir/l.txt", "FileNotFoundError", "No such file or directory"),
        ("sur", "IsADirectoryError", "Is a directory"),
    ])
    def test_the_error_names_the_output_and_leaves_no_temp_file(self, tmp_path, capsys,
                                                                 output, error, reason):
        entries = tmp_path / "entries.jsonl"
        write_jsonl(entries, {"eid": "Id1", "category": "C", "triples": [["A", "p", "b"]],
                              "realizations": [{"text": "A is b."}]})
        (tmp_path / "sur").mkdir()
        assert run("linearize", "--input", entries, "--output", tmp_path / output) == 1
        assert report(capsys) == {"error": error, "stage": "linearize",
                                  "message": f"{tmp_path / output}: {reason}"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["entries.jsonl", "sur"]
        assert not any((tmp_path / "sur").iterdir())

    @pytest.mark.parametrize("spelling", ["x.jsonl", "./x.jsonl"])
    def test_two_outputs_that_name_one_file_write_neither(self, tmp_path, capsys, monkeypatch,
                                                          pipeline, spelling):
        monkeypatch.chdir(tmp_path)
        assert run("unify", "--input", pipeline / "e2e.jsonl", "--map",
                   FIXTURES / "predicates.tsv", "--report-unmapped", spelling,
                   "--output", "x.jsonl") == 1
        assert report(capsys) == {"error": "TableTriplesError", "stage": "unify",
                                  "message": f"{spelling}: the same file as the output x.jsonl"}
        assert not any(tmp_path.iterdir())

    # stages that meet a fault in their input only as they write: its files and flags
    FAULT_IN_THE_STREAM = {
        "ingest-webnlg": ({"in.xml": "<entries><entry></entries>"}, ["--input", "in.xml"]),
        "sample": ({"t.jsonl": '{"id": "t9", "title": "", "headers": ["A"], "rows": [["x"]]}'},
                   ["--tables", "t.jsonl", "--annotations", ANNOTATIONS, "--seed", 1]),
    }

    @pytest.mark.parametrize("stage", FAULT_IN_THE_STREAM)
    def test_it_is_reported_before_a_fault_in_the_stream(self, tmp_path, capsys, stage):
        files, flags = self.FAULT_IN_THE_STREAM[stage]
        for name, text in files.items():
            (tmp_path / name).write_text(text + "\n", encoding="utf-8")
        out = tmp_path / "missing_dir" / "out.jsonl"
        assert run(stage, *(tmp_path / f if f in files else f for f in flags),
                   "--output", out) == 1
        assert report(capsys) == {"error": "FileNotFoundError", "stage": stage,
                                  "message": f"{out}: No such file or directory"}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
