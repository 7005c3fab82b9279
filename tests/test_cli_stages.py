"""Stage flags, ``--config`` merging and the input checks that name their file."""

import json
import shutil

import pytest

from conftest import FIXTURES
from tabletriples.cli import main

ANNOTATIONS = FIXTURES / "annotations.jsonl"


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
        assert report(capsys) == {"error": "ParseError", "stage": "ingest-tables",
                                  "message": "table t02: title must be a string, got None"}


class TestSidecars:
    @pytest.mark.parametrize("text, detail", [
        ('["t02"]', "expected a JSON object"),
        ('{"title": "x"}', "missing field 'id'"),
        ('{"id": "t02",}', "invalid JSON: Expecting property name"),
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


class TestQa2d:
    @pytest.mark.parametrize("text, detail", [
        ('["q4"]', "expected a JSON object"),
        ('{"q4": 5}', "question 'q4': sentence must be a string, got 5"),
        ('{"q4": "x",}', "invalid JSON: Expecting property name"),
    ])
    def test_qa2d_errors_name_the_file(self, tmp_path, capsys, tables, text, detail):
        qa2d = tmp_path / "qa2d.json"
        qa2d.write_text(text, encoding="utf-8")
        code = run("align-wikisql", "--input", FIXTURES / "wikisql.jsonl", "--tables", tables,
                   "--annotations", ANNOTATIONS, "--qa2d", qa2d, "--output", tmp_path / "d.jsonl")
        assert code == 1
        got = report(capsys)
        assert got["error"] == "TableTriplesError"
        assert got["message"].startswith(f"{qa2d}: {detail}")
