"""The entries stages stream: their errors, their outputs and their memory.

``unify``, ``stats``, ``export-xml`` and ``linearize`` read, transform and
write one entry at a time. An input is opened before any output is begun, an
error met mid-stream leaves no output and no temp file behind, and peak
memory does not grow with the number of entries.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import tabletriples
from conftest import FIXTURES
from tabletriples.cli import main

# each streamed stage's flags besides --input; a name starting "out." is made in tmp_path
STREAMED = {
    "unify": ["--map", FIXTURES / "predicates.tsv", "--report-unmapped", "out.txt",
              "--output", "out.jsonl"],
    "stats": ["--by-partition", "--json-out", "out.json"],
    "export-xml": ["--output", "out.xml"],
    "linearize": ["--output", "out.txt"],
}


def run(stage, entries, tmp_path) -> int:
    rest = [tmp_path / a if str(a).startswith("out.") else a for a in STREAMED[stage]]
    return main([str(a) for a in [stage, "--input", entries, *rest]])


def report(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def entry(i: int) -> dict:
    return {"eid": f"Id{i}", "category": "C", "provenance": ["other", "e2e"][i % 2],
            "triples": [[f"Subject {i}", f"pred{i % 7}", f"object {i}"],
                        [f"object {i}", "[TITLE]", f"Table {i // 10}"]],
            "realizations": [{"text": f"Subject {i} has object {i} in table {i // 10}."}],
            "table_id": f"t{i // 10}", "row_index": i % 10}


def jsonl(*records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


@pytest.mark.parametrize("stage", STREAMED)
class TestStreamedStageErrors:
    def test_a_missing_input_is_named_as_the_input(self, tmp_path, capsys, stage):
        missing = tmp_path / "missing.jsonl"
        assert run(stage, missing, tmp_path) == 1
        assert report(capsys) == {"error": "FileNotFoundError", "stage": stage,
                                  "message": f"[Errno 2] No such file or directory: "
                                             f"{str(missing)!r}"}
        assert list(tmp_path.iterdir()) == []

    def test_a_directory_input_is_named_as_the_input(self, tmp_path, capsys, stage):
        folder = tmp_path / "entries"
        folder.mkdir()
        assert run(stage, folder, tmp_path) == 1
        assert report(capsys) == {"error": "IsADirectoryError", "stage": stage,
                                  "message": f"[Errno 21] Is a directory: {str(folder)!r}"}
        assert list(tmp_path.iterdir()) == [folder]

    def test_a_bad_last_line_is_located_once_and_leaves_no_file(self, tmp_path, capsys, stage):
        entries = tmp_path / "entries.jsonl"
        bad = '{"eid": "Id3", "category": "C'
        entries.write_text(jsonl(entry(1), entry(2)) + bad + "\n", encoding="utf-8")
        try:
            json.loads(bad)
        except json.JSONDecodeError as exc:
            detail = str(exc)
        assert detail.startswith("Unterminated string")
        assert run(stage, entries, tmp_path) == 1
        assert report(capsys) == {"error": "MalformedEntryError", "stage": stage,
                                  "message": f"{entries}: line 3: invalid JSON: {detail}"}
        assert list(tmp_path.iterdir()) == [entries]


def test_an_input_read_from_a_pipe_streams(tmp_path):
    text = jsonl(*map(entry, range(5)))
    (tmp_path / "entries.jsonl").write_text(text, encoding="utf-8")
    assert run("linearize", tmp_path / "entries.jsonl", tmp_path) == 0
    from_file = (tmp_path / "out.txt").read_bytes()
    src = Path(tabletriples.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "tabletriples", "linearize",
                           "--input", "/dev/stdin", "--output", str(tmp_path / "out.txt")],
                          input=text.encode(), env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.txt").read_bytes() == from_file


class TestUnifyOutputs:
    """``unify`` writes its entries and its report of unmapped predicates, or neither."""

    @pytest.mark.parametrize("output, report_path, named", [
        ("u.jsonl", "nodir/u.txt", "nodir/u.txt: No such file or directory"),
        ("u.jsonl", "sub", "sub: Is a directory"),
        ("nodir/u.jsonl", "u.txt", "nodir/u.jsonl: No such file or directory"),
        ("sub", "u.txt", "sub: Is a directory"),
    ])
    def test_an_output_that_cannot_be_written_leaves_neither(self, tmp_path, capsys,
                                                             output, report_path, named):
        entries = tmp_path / "entries.jsonl"
        entries.write_text(jsonl(entry(1), entry(2)), encoding="utf-8")
        (tmp_path / "sub").mkdir()
        assert main(["unify", "--input", str(entries), "--map", str(FIXTURES / "predicates.tsv"),
                     "--report-unmapped", str(tmp_path / report_path),
                     "--output", str(tmp_path / output)]) == 1
        assert report(capsys)["message"] == f"{tmp_path}/{named}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["entries.jsonl", "sub"]
        assert list((tmp_path / "sub").iterdir()) == []


def peak_bytes(stage, entries, tmp_path) -> int:
    tracemalloc.start()
    try:
        assert run(stage, entries, tmp_path) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", STREAMED)
def test_peak_memory_does_not_grow_with_the_input(tmp_path, capsys, stage):
    text = jsonl(*map(entry, range(1000)))
    once, four_times = tmp_path / "once.jsonl", tmp_path / "four.jsonl"
    once.write_text(text, encoding="utf-8")
    four_times.write_text(text * 4, encoding="utf-8")
    run(stage, once, tmp_path)  # imports the stage's modules outside the measurement
    peak = peak_bytes(stage, once, tmp_path)
    assert peak_bytes(stage, four_times, tmp_path) < 1.5 * peak
