"""The entries stages stream: their errors, their outputs and their memory.

``unify``, ``stats``, ``export-xml`` and ``linearize`` read, transform and
write one entry at a time. An input is opened before any output is begun, an
error met mid-stream leaves no output and no temp file behind, and peak
memory does not grow with the number of entries, nor, in ``convert-e2e``,
with the number of CSV records, nor, in ``ingest-webnlg``, with the number
of XML entries.
"""

import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

import pytest

import tabletriples
from conftest import FIXTURES
from tabletriples.cli import main
from tabletriples.formats import entry_from_dict
from tabletriples.xmlcodec import write_xml

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


def webnlg(count: int, times: int = 1) -> str:
    """An XML document of ``count`` entries, all of them ``times`` over."""
    head, *entries, tail = write_xml(entry_from_dict(entry(i)) for i in range(count))
    return head + "".join(entries) * times + tail


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


@pytest.mark.parametrize("stage, text", [
    ("linearize", jsonl(*map(entry, range(5)))),
    ("ingest-webnlg", webnlg(500)),  # several of the blocks an XML document is read in
], ids=["linearize", "ingest-webnlg"])
def test_an_input_read_from_a_pipe_streams(tmp_path, stage, text):
    (tmp_path / "input").write_text(text, encoding="utf-8")
    output = str(tmp_path / "output")
    assert main([stage, "--input", str(tmp_path / "input"), "--output", output]) == 0
    from_file = (tmp_path / "output").read_bytes()
    src = Path(tabletriples.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-m", "tabletriples", stage,
                           "--input", "/dev/stdin", "--output", output],
                          input=text.encode(), env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "output").read_bytes() == from_file


def test_an_xml_document_on_one_line_ingests_as_the_indented_one(tmp_path):
    indented = webnlg(500)
    one_line = re.sub(r">\s+<", "><", indented)
    assert "\n" not in one_line.rstrip("\n")
    for name, text in ("indented", indented), ("one_line", one_line):
        (tmp_path / f"{name}.xml").write_text(text, encoding="utf-8")
        assert main(["ingest-webnlg", "--input", str(tmp_path / f"{name}.xml"),
                     "--output", str(tmp_path / f"{name}.jsonl")]) == 0
    one_line_out, indented_out = tmp_path / "one_line.jsonl", tmp_path / "indented.jsonl"
    assert one_line_out.read_bytes() == indented_out.read_bytes()


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


def peak_bytes(stage_run: Callable[[], int]) -> int:
    """The tracemalloc peak of ``stage_run()``, which must succeed."""
    # a collection first empties the interpreter's free lists, which tracemalloc
    # counts, so what earlier tests left there does not hide the stage's growth
    gc.collect()
    tracemalloc.start()
    try:
        assert stage_run() == 0
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
    peak = peak_bytes(lambda: run(stage, once, tmp_path))
    assert peak_bytes(lambda: run(stage, four_times, tmp_path)) < 1.5 * peak


def test_convert_e2e_peak_memory_does_not_grow_with_the_input(tmp_path, capsys):
    # 2,000 rows, not 1,000: the peak takes a one-time step of about one 64 KiB block
    # between those two sizes, and then stays flat, so a smaller base would measure the step
    rows = "".join(f'"name[Place {i}], food[Food {i % 9}], area[area {i % 7}]",'
                   f'"Place {i} serves food {i % 9} in area {i % 7}."\n' for i in range(2000))
    once, four_times = tmp_path / "once.csv", tmp_path / "four.csv"
    once.write_text("mr,ref\n" + rows, encoding="utf-8")
    four_times.write_text("mr,ref\n" + rows * 4, encoding="utf-8")

    def convert(mrs) -> int:
        return main(["convert-e2e", "--input", str(mrs), "--output", str(tmp_path / "out.jsonl")])

    convert(once)  # imports the stage's modules outside the measurement
    peak = peak_bytes(lambda: convert(once))
    assert peak_bytes(lambda: convert(four_times)) < 1.5 * peak


def test_ingest_webnlg_peak_memory_does_not_grow_with_the_input(tmp_path, capsys):
    once, four_times = tmp_path / "once.xml", tmp_path / "four.xml"
    once.write_text(webnlg(1000), encoding="utf-8")
    four_times.write_text(webnlg(1000, times=4), encoding="utf-8")

    def ingest(document) -> int:
        return main(["ingest-webnlg", "--input", str(document),
                     "--output", str(tmp_path / "out.jsonl")])

    ingest(once)  # imports the stage's modules outside the measurement
    peak = peak_bytes(lambda: ingest(once))
    assert peak_bytes(lambda: ingest(four_times)) < 1.5 * peak
