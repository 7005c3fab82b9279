"""Every file-producing stage run once on the fixtures, and the pinned sha256 of each output.

The stages' stderr notes are one more output (``notes.txt``), with the work
directory written as ``WORKDIR``.

``tests/test_reproducible.py`` compares a run with the pins, and
``tools/check_versions.py`` does the same under several interpreters. Run as
a script (with ``src`` and ``tests`` on ``PYTHONPATH``), this module prints
one JSON line: the interpreter version and the sha256 of every output.
``NOT_AT_START`` names the modules that ``import tabletriples.cli`` must not
load, nor any submodule of them, and ``OWN_MODULES`` those of them that each
stage loads as it runs; ``tests/test_startup.py`` and
``tools/check_versions.py`` check both.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

from tabletriples.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

PINNED = {
    "tables.jsonl": "e77e3cfaea8aa292ccc1dc6d2a7a96bd21401fbc1972fdacb9a92c8e831a9163",
    "components.jsonl": "83ddeee316e8cbafa82d0b63339dc77dca97583b72989862121c2bc553f205dd",
    "entries.jsonl": "2700d97a1ee2a497a930742c9c3b7a768e8c7cc85a1ec6c696b26de1eebe880e",
    "wikisql.jsonl": "99d71b671ebfef93b5ad400b3347e329ad621572e89fdb5070028ea34f9186e9",
    "e2e.jsonl": "8aa771edf9a3160474734d2e5ee7beac5417fc2b8a383b9fbbe58aaa142d4aa5",
    "webnlg.jsonl": "3fba86f12ceb2e4d26839c8d07552024207a4ecd50a6810cd4998ad0c9eb5d53",
    "unified.jsonl": "0230a188b17e2cf239b622b2aafce80a8f2da69f2179fcfbc8bc1e032f2ca522",
    "unmapped.txt": "b60dac9a5e0d3523ed6b9c42bd19789acfc2f63f7cb92471bdd92a814074692a",
    "splits.tsv": "d1ba91c06c959958a34c6eefa5ee8ffd2201f84a01ca92082a5489ebdde98ea5",
    "stats.json": "8c96c55de1b2af6dada9214c6faa20bd7bef1ceecf7650fdf3039445d492a815",
    "stats.txt": "c74c7a19dd6ef60db4965c0f5add3cfad063e953e86d1adb44e83a91de1e3f78",
    "corpus.xml": "b4136469bcd39703c2208f9ef2ede9e3f134d031a680a8b6ed9fc0b43d1fa3f2",
    "linear.txt": "dd52b4d923bd650a53b78b8393112be20eac0d6a4ea17522691b757265970c09",
    "notes.txt": "dea626bd142f69ac7af2cde52338908b062b544966508e3143ea7d06ed75ccf4",
}

# the standard library's network and mail modules (xml.sax.saxutils imports
# urllib.request, which imports the rest), dataclasses and the inspect it
# imports, and the modules only some stages run, csv among them
NOT_AT_START = ("xml.sax", "urllib.request", "http.client", "email", "ssl",
                "dataclasses", "inspect", "csv",
                "tabletriples.adapters", "tabletriples.sampling", "tabletriples.splits",
                "tabletriples.stats", "tabletriples.unify", "tabletriples.rng",
                "tabletriples.tables", "tabletriples.triples", "tabletriples.xmlcodec",
                "tabletriples.tablestages")

_TABLES, _TRIPLES = "tabletriples.tables", "tabletriples.triples"
_XML, _TABLE_STAGES = "tabletriples.xmlcodec", "tabletriples.tablestages"

# the modules of NOT_AT_START that each stage of the fixture pipeline imports for itself
OWN_MODULES = {
    "ingest-tables": ("csv", _TABLES, _TABLE_STAGES),
    "sample": ("tabletriples.sampling", "tabletriples.rng", _TABLES, _TABLE_STAGES),
    "extract": (_TABLES, _TRIPLES, _TABLE_STAGES),
    "align-wikisql": ("tabletriples.adapters", _TABLES, _TRIPLES, _TABLE_STAGES),
    "convert-e2e": ("tabletriples.adapters", "csv"),
    "ingest-webnlg": ("tabletriples.adapters", _XML),
    "unify": ("tabletriples.unify",),
    "split": ("tabletriples.splits", "tabletriples.rng", _TABLES),
    "stats": ("tabletriples.stats",),
    "export-xml": (_XML,),
}

# the source stages' entries files, which unify reads in this order
SOURCES = ("entries.jsonl", "wikisql.jsonl", "e2e.jsonl", "webnlg.jsonl")


def stages(w: Path) -> list[list[str]]:
    """The argv of every file-producing stage, in the order they run, with files in ``w``.

    ``stats`` prints its table to stdout, which ``run_pipeline`` keeps as ``stats.txt``.
    """
    return [[str(a) for a in argv] for argv in (
        ("ingest-tables", "--input", FIXTURES / "tables", "--output", w / "tables.jsonl"),
        ("sample", "--tables", w / "tables.jsonl",
         "--annotations", FIXTURES / "annotations.jsonl",
         "--seed", 7, "--output", w / "components.jsonl"),
        ("extract", "--tables", w / "tables.jsonl",
         "--annotations", FIXTURES / "annotations.jsonl",
         "--components", w / "components.jsonl",
         "--sentences", FIXTURES / "sentences.jsonl", "--output", w / "entries.jsonl"),
        ("align-wikisql", "--input", FIXTURES / "wikisql.jsonl",
         "--tables", w / "tables.jsonl", "--annotations", FIXTURES / "annotations.jsonl",
         "--qa2d", FIXTURES / "qa2d.json", "--output", w / "wikisql.jsonl"),
        ("convert-e2e", "--input", FIXTURES / "e2e.csv", "--output", w / "e2e.jsonl"),
        ("ingest-webnlg", "--input", FIXTURES / "webnlg.xml", "--output", w / "webnlg.jsonl"),
        ("unify", "--input", *(w / name for name in SOURCES), "--map", FIXTURES / "predicates.tsv",
         "--report-unmapped", w / "unmapped.txt", "--output", w / "unified.jsonl"),
        ("split", "--tables", w / "tables.jsonl", "--seed", 3,
         "--test-seed-frac", 0.2, "--dev-seed-frac", 0.2, "--output", w / "splits.tsv"),
        ("stats", "--input", w / "unified.jsonl", "--by-partition",
         "--json-out", w / "stats.json"),
        ("export-xml", "--input", w / "unified.jsonl", "--output", w / "corpus.xml"),
        ("linearize", "--input", w / "unified.jsonl", "--output", w / "linear.txt"),
    )]


def run_pipeline(workdir: Path) -> dict[str, bytes]:
    """Run every file-producing stage on the fixtures; returns name -> bytes."""
    w = workdir
    notes = io.StringIO()
    for argv in stages(w):
        shown = io.StringIO()
        with contextlib.redirect_stderr(notes), contextlib.redirect_stdout(shown):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"stage failed: {argv}: {notes.getvalue().strip()}")
        if argv[0] == "stats":
            (w / "stats.txt").write_text(shown.getvalue(), encoding="utf-8")
    (w / "notes.txt").write_text(notes.getvalue().replace(str(w), "WORKDIR"), encoding="utf-8")
    return {name: (w / name).read_bytes() for name in PINNED}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_pipeline(Path(tmp))
    print(json.dumps({
        "python": platform.python_version(),
        "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()},
    }))
