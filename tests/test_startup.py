"""Start-up: what ``import tabletriples.cli`` loads, and the package's lazy exports.

Every CLI stage is its own process, so each module ``cli`` imports at start-up
is paid by every stage; a stage's own modules are imported when it runs.
"""

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import tabletriples
from fixture_pipeline import run_pipeline, stages

SRC = Path(tabletriples.__file__).resolve().parent.parent

# the standard library's network and mail modules (xml.sax.saxutils imports
# urllib.request, which imports the rest), dataclasses and the inspect it
# imports, and the modules only some stages run, csv among them
NOT_AT_START = ("xml.sax", "urllib.request", "http.client", "email", "ssl",
                "dataclasses", "inspect", "csv",
                "tabletriples.adapters", "tabletriples.sampling", "tabletriples.splits",
                "tabletriples.stats", "tabletriples.unify", "tabletriples.rng",
                "tabletriples.tables", "tabletriples.triples", "tabletriples.xmlcodec",
                "tabletriples.tablestages")

TABLES, TRIPLES = "tabletriples.tables", "tabletriples.triples"
XML, TABLE_STAGES = "tabletriples.xmlcodec", "tabletriples.tablestages"

# the modules of NOT_AT_START that each stage of the fixture pipeline imports for itself
OWN_MODULES = {
    "ingest-tables": ("csv", TABLES, TABLE_STAGES),
    "sample": ("tabletriples.sampling", "tabletriples.rng", TABLES, TABLE_STAGES),
    "extract": (TABLES, TRIPLES, TABLE_STAGES),
    "align-wikisql": ("tabletriples.adapters", TABLES, TRIPLES, TABLE_STAGES),
    "convert-e2e": ("tabletriples.adapters", "csv", TABLES, TRIPLES),
    "ingest-webnlg": ("tabletriples.adapters", TABLES, TRIPLES, XML),
    "unify": ("tabletriples.unify",),
    "split": ("tabletriples.splits", "tabletriples.rng", TABLES),
    "stats": ("tabletriples.stats",),
    "export-xml": (XML,),
}


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports the package from this checkout."""
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)


def unwanted_after(code: str) -> list[str]:
    """The modules of NOT_AT_START, and their submodules, loaded after running ``code``."""
    proc = run_fresh(f"{code}; import sys; print(*sys.modules)")
    proc.check_returncode()
    return sorted(m for m in proc.stdout.splitlines()[-1].split()
                  if any(m == name or m.startswith(name + ".") for name in NOT_AT_START))


def test_cli_import_leaves_other_stages_modules_unloaded():
    assert unwanted_after("import tabletriples.cli") == []


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """A directory holding the outputs of the fixture pipeline, so each stage's inputs."""
    workdir = tmp_path_factory.mktemp("pipeline")
    run_pipeline(workdir)
    return workdir


@pytest.mark.parametrize("stage", [argv[0] for argv in stages(Path())])
def test_each_stage_runs_without_the_other_stages_modules(pipeline_dir, stage):
    [argv] = [argv for argv in stages(pipeline_dir) if argv[0] == stage]  # rewrites its outputs
    unwanted = unwanted_after(f"from tabletriples.cli import main; assert main({argv!r}) == 0")
    assert "dataclasses" not in unwanted and "inspect" not in unwanted
    assert [m for m in unwanted if m not in OWN_MODULES.get(argv[0], ())] == []


# a name that moved out of formats, cli, tables or triples, looked up where it was
@pytest.mark.parametrize("code, loaded", [
    ("from tabletriples.formats import read_entries_file", []),
    ("from tabletriples import formats; assert not hasattr(formats, '__path__')", []),
    ("from tabletriples import CorpusEntry, write_xml", [XML]),
    ("from tabletriples import formats, xmlcodec as x\n"
     "assert formats.write_xml is x.write_xml and formats.read_xml is x.read_xml", [XML]),
    ("from tabletriples import cli, triples\n"
     "assert cli.complete_subtree is triples.complete_subtree", [TABLES, TRIPLES]),
    ("from tabletriples import entries, tables, triples\n"
     "assert tables.Provenance is entries.Provenance\n"
     "for name in ('MAX_TRIPLES', 'Annotator', 'CorpusEntry', 'Provenance', 'Realization',\n"
     "             'Triple', 'check_entry'):\n"
     "    assert getattr(triples, name) is getattr(entries, name), name", [TABLES, TRIPLES]),
])
def test_a_moved_name_resolves_where_it_was_and_loads_only_its_module(code, loaded):
    assert unwanted_after(code) == sorted(loaded)


@pytest.mark.parametrize("module", ["formats", "cli"])
def test_an_unknown_name_on_a_forwarding_module_is_an_attribute_error(module):
    proc = run_fresh(f"from tabletriples import {module}\n"
                     f"try:\n    {module}.nope\nexcept AttributeError as exc:\n    print(exc)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"module 'tabletriples.{module}' has no attribute 'nope'\n"


def test_value_types_pickle_and_a_pickle_that_names_their_old_module_loads():
    proc = run_fresh(r"""
import pickle
from tabletriples.entries import CorpusEntry, Provenance, Realization, Triple
from tabletriples.tables import Table
from tabletriples.triples import Highlight

table = Table("t", "T", ("A",), (("x",),), Provenance.WIKISQL)
entry = CorpusEntry((Triple("s", "p", "o"),), (Realization("text"),), "MISC", "Id1",
                    Provenance.E2E)
for value in (table, Highlight("t", 0, frozenset({0, "[TITLE]"})), entry):
    assert pickle.loads(pickle.dumps(value)) == value
# before, Provenance was defined in tables, and the other entry types in triples
for value, home in ((table, b"tables"), (entry, b"triples")):
    old = pickle.dumps(value, 0).replace(b"ctabletriples.entries\n", b"ctabletriples.%s\n" % home)
    assert b"entries" not in old and pickle.loads(old) == value
""")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", tabletriples.__all__)
def test_every_export_resolves_to_its_modules_object(name):
    module = import_module(f"tabletriples.{tabletriples._MODULE_OF[name]}")
    assert getattr(tabletriples, name) is getattr(module, name)
    assert name in dir(tabletriples)


@pytest.mark.parametrize("name", ["MeaningRepresentation", "SqlQuery", "filter_sql"])
def test_removed_adapters_names_are_not_exported(name):
    assert name not in tabletriples.__all__ and name not in dir(tabletriples)
    with pytest.raises(AttributeError):
        getattr(tabletriples, name)
    assert not hasattr(import_module("tabletriples.adapters"), name)


def test_exports_import_by_name():
    from tabletriples import build_tree, split, webnlg_ingest
    from tabletriples.splits import split as splits_split
    from tabletriples.tables import build_tree as tables_build_tree

    assert build_tree is tables_build_tree and split is splits_split
    assert webnlg_ingest.__module__ == "tabletriples.adapters"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'tabletriples' has no attribute 'nope'"):
        tabletriples.nope  # noqa: B018
    with pytest.raises(ImportError):
        from tabletriples import nope  # noqa: F401


def test_readme_library_block_imports():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(from tabletriples import \(.*?\))\n```", library, re.S)
    assert block, "README.md has no Library import block"
    proc = run_fresh(block.group(1))
    assert proc.returncode == 0, proc.stderr
