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
from tabletriples.formats import write_entries_jsonl
from tabletriples.triples import Annotator, CorpusEntry, Provenance, Realization, Triple

SRC = Path(tabletriples.__file__).resolve().parent.parent

# the standard library's network and mail modules (xml.sax.saxutils imports
# urllib.request, which imports the rest) and the modules only some stages run
NOT_AT_START = ("xml.sax", "urllib.request", "http.client", "email", "ssl",
                "tabletriples.adapters", "tabletriples.sampling", "tabletriples.splits",
                "tabletriples.stats", "tabletriples.unify", "tabletriples.rng")


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports the package from this checkout."""
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)


def unwanted_after(code: str) -> list[str]:
    """The modules of NOT_AT_START, and their submodules, loaded after running ``code``."""
    proc = run_fresh(f"{code}; import sys; print(*sys.modules)")
    proc.check_returncode()
    return sorted(m for m in proc.stdout.split()
                  if any(m == name or m.startswith(name + ".") for name in NOT_AT_START))


def test_cli_import_leaves_other_stages_modules_unloaded():
    assert unwanted_after("import tabletriples.cli") == []


def test_linearize_runs_without_the_other_stages_modules(tmp_path):
    entries, out = tmp_path / "entries.jsonl", tmp_path / "out.txt"
    entries.write_text("".join(write_entries_jsonl([CorpusEntry(
        (Triple("A", "p", "b"),), (Realization("A is b.", Annotator.INTERNAL),), "C", "Id1",
        Provenance.OTHER)])), encoding="utf-8")
    unwanted = unwanted_after("from tabletriples.cli import main; "
                              f"assert main(['linearize', '--input', {str(entries)!r}, "
                              f"'--output', {str(out)!r}]) == 0")
    assert out.read_text(encoding="utf-8") == "<H> A <R> p <T> b\n"
    assert unwanted == []


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
