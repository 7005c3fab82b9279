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
                "tabletriples.stats", "tabletriples.unify", "tabletriples.rng")

# the modules of NOT_AT_START that each stage of the fixture pipeline imports for itself
OWN_MODULES = {
    "ingest-tables": ("csv",),
    "sample": ("tabletriples.sampling", "tabletriples.rng"),
    "align-wikisql": ("tabletriples.adapters",),
    "convert-e2e": ("tabletriples.adapters", "csv"),
    "ingest-webnlg": ("tabletriples.adapters",),
    "unify": ("tabletriples.unify",),
    "split": ("tabletriples.splits", "tabletriples.rng"),
    "stats": ("tabletriples.stats",),
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
