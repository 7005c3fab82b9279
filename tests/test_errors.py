"""``errors.located``, the one place that puts an error's location before its message, and
``errors.checked``, which checks a value type's fields however the value is built."""

import pickle

import pytest

from tabletriples import cli
from tabletriples.errors import (BoundError, DuplicateHeaderError, MalformedEntryError,
                                 OversizeError, ParseError, PredicateMapError, TableTriplesError,
                                 located)
from tabletriples.files import write_jsonl
from tabletriples.formats import read_entries_file
from tabletriples.sampling import SamplerConfig
from tabletriples.splits import SplitConfig
from tabletriples.tables import OntologyAnnotation, Table
from tabletriples.triples import Highlight
from tabletriples.unify import PredicateMap


@pytest.mark.parametrize("path, line, where", [
    ("data.jsonl", 3, "data.jsonl: line 3"),
    ("doc.xml", None, "doc.xml"),
    (None, 7, "line 7"),
])
def test_prefix_forms(path, line, where):
    exc = located(ValueError("bad value"), path, line)
    assert type(exc) is ValueError and str(exc) == f"{where}: bad value"
    assert (exc.path, exc.line) == (path, line)


@pytest.mark.parametrize("exc", [TypeError("x"), ValueError("x"), TableTriplesError("x")])
def test_the_error_itself_is_returned(exc):
    assert located(exc, "f", 1) is exc
    assert exc.args == ("f: line 1: x",)


def test_a_malformed_entry_keeps_its_eid():
    exc = located(located(MalformedEntryError("missing field 'text'", eid="Id4"), None, 5), "e")
    assert exc.eid == "Id4" and str(exc) == "e: line 5: entry Id4: missing field 'text'"
    assert (exc.path, exc.line) == ("e", 5)  # put in a file, it keeps the line it was at


def test_an_error_located_at_a_file_keeps_its_place():
    exc = located(ValueError("bad value"), "entries.jsonl", 3)
    assert located(exc, "entries.jsonl") is exc
    assert str(exc) == "entries.jsonl: line 3: bad value"


def test_a_located_jsonl_error_keeps_its_line(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n\n[2]\n', encoding="utf-8")
    with pytest.raises(TableTriplesError) as err:
        list(cli._read_jsonl(path))
    assert (err.value.path, err.value.line) == (path, 3)
    assert str(err.value) == f"{path}: line 3: expected a JSON object"


def test_an_entries_line_over_the_limit_keeps_its_path_line_and_eid(tmp_path):
    path = tmp_path / "entries.jsonl"
    entry = {"eid": "Id7", "category": "C", "realizations": [{"text": "A is b."}]}
    path.write_text("".join(write_jsonl([
        {**entry, "triples": [["A", "p", "b"]]},
        {**entry, "triples": [["A", f"p{i}", "b"] for i in range(11)]}])), encoding="utf-8")
    with pytest.raises(OversizeError) as err:
        list(read_entries_file(path))
    assert isinstance(err.value, MalformedEntryError)
    assert (err.value.path, err.value.line, err.value.eid) == (path, 2, "Id7")
    assert str(err.value) == f"{path}: line 2: entry Id7: 11 triples, limit is 10"


# the inputs of a stage whose error names a whole file: its files, its argv with each file
# by name, and the file the error names
INGEST = ["ingest-tables", "--input", "a.csv", "--output", "out.jsonl"]
ALIGN = ["align-wikisql", "--input", "q.jsonl", "--tables", "tables.jsonl",
         "--annotations", "annotations.jsonl", "--qa2d", "qa2d.json", "--output", "out.jsonl"]
TREES = {"tables.jsonl": '{"id": "t", "headers": ["A"], "rows": [["x"]]}\n',
         "annotations.jsonl": '{"table_id": "t", "parents": ["ROOT"]}\n', "q.jsonl": ""}
CONFIGURED = ["--config", "c.json", "linearize", "--input", "in.jsonl", "--output", "out.txt"]
WHOLE_FILE = {
    "duplicate table id": ({"a.csv": "A\nx\n", "a.meta.json": '{"id": "t"}',
                            "b.csv": "A\nx\n", "b.meta.json": '{"id": "t"}'},
                           [*INGEST[:3], "b.csv", *INGEST[3:]], "b.csv"),
    "sidecar not an object": ({"a.csv": "A\nx\n", "a.meta.json": "[]"}, INGEST, "a.meta.json"),
    "sidecar id": ({"a.csv": "A\nx\n", "a.meta.json": '{"id": 1}'}, INGEST, "a.meta.json"),
    "empty table file": ({"a.csv": "", "a.meta.json": '{"id": "t"}'}, INGEST, "a.csv"),
    "e2e columns": ({"e2e.csv": "mr,text\nx,y\n"},
                    ["convert-e2e", "--input", "e2e.csv", "--output", "out.jsonl"], "e2e.csv"),
    "qa2d not an object": ({**TREES, "qa2d.json": "[]"}, ALIGN, "qa2d.json"),
    "qa2d value": ({**TREES, "qa2d.json": '{"q1": 1}'}, ALIGN, "qa2d.json"),
    "config not an object": ({"c.json": "[]"}, CONFIGURED, "c.json"),
    "config option": ({"c.json": '{"seed": 1}'}, CONFIGURED, "c.json"),
    "config value": ({"c.json": '{"input": 1}'}, CONFIGURED, "c.json"),
    "invalid JSON": ({"c.json": "{"}, CONFIGURED, "c.json"),
    "lone surrogate": ({"c.json": '{"input": "\\ud800"}'}, CONFIGURED, "c.json"),
}


@pytest.mark.parametrize("name", WHOLE_FILE)
def test_an_error_that_names_a_file_is_located_there(tmp_path, name):
    files, argv, named = WHOLE_FILE[name]
    for file, text in files.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    args = cli.build_parser().parse_args(
        [str(tmp_path / arg) if "." in arg else arg for arg in argv])
    stage = cli.STAGES[args.command]
    with pytest.raises(TableTriplesError) as err:
        cli._configure(args, stage)
        stage.run(args)
    path = tmp_path / named
    assert str(err.value.path) == str(path) and str(err.value).startswith(f"{path}: ")



# a good value of each checked type, fields that make it bad, and the error they give
CHECKED = {
    "Table": (Table("t", "T", ("A", "B"), (("x", "y"),)), {"headers": ("A", "A")},
              DuplicateHeaderError, "table t: duplicate column header 'A'"),
    "OntologyAnnotation": (OntologyAnnotation("t", ("ROOT", 0)), {"parents": ("ROOT", "UP")},
                           ParseError, "bad parent token 'UP'"),
    "Highlight": (Highlight("t", 0, frozenset({0})), {"nodes": frozenset()},
                  ValueError, "highlight must contain at least one node"),
    "SamplerConfig": (SamplerConfig(), {"size_min": 4, "size_max": 3},
                      BoundError, "--size-max must be at least --size-min (4), got 3"),
    "SplitConfig": (SplitConfig(), {"threshold": 1.5},
                    BoundError, "--threshold must be in (0, 1), got 1.5"),
    "PredicateMap": (PredicateMap({"a": "b"}), {"entries": {"a": "b", "b": "c"}},
                     PredicateMapError, "mapping chains found: 'a' -> 'b' -> 'c'"),
}


@pytest.mark.parametrize("name", CHECKED)
def test_every_way_of_building_a_checked_value_checks_it(name):
    good, bad, error, message = CHECKED[name]
    kind = type(good)
    fields = {**good._asdict(), **bad}
    for build in (lambda: kind(*fields.values()), lambda: kind(**fields),
                  lambda: good._replace(**bad), lambda: kind._make(fields.values())):
        with pytest.raises(Exception) as info:
            build()
        assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize("name", CHECKED)
def test_a_checked_value_copies_as_its_own_type(name):
    good = CHECKED[name][0]
    assert type(good).__mro__ == (type(good), tuple, object) and not hasattr(good, "__dict__")
    for copy in (good._replace(), type(good)._make(good), pickle.loads(pickle.dumps(good))):
        assert type(copy) is type(good) and copy == good


@pytest.mark.parametrize("name", CHECKED)
def test_a_wrong_argument_count_names_the_type(name):
    kind = type(CHECKED[name][0])
    extra = range(len(kind._fields) + 1)  # too many: the configs build with no value at all
    for build in (lambda: kind(*extra), lambda: kind._make(extra)):
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value).startswith(f"{name}.__new__() ")
