"""``errors.located``, the one place that puts an error's location before its message, and
``errors.Checked``, which checks a value type's fields however the value is built."""

import pickle

import pytest

from tabletriples.errors import (BoundError, Checked, DuplicateHeaderError, MalformedEntryError,
                                 ParseError, PredicateMapError, TableTriplesError, located)
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


@pytest.mark.parametrize("exc", [TypeError("x"), ValueError("x"), TableTriplesError("x")])
def test_the_error_itself_is_returned(exc):
    assert located(exc, "f", 1) is exc
    assert exc.args == ("f: line 1: x",)


def test_a_malformed_entry_keeps_its_eid():
    exc = located(located(MalformedEntryError("missing field 'text'", eid="Id4"), None, 5), "e")
    assert exc.eid == "Id4" and str(exc) == "e: line 5: entry Id4: missing field 'text'"


def test_an_error_located_at_a_file_keeps_its_place():
    exc = located(ValueError("bad value"), "entries.jsonl", 3)
    assert located(exc, "entries.jsonl") is exc
    assert str(exc) == "entries.jsonl: line 3: bad value"



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
    assert isinstance(good, Checked) and not hasattr(good, "__dict__")
    for copy in (good._replace(), type(good)._make(good), pickle.loads(pickle.dumps(good))):
        assert type(copy) is type(good) and copy == good
