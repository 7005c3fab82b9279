"""``errors.located``: the one place that puts an error's location before its message."""

import pytest

from tabletriples.errors import MalformedEntryError, TableTriplesError, located


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

