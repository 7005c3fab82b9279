"""``files.read_blocks`` and ``files.read_lines``: one rule for decoding every input;
``files.read_json`` and ``files.read_jsonl``: one rule for a JSON document and a JSON
line; ``files.field``: one rule for a field of a record; ``files.write_atomic``: the mode
of an output."""

import json
import os
import re
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabletriples.errors import ParseError, TableTriplesError
from tabletriples.files import field, read_blocks, read_json, read_jsonl, read_lines, write_atomic
from tabletriples.tables import Provenance, TitleShape


def test_every_line_end_ends_a_line_and_reads_as_newline(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes("a\r\nb\rc\u2028d\x85e\n\nf".encode())
    assert list(read_lines(path)) == ["a\n", "b\n", "c\u2028d\x85e\n", "\n", "f"]
    assert "".join(read_blocks(path)) == "".join(read_lines(path))


def test_one_leading_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xef\xbb\xbfa\r\n\xef\xbb\xbfb")
    assert list(read_lines(path)) == ["a\n", "\ufeffb"]
    assert "".join(read_blocks(path)) == "a\n\ufeffb"
    assert "".join(read_lines(path, newline="")) == "a\r\n\ufeffb"


def test_a_bad_byte_anywhere_fails_before_the_first_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"\xef\xbb\xbf" + b"x\n" * 40000 + b"\r\xff\n")
    message = f"^{path}: line 40002: 'utf-8' codec can't decode byte 0xff in position 80004: "
    for read in (read_lines, read_blocks):
        with pytest.raises(ParseError, match=message):
            read(path)


def test_the_file_is_opened_by_the_call_not_by_the_first_line(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_lines(tmp_path / "missing.txt")


def test_an_output_gets_its_mode_without_reading_or_setting_the_umask(tmp_path, monkeypatch):
    def refused(*args):
        raise AssertionError("os.umask and os.chmod are not called")

    umask = os.umask
    old = umask(0o022)
    try:
        monkeypatch.setattr(os, "umask", refused)
        monkeypatch.setattr(os, "chmod", refused)
        write_atomic(tmp_path / "out.txt", ["a\n", "b\n"])
    finally:
        umask(old)
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == "a\nb\n"
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == 0o644
    assert os.listdir(tmp_path) == ["out.txt"]


TITLE_SHAPES = "one of 'title_under_root', 'title_as_sole_child'"


@pytest.mark.parametrize("record, kinds, default, message", [
    ({}, (str,), ..., "missing field 'k'"),
    ({"k": True}, (int,), ..., "field 'k' must be an integer, got True"),
    ({"k": 1.0}, (str, int), None, "field 'k' must be a string or an integer, got 1.0"),
    ({"k": False}, (str, int, float), ...,
     "field 'k' must be a string or an integer or a number, got False"),
    ({"k": None}, (str,), "", "field 'k' must be a string, got None"),
    ({"k": "sideways"}, (TitleShape,), ..., f"field 'k' must be {TITLE_SHAPES}, got 'sideways'"),
    ({"k": [1]}, (TitleShape,), ..., f"field 'k' must be {TITLE_SHAPES}, got [1]"),
    ({"k": {}}, (TitleShape,), ..., f"field 'k' must be {TITLE_SHAPES}, got {{}}"),
    ({"k": 5}, (TitleShape,), ..., f"field 'k' must be {TITLE_SHAPES}, got 5"),
    ({"k": None}, (TitleShape,), TitleShape.TITLE_UNDER_ROOT,
     f"field 'k' must be {TITLE_SHAPES}, got None"),
])
def test_a_missing_or_wrong_field_is_one_of_three_messages(record, kinds, default, message):
    with pytest.raises(ParseError) as err:
        field(record, "k", *kinds, default=default)
    assert str(err.value) == message


def test_a_field_is_its_value_its_member_or_its_default():
    assert field({"k": 0}, "k", int) == 0
    assert field({"k": [0]}, "k", str, list) == [0]
    assert field({}, "k", str, default="x") == "x"
    assert field({"k": None}, "k", str, default=None) is None
    assert field({"k": "wikisql"}, "k", Provenance) is Provenance.WIKISQL
    assert field({"k": Provenance.E2E}, "k", Provenance) is Provenance.E2E
    assert field({}, "k", Provenance, default=Provenance.OTHER) is Provenance.OTHER
    assert field({"k": None}, "k") is None  # no kinds: any value, for its constructor to check


@pytest.mark.parametrize("second", ["out.txt", "./out.txt", "d/../out.txt", "link.txt"])
def test_two_outputs_that_resolve_to_one_file_are_refused_before_either(tmp_path, monkeypatch,
                                                                        second):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    os.symlink("out.txt", "link.txt")
    with pytest.raises(TableTriplesError,
                       match=rf"^{re.escape(second)}: the same file as the output out.txt$"):
        write_atomic("out.txt", ["a\n"], (second, ["b\n"]))
    assert sorted(os.listdir(tmp_path)) == ["d", "link.txt"]


# strings that often hold a lone surrogate, which json.dumps writes as a \\u escape
json_strings = st.text(st.characters() | st.characters(min_codepoint=0xD800,
                                                       max_codepoint=0xDFFF,
                                                       exclude_categories=()), max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | json_strings,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(json_strings, inner, max_size=3),
    max_leaves=8)
json_texts = json_values.map(json.dumps)
FRAGMENTS = ["{", "}", "[", "]", ",", ":", '"', "x", "1", " ", "\t", "\\u", '"\\ud800"',
             '{"a": 1}', '{"\\udc00": 1}', "NaN", "-", "1e999"]
one_line_texts = st.one_of(
    json_texts,
    json_texts.flatmap(lambda text: st.integers(0, len(text)).map(lambda n: text[:n])),
    st.tuples(json_texts, st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=3))
    .map(lambda parts: parts[0] + "".join(parts[1])),
    st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=6).map("".join),
).filter(str.strip)  # a blank line is skipped, so it has no reading to compare


def outcome(read) -> tuple[str, str]:
    """``repr`` of what ``read()`` returns, or the type and message of what it raises."""
    try:
        return "value", repr(read())
    except TableTriplesError as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(one_line_texts)
def test_a_document_and_a_line_are_read_by_one_rule(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text, encoding="utf-8")
        document = outcome(lambda: read_json(path))
        kind, line = outcome(lambda: next(read_jsonl([text], path))[1])
    if kind != "value":
        line = line.replace(f"{path}: line 1: ", f"{path}: ", 1)
    assert document == (kind, line)
