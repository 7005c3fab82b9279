"""``files.read_blocks`` and ``files.read_lines``: one rule for decoding every input."""

import pytest

from tabletriples.errors import ParseError
from tabletriples.files import read_blocks, read_lines


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
