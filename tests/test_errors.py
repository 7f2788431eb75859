"""The one reading rule: how an outside file is opened, decoded and
named when that fails."""
import pytest

from scribo.errors import ArpaError, RuleFileError, decode_text, opened, read_json, read_text


@pytest.mark.parametrize("raw,text", [
    (b"a\nb\n", "a\nb\n"),
    (b"a\r\nb\r\n", "a\nb\n"),
    (b"a\rb", "a\nb"),
    (b"a\r\r\nb\n\r", "a\n\nb\n\n"),
    (b"a\x0cb\xe2\x80\xa8c", "a\x0cb\u2028c"),  # only CR and LF are newlines here
    (b"\xef\xbb\xbfa", "\ufeffa"),
])
def test_decode_text_reads_newlines_as_open_does(tmp_path, raw, text):
    assert decode_text(raw, "x", ArpaError) == text
    path = tmp_path / "t.txt"
    path.write_bytes(raw)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == text
    assert read_text(path, ArpaError) == text


@pytest.mark.parametrize("raw,line", [
    (b"\xff", 1),
    (b"a\nb\n\xff", 3),
    (b"a\r\nb\r\nc\xe4", 3),
    (b"a\rb\rc\r\xc3", 4),
    (b"a\r\r\n\n\xc3(", 4),
])
def test_decode_text_names_the_line_of_a_bad_byte(raw, line):
    with pytest.raises(ArpaError, match=f"^<stdin>: line {line}: cannot read: not UTF-8: "):
        decode_text(raw, "<stdin>", ArpaError)


@pytest.mark.parametrize("kind,reason", [("missing", "No such file or directory"),
                                         ("directory", "Is a directory")])
def test_readers_name_a_file_they_cannot_open(tmp_path, kind, reason):
    path = tmp_path / "input.file"
    if kind == "directory":
        path.mkdir()
    for read in (read_text, read_json):
        with pytest.raises(RuleFileError, match=f"^{path}: cannot read: {reason}$"):
            read(path, RuleFileError)
    with pytest.raises(RuleFileError, match=f"^{path}: cannot read: {reason}$"):
        with opened(path, RuleFileError):
            pass


def test_opened_names_the_file_when_a_read_fails(tmp_path):
    path = tmp_path / "input.file"
    path.write_bytes(b"abc")
    with pytest.raises(RuleFileError, match=f"^{path}: cannot read: "):
        with opened(path, RuleFileError):
            raise OSError(5, "Input/output error")


def test_opened_reads_bytes(tmp_path):
    path = tmp_path / "input.file"
    path.write_bytes(b"a\r\n\xff")
    with opened(path, RuleFileError) as fh:
        assert fh.read() == b"a\r\n\xff"


def test_read_json_names_bad_bytes_and_bad_json(tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(b'{\r\n"a": "\xff"}')
    with pytest.raises(RuleFileError, match=r"r\.json: line 2: cannot read: not UTF-8: "):
        read_json(path, RuleFileError)
    path.write_bytes(b'{"a": \r\n}')
    with pytest.raises(RuleFileError, match=r"r\.json: invalid JSON: "):
        read_json(path, RuleFileError)
    path.write_bytes(b'{"a":\r\n [1, "\xc3\xa4"]}')
    assert read_json(path, RuleFileError) == {"a": [1, "ä"]}
