"""The one reading rule: how an outside file is opened, decoded and
named when that fails; and the one field rule: how a config read from a
file refuses a value of the wrong JSON type."""
import dataclasses
import math

import pytest

from scribo.ctcdecoder import DecodeParams
from scribo.errors import ArpaError, RuleFileError, decode_text, opened, read_json, read_text
from scribo.features import FeatureConfig
from scribo.net import BlockGroup, ConvSpec, NetConfig
from scribo.textnorm import AlphabetSpec, NormRules


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


#: Each config dataclass a file can hold, with keyword arguments it takes.
_CONFIGS = [
    (ConvSpec, {"kernel": 3, "channels": 4}),
    (BlockGroup, {"repeats": 1, "sub_blocks": 1, "kernel": 3, "channels": 4}),
    (NetConfig, {"vocab_size": 3}),
    (FeatureConfig, {}),
    (AlphabetSpec, {"symbols": ("a",)}),
    (DecodeParams, {}),
    (NormRules, {}),
]

#: Values of another JSON type than each declared field type.
_WRONG = {
    "int": [True, "1", 2.5, 0],
    "float": [True, "1", math.nan, math.inf],
    "bool": [1, "1"],
    "str": [True, 1],
}

_FIELD_CASES = [
    pytest.param(cls, kwargs, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
    for cls, kwargs in _CONFIGS
    for f in dataclasses.fields(cls) if f.type in _WRONG
    for value in _WRONG[f.type]
]


def test_field_cases_cover_every_config_and_kind():
    # fields are matched by their declared type's name; one declared
    # otherwise would drop out of the cases unseen
    assert {f.type for cls, _ in _CONFIGS for f in dataclasses.fields(cls)} >= set(_WRONG)
    assert {case.values[0] for case in _FIELD_CASES} == {cls for cls, _ in _CONFIGS}


@pytest.mark.parametrize("cls,kwargs,name,value", _FIELD_CASES)
def test_config_refuses_a_field_of_another_json_type(cls, kwargs, name, value):
    cls(**kwargs)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{**kwargs, name: value})
