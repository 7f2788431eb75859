"""Exception types shared across the toolkit.

Everything raised on bad input data derives from ScriboError so the CLI
can map it to a data-error exit code. Contract violations by callers
(wrong shapes, bad arguments) raise plain ValueError.

Every reader of an outside file opens and decodes it here (opened,
read_text, read_json), so all of them name a file they cannot read alike.
Every config a file holds checks its JSON types here too (check_fields),
so all of them refuse a mistyped value alike.
"""
import contextlib
import dataclasses
import json
import sys


class ScriboError(Exception):
    """Base class for data and format errors."""


class RuleFileError(ScriboError):
    """Normalization rule file is malformed or violates the schema."""


class AudioFormatError(ScriboError):
    """Audio file cannot be decoded or does not match the required format."""


class DatasetError(ScriboError):
    """Dataset layout or manifest problem."""


class ArpaError(ScriboError):
    """ARPA language-model file is malformed or inconsistent."""


class WeightError(ScriboError):
    """Weight manifest/blob is missing tensors, mis-shaped or corrupt."""


@contextlib.contextmanager
def opened(path, error: type[ScriboError]):
    """``path`` open for binary reading; any OSError raises ``error``."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc.strerror or exc}") from exc


def decode_text(raw: bytes, name, error: type[ScriboError]) -> str:
    """``raw`` as UTF-8 text with the newlines open() gives (CRLF and lone CR
    read as LF); ``error`` naming ``name`` and the line of a non-UTF-8 byte."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise error(f"{name}: line {line}: cannot read: not UTF-8: {exc.reason}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path, error: type[ScriboError]) -> str:
    """The UTF-8 text of ``path``, read as decode_text reads it."""
    with opened(path, error) as fh:
        raw = fh.read()
    return decode_text(raw, path, error)


def read_json(path, error: type[ScriboError]):
    """The parsed content of a JSON file; ``error`` naming the file if it
    cannot be read (see read_text) or is not JSON."""
    try:
        return json.loads(read_text(path, error))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or an over-long integer; RecursionError: deep nesting
        raise error(f"{path}: invalid JSON: {exc}") from exc


#: What check_fields asks of a field, by the type it is declared with.
_FIELD_RULES = {
    "int": "an integer >= 1",
    "float": "a finite number",
    "bool": "a boolean",
    "str": "a string",
}


def _fits(kind: str, value) -> bool:
    if isinstance(value, bool):  # json reads true and false as bool, an int subclass
        return kind == "bool"
    if kind == "int":
        return isinstance(value, int) and value >= 1
    if kind == "float":
        # refuses NaN, the infinities and an int too large for a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return kind == "str" and isinstance(value, str)


def check_fields(obj) -> None:
    """Refuse a field of the dataclass ``obj`` declared int, float, bool or
    str whose value is of another JSON type, with ValueError("<field> must
    be ..."): configs also come from files, where any JSON value can stand.
    A bool is neither an int nor a number, every int field is a count >= 1
    and every float field is finite; fields of other types are the
    dataclass's own to check."""
    for f in dataclasses.fields(obj):
        kind = getattr(f.type, "__name__", f.type)  # a str under postponed annotations
        if kind in _FIELD_RULES and not _fits(kind, getattr(obj, f.name)):
            raise ValueError(f"{f.name} must be {_FIELD_RULES[kind]}")
