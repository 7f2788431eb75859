"""Exception types shared across the toolkit.

Everything raised on bad input data derives from ScriboError so the CLI
can map it to a data-error exit code. Contract violations by callers
(wrong shapes, bad arguments) raise plain ValueError.

Every reader of an outside file opens and decodes it here (opened,
read_text, read_json), so all of them name a file they cannot read alike.
"""
import contextlib
import json


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
